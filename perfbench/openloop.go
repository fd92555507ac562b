package main

import "time"

// schedule is an open-loop arrival schedule: request i is due at
// start + i·interval whether or not earlier requests have finished. A
// generator that falls behind sends late requests at once, and each
// request's latency still runs from its due time, so a stall is charged
// to every request it delays.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, perSecond float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// due is request i's due time.
func (s schedule) due(i uint64) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// wait returns how long to sleep before request i is due at now (0 when
// it is already due).
func (s schedule) wait(i uint64, now time.Time) time.Duration {
	if d := s.due(i).Sub(now); d > 0 {
		return d
	}
	return 0
}

// lateness is how late request i went out when sent at sent: never
// negative, since a request is never sent before it is due.
func (s schedule) lateness(i uint64, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(i)); d > 0 {
		return d
	}
	return 0
}
