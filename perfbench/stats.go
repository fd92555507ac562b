package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: fewer, and the tail is one or two unlucky samples.
const minTail = 10

// supports reports whether n samples support the q-quantile (0 < q < 1):
// at least minTail samples lie beyond it.
func supports(n int, q float64) bool {
	beyond := int(math.Floor(float64(n)*(1-q) + 1e-9))
	return beyond >= minTail
}

// highestSupported picks the highest of the candidate quantiles the sample
// count supports, or 0 when none is.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if supports(n, q) && q > best {
			best = q
		}
	}
	return best
}

// quantile is the q-quantile of xs by linear interpolation between closest
// ranks; xs is sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

// median of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// windows is how many equal windows the measured interval is split into
// for the latency and read-rate metrics: each is computed per window and
// the median over windows is reported, so one zero-progress hole moves one
// window, not the run's figure. The hole still shows in write_ops_per_s,
// which counts over the whole interval, and in the run's node.stalls.
const windows = 5

// sample is one latency, stamped with its due time's offset into the
// measured interval.
type sample struct {
	off time.Duration
	ms  float64
}

// windowStat splits samples into windows of the interval by due time,
// applies stat to each window's latencies and returns the median over the
// windows, with the smallest window's sample count (for the support rule).
func windowStat(xs []sample, interval time.Duration, stat func([]float64) float64) (float64, int) {
	vals, least := perWindow(xs, interval, stat)
	return median(vals), least
}

// perWindow applies stat to each window's latencies.
func perWindow(xs []sample, interval time.Duration, stat func([]float64) float64) ([]float64, int) {
	width := interval / windows
	if width <= 0 {
		return nil, 0
	}
	per := make([][]float64, windows)
	for _, x := range xs {
		if k := int(x.off / width); k >= 0 && k < windows {
			per[k] = append(per[k], x.ms)
		}
	}
	vals := make([]float64, windows)
	least := len(xs)
	for k, w := range per {
		vals[k] = stat(w)
		least = min(least, len(w))
	}
	return vals, least
}

// latencies drops the stamps.
func latencies(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}
