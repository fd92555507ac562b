package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// seqWindow is the protocol's per-client horizon (wire.DefaultSeqWindow):
// a writer never has more than this many sequence numbers sent but not yet
// quorum-committed, or a late seq could fall below a replica's dedup
// horizon and be dropped.
const seqWindow = 1024

// Workload parameters.
const (
	warmup       = 3 * time.Second // load runs this long before the interval opens
	replyTimeout = 15 * time.Second
	drainTimeout = 30 * time.Second
	sampleEvery  = 100 * time.Millisecond
	victim       = 3 // replica write-degraded stops
)

// workloadShape is what distinguishes the workloads.
type workloadShape struct {
	// openRate is the open-loop writer's rate (writes/s); 0 runs the
	// closed-loop writer held at the sequence window.
	openRate float64
	// probeEvery reads every probeEvery-th write back on every live
	// replica: those writes give the commit latency.
	probeEvery uint64
	// readsPerConn is the closed-loop anonymous READs kept outstanding on
	// each live replica.
	readsPerConn int
	// stopVictim stops one replica after set-up, before load.
	stopVictim bool
}

var shapes = map[string]workloadShape{
	"write-paced":    {openRate: 500, probeEvery: 1, readsPerConn: 1},
	"read-mostly":    {openRate: 500, probeEvery: 1, readsPerConn: 16},
	"write-heavy":    {openRate: 2000, probeEvery: 8, readsPerConn: 4},
	"write-saturate": {probeEvery: 8, readsPerConn: 4},
	"write-degraded": {openRate: 100, probeEvery: 1, readsPerConn: 4, stopVictim: true},
}

// bench is one run of one workload.
type bench struct {
	workload string
	shape    workloadShape
	seed     int64
	seconds  int
	dir      string
	g        *gen
	tr       *tracer
	cl       *cluster

	// The measured interval [t0, t1); fixed before any load goroutine starts.
	t0, t1 time.Time

	// keyOf maps a writerClient seq to the working-set key it wrote.
	keyOf      func(uint64) int
	writerSent atomic.Uint64 // highest writerClient seq sent

	mu       sync.Mutex
	commitMS []sample // read-your-writes commit latencies, due in the interval
	readMS   []sample // anonymous read latencies, due in the interval
	lateMS   []sample // open-loop lateness
	failed   int
	failures map[string]int // reply text → count, for the report
	fatal    error

	attempted atomic.Int64
	readsSent atomic.Uint64 // anonymous READs sent (the read-key stream's length)
	tagged    *tagCapture   // traced runs: SCMD lines kept for the auth replay

	writes writeStats
	sample samples
}

// writeStats is the main writer's quorum-commit count over the interval.
type writeStats struct {
	front0, front1 uint64
	at0, at1       time.Time
	opened, closed bool
	fullNS         int64 // time spent at the sequence window's cap
}

func (w *writeStats) observe(now time.Time, t0, t1 time.Time, front uint64) {
	if !w.opened && !now.Before(t0) {
		w.front0, w.at0, w.opened = front, now, true
	}
	if w.opened && !w.closed && !now.Before(t1) {
		w.front1, w.at1, w.closed = front, now, true
	}
}

func (w *writeStats) committed() (uint64, time.Duration) {
	if !w.opened || !w.closed {
		return 0, 0
	}
	return w.front1 - w.front0, w.at1.Sub(w.at0)
}

func (b *bench) inWindow(t time.Time) bool { return !t.Before(b.t0) && t.Before(b.t1) }

func (b *bench) fail(inWin bool, what string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if inWin {
		b.failed++
	}
	if b.failures == nil {
		b.failures = make(map[string]int)
	}
	b.failures[what]++
}

func (b *bench) abort(err error) {
	b.mu.Lock()
	if b.fatal == nil {
		b.fatal = err
	}
	b.mu.Unlock()
}

func (b *bench) err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fatal
}

// onReply checks one reply against its request and records its latency.
// It runs on the connection's reader goroutine.
func (b *bench) onReply(c *conn, p pending, reply string, at time.Time) {
	inWin := b.inWindow(p.due)
	switch p.kind {
	case replyAck:
		b.tr.child(p.span, p.req, "client.submit", p.sent, at)
		// The broadcast races: another replica's copy of the write already
		// committed (or is queued). The node records the session's read
		// anchor before answering either, so a read-back still waits for
		// the write and checks its value.
		if reply != "QUEUED" && reply != "ERR replayed sequence" && reply != "ERR duplicate identity" {
			b.fail(inWin, fmt.Sprintf("write reply %q", reply))
		}
	case replyProbeRead:
		b.tr.child(p.span, p.req, "client.read_your_writes", p.sent, at)
		pr := p.probe
		v, ok := parseVal(reply)
		switch {
		case !ok:
			b.fail(inWin, fmt.Sprintf("probe read reply %q", reply))
		case v != pr.want && !b.laterWrite(pr, v):
			b.fail(inWin, "probe read returned a value other than its write's")
			b.abort(fmt.Errorf("read-your-writes on replica %d returned %q, wrote %q", c.replica, v, pr.want))
		case pr.got.Add(1) == int32(quorum()):
			b.tr.record(p.span, 0, p.req, "write.read_your_writes", p.due, at)
			if inWin {
				b.mu.Lock()
				b.commitMS = append(b.commitMS, sample{p.due.Sub(b.t0), float64(at.Sub(p.due)) / 1e6})
				b.mu.Unlock()
			}
			if p.notify != nil {
				p.notify <- p.token
			}
		}
		return
	case replyRead:
		b.tr.record(p.span, 0, p.req, "client.read", p.sent, at)
		v, ok := parseVal(reply)
		switch {
		case !ok:
			b.fail(inWin, fmt.Sprintf("read reply %q", reply))
		case !b.g.checkDataValue(p.key, v, b.keyOf, b.writerSent.Load()):
			b.fail(inWin, "read returned a value the generator never wrote for its key")
			b.abort(fmt.Errorf("READ %s on replica %d returned %q", dataKey(p.key), c.replica, v))
		case inWin:
			b.mu.Lock()
			b.readMS = append(b.readMS, sample{p.due.Sub(b.t0), float64(at.Sub(p.due)) / 1e6})
			b.mu.Unlock()
		}
	}
	if p.notify != nil {
		p.notify <- p.token
	}
}

func (b *bench) newProbe(due time.Time, id int, seq uint64) *probe {
	key := dataKey(id)
	return &probe{due: due, id: id, key: key, seq: seq, want: b.g.value(key, writerClient, seq)}
}

// laterWrite reports whether v is a later write of the writer to the
// probe's key. A uniform writer may overwrite a key while an earlier
// write's read-backs are in flight, and read-your-writes promises the
// write or a newer one.
func (b *bench) laterWrite(pr *probe, v string) bool {
	_, client, seq, ok := parseValue(v)
	return ok && client == writerClient && seq > pr.seq && b.g.checkDataValue(pr.id, v, b.keyOf, b.writerSent.Load())
}

// readConns is how many read-back connections the writer keeps per
// replica. A session READ blocks its connection until the write is
// applied and then waits out the read index — about one instance under
// load — so one connection serves read-backs one at a time; probes go
// round-robin over several.
const readConns = 4

// connSet is one client's connections, one per live replica, with their
// reader goroutines. A writer that reads its writes back also has
// readConns more session connections per replica for that: writes queued
// behind a blocked READ would reach the replica late and throttle the
// offered load to the read-back rate. Each read-back therefore repeats its
// write on its read connection (the node records the read anchor there;
// the repeat is deduplicated) and the broadcast connections never block.
type connSet struct {
	client uint32
	conns  []*conn   // broadcast connections (READs on anonymous sets)
	reads  [][]*conn // per replica, its read-back connections
	probes uint64    // read-backs issued, for the round-robin
	wg     sync.WaitGroup
}

func (b *bench) dial(client uint32, readBack bool) (*connSet, error) {
	cs := &connSet{client: client}
	n := 1
	if readBack {
		n += readConns
	}
	for _, r := range b.cl.live {
		var reads []*conn
		for i := 0; i < n; i++ {
			c, err := dialConn(r, b.cl.nodes[r].ClientAddr(), client)
			if err != nil {
				cs.close()
				return nil, err
			}
			if i == 0 {
				cs.conns = append(cs.conns, c)
			} else {
				reads = append(reads, c)
			}
		}
		if readBack {
			cs.reads = append(cs.reads, reads)
		}
	}
	for _, c := range cs.all() {
		cs.wg.Add(1)
		go func(c *conn) {
			defer cs.wg.Done()
			if err := c.serve(b.onReply); err != nil && c.outstanding() > 0 {
				b.abort(fmt.Errorf("replica %d connection: %w", c.replica, err))
			}
		}(c)
	}
	return cs, nil
}

func (cs *connSet) all() []*conn {
	all := append([]*conn(nil), cs.conns...)
	for _, rs := range cs.reads {
		all = append(all, rs...)
	}
	return all
}

// close hangs up and waits for the reader goroutines.
func (cs *connSet) close() {
	for _, c := range cs.all() {
		c.c.Close()
	}
	cs.wg.Wait()
}

func (cs *connSet) flush() error {
	var errs []error
	for _, c := range cs.all() {
		errs = append(errs, c.flush())
	}
	return errors.Join(errs...)
}

func (cs *connSet) outstanding() int {
	n := 0
	for _, c := range cs.all() {
		n += c.outstanding()
	}
	return n
}

// probe is one write read back on every live replica. It counts as
// committed when n−b read-backs returned it: the client-visible form of
// "applied on n−b replicas", so one lagging replica moves the tail of the
// reads but not the commit.
type probe struct {
	due  time.Time
	id   int // working-set key id
	key  string
	seq  uint64
	want string
	got  atomic.Int32
}

// writeReadBack broadcasts the probe's write and reads it back on every
// replica: the write repeated on the read connection, then the READ right
// behind it (a session READ waits until the connection's last write is
// applied, so nothing may come between the two).
func (cs *connSet) writeReadBack(pr *probe, p pending) {
	ack := p
	ack.notify = nil // a chain moves on read-backs, not acks
	for _, c := range cs.conns {
		c.write(cs.client, pr.seq, pr.key, pr.want, ack)
	}
	cs.probes++
	for _, rs := range cs.reads {
		c := rs[cs.probes%uint64(len(rs))]
		c.write(cs.client, pr.seq, pr.key, pr.want, ack)
		r := p
		r.kind = replyProbeRead
		r.probe = pr
		c.read(pr.key, r)
	}
}

// writeLoop is the closed-loop pipelined writer: cs.client writes seqs
// 1..count (count 0 = unbounded) broadcast on every connection, keeping at
// most seqWindow of them not yet quorum-committed, until count is reached
// or until stop. keyOf names the working-set key seq writes; with
// probeEvery > 0 every probeEvery-th write is read back.
func (b *bench) writeLoop(cs *connSet, cur *quorumCursor, keyOf func(uint64) int, count uint64, stop time.Time, st *writeStats, probeEvery uint64) (uint64, error) {
	var sent, front uint64
	var stuck progress
	var starts [2 * seqWindow]struct {
		at  time.Time
		req uint64
	}
	for {
		now := time.Now()
		next := cur.advance(sent)
		if b.tr != nil {
			for s := front + 1; s <= next; s++ {
				e := &starts[s%uint64(len(starts))]
				b.tr.record(e.req, 0, e.req, "write.quorum_commit", e.at, now)
			}
		}
		front = next
		if st != nil {
			st.observe(now, b.t0, b.t1, front)
		}
		if (count > 0 && sent == count) || (!stop.IsZero() && !now.Before(stop)) {
			return sent, nil
		}
		if err := b.err(); err != nil {
			return sent, err
		}
		room := front + seqWindow - sent
		if count > 0 && room > count-sent {
			room = count - sent
		}
		if room == 0 {
			if err := stuck.check(now, front); err != nil {
				return sent, err
			}
			time.Sleep(100 * time.Microsecond)
			if st != nil && b.inWindow(now) {
				st.fullNS += time.Since(now).Nanoseconds()
			}
			continue
		}
		room = min(room, 128)
		inWin := b.inWindow(now)
		for i := uint64(0); i < room; i++ {
			sent++
			id := keyOf(sent)
			req := b.tr.id()
			starts[sent%uint64(len(starts))].at, starts[sent%uint64(len(starts))].req = now, req
			p := pending{due: now, sent: now, span: req, req: req}
			if cs.client == writerClient {
				b.writerSent.Store(sent)
			}
			if probeEvery > 0 && sent%probeEvery == 0 {
				cs.writeReadBack(b.newProbe(now, id, sent), p)
			} else {
				key := dataKey(id)
				val := b.g.value(key, cs.client, sent)
				for _, c := range cs.conns {
					c.write(cs.client, sent, key, val, p)
				}
			}
			if inWin && st != nil {
				b.attempted.Add(1)
			}
		}
		if err := cs.flush(); err != nil {
			return sent, err
		}
	}
}

// progress fails a writer held at the sequence window whose quorum
// frontier has not moved for replyTimeout: the cluster stopped committing,
// and waiting longer would only run past the benchmark's time limit.
type progress struct {
	front uint64
	since time.Time
}

func (p *progress) check(now time.Time, front uint64) error {
	if p.since.IsZero() || front != p.front {
		p.front, p.since = front, now
		return nil
	}
	if now.Sub(p.since) > replyTimeout {
		return fmt.Errorf("no write quorum-committed for %v (frontier stuck at seq %d)", replyTimeout, front)
	}
	return nil
}

// openLoop is the open-loop writer: writes due at a fixed rate whether or
// not earlier ones finished, each broadcast, every probeEvery-th read back
// on every live replica. Latency runs from the due time, so generator
// lateness and window stalls are charged to the writes they delay. It
// returns the number of writes sent.
func (b *bench) openLoop(cs *connSet, cur *quorumCursor, start time.Time) (uint64, error) {
	sched := newSchedule(start, b.shape.openRate)
	var stuck progress
	for i := uint64(0); ; i++ {
		due := sched.due(i)
		if !due.Before(b.t1) {
			time.Sleep(time.Until(b.t1))
			b.writes.observe(time.Now(), b.t0, b.t1, cur.advance(i))
			return i, nil
		}
		if err := b.err(); err != nil {
			return i, err
		}
		if d := sched.wait(i, time.Now()); d > 0 {
			time.Sleep(d)
		}
		seq := i + 1
		for {
			now := time.Now()
			front := cur.advance(i)
			b.writes.observe(now, b.t0, b.t1, front)
			if seq <= front+seqWindow {
				break
			}
			if err := stuck.check(now, front); err != nil {
				return i, err
			}
			time.Sleep(100 * time.Microsecond)
			if b.inWindow(now) {
				b.writes.fullNS += time.Since(now).Nanoseconds()
			}
		}
		now := time.Now()
		if b.inWindow(due) {
			b.mu.Lock()
			b.lateMS = append(b.lateMS, sample{due.Sub(b.t0), float64(sched.lateness(i, now)) / 1e6})
			b.mu.Unlock()
			b.attempted.Add(1)
		}
		id := b.keyOf(seq)
		req := b.tr.id()
		p := pending{due: due, sent: now, span: req, req: req}
		b.writerSent.Store(seq)
		if seq%b.shape.probeEvery == 0 {
			cs.writeReadBack(b.newProbe(due, id, seq), p)
		} else {
			key := dataKey(id)
			val := b.g.value(key, writerClient, seq)
			for _, c := range cs.conns {
				c.write(writerClient, seq, key, val, p)
			}
		}
		if err := cs.flush(); err != nil {
			return seq, err
		}
	}
}

// readLoop keeps readsPerConn anonymous READs outstanding on every live
// replica until b.t1 (closed loop): a reply triggers the next READ on the
// same connection. Keys are uniform over the working set.
func (b *bench) readLoop(anon *connSet) error {
	live := len(anon.conns)
	slots := b.shape.readsPerConn * live
	done := make(chan int, slots) // one slot per outstanding READ
	read := func(slot int) {
		now := time.Now()
		id := b.g.readKey(b.readsSent.Add(1))
		req := b.tr.id()
		anon.conns[slot%live].read(dataKey(id), pending{kind: replyRead, key: id, due: now, sent: now,
			span: req, req: req, notify: done, token: slot})
		if b.inWindow(now) {
			b.attempted.Add(1)
		}
	}
	for s := 0; s < slots; s++ {
		read(s)
	}
	if err := anon.flush(); err != nil {
		return err
	}
	for outstanding := slots; outstanding > 0; {
		select {
		case slot := <-done:
			if !time.Now().Before(b.t1) || b.err() != nil {
				outstanding--
			} else {
				read(slot)
			}
			if len(done) == 0 {
				if err := anon.flush(); err != nil {
					return err
				}
			}
		case <-time.After(replyTimeout):
			return fmt.Errorf("no reply in %v", replyTimeout)
		}
	}
	return nil
}

// samples is what the 100 ms sampler saw during the interval.
type samples struct {
	pendingMax int
	lagMax     uint64
	liveHeap   []float64 // bytes live after the most recent GC
}

// sampleLoop polls queue depth, replica lag and the live heap every
// sampleEvery during the interval.
func (b *bench) sampleLoop(stop <-chan struct{}) {
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			if !b.inWindow(now) {
				continue
			}
			var lo, hi uint64
			for i, r := range b.cl.live {
				b.sample.pendingMax = max(b.sample.pendingMax, b.cl.nodes[r].Replica().PendingLen())
				d := b.cl.reg(r).CounterValue("g0.smr.decisions")
				if i == 0 || d < lo {
					lo = d
				}
				hi = max(hi, d)
			}
			b.sample.lagMax = max(b.sample.lagMax, hi-lo)
			metrics.Read(heap)
			if heap[0].Value.Kind() == metrics.KindUint64 {
				b.sample.liveHeap = append(b.sample.liveHeap, float64(heap[0].Value.Uint64()))
			}
		}
	}
}

// setup starts a fresh cluster and preloads the working set through
// consensus, returning once every preload write is applied on n−b
// replicas.
func (b *bench) setup(dir string) (*cluster, time.Duration, error) {
	start := time.Now()
	cl, err := startCluster(dir)
	if err != nil {
		return nil, 0, err
	}
	b.cl = cl
	cs, err := b.dial(preloadClient, false)
	if err != nil {
		cl.stop()
		return nil, 0, err
	}
	cur := newQuorumCursor(preloadClient, quorum(), cl.liveStores())
	_, err = b.writeLoop(cs, cur, func(seq uint64) int { return int(seq - 1) }, preloadKeys, time.Time{}, nil, 0)
	if err == nil && !waitFor(drainTimeout, func() bool { return cur.advance(preloadKeys) == preloadKeys }) {
		err = fmt.Errorf("preload not quorum-applied within %v", drainTimeout)
	}
	elapsed := time.Since(start)
	cs.close()
	if err == nil {
		err = b.err()
	}
	if err != nil {
		cl.stop()
		return nil, 0, err
	}
	return cl, elapsed, nil
}

func (b *bench) setupDir(i int) string { return filepath.Join(b.dir, fmt.Sprintf("setup-%d", i)) }
