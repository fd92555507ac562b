package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/smr"
	"genconsensus/internal/snapshot"
	"genconsensus/internal/wire"
)

// Per-layer measurement from outside the program: registry deltas read
// through Node.Metrics() at the interval's edges, the sampler's queue and
// lag readings, and, in traced runs, the run's own inputs replayed through
// each layer's public functions at the run's working size.

// counters summed over the live replicas.
var layerCounters = []string{
	"g0.node.stalls", "g0.node.catchups",
	"g0.smr.decisions", "g0.smr.commits",
	"g0.smr.replay_rejects", "g0.smr.equivocation_evictions",
	"g0.storage.wal.append_bytes", "g0.storage.ckpt.full_bytes", "g0.storage.ckpt.delta_bytes",
	"transport.handshake.dial_fail",
	"transport.frames_in.envelope", "transport.frames_in.snap", "transport.frames_in.hello",
	"transport.frames_in.session", "transport.frames_in.payload", "transport.frames_in.other",
	"transport.bytes_in.envelope", "transport.bytes_in.snap", "transport.bytes_in.hello",
	"transport.bytes_in.session", "transport.bytes_in.payload", "transport.bytes_in.other",
}

// histograms merged over the live replicas (traced runs only).
var layerHists = []string{
	"g0.node.commit_ns", "g0.kv.read_wait_ns", "g0.storage.wal.fsync_ns",
	"transport.write_batch_frames",
}

// regSnap is one reading of the live replicas' registries.
type regSnap struct {
	at       time.Time
	counters map[string]uint64
	hists    map[string]*[65]uint64
	taken    int // node-0 checkpoints
}

type layers struct {
	b          *bench
	start, end *regSnap
	state0     []byte // node-0 store state at the interval's start (traced)
}

// read snapshots every tracked counter (and, traced, histogram).
func (l *layers) read(now time.Time) *regSnap {
	cl := l.b.cl
	s := &regSnap{at: now, counters: map[string]uint64{}}
	for _, r := range cl.live {
		reg := cl.reg(r)
		for _, name := range layerCounters {
			s.counters[name] += reg.CounterValue(name)
		}
	}
	if mgr := cl.nodes[cl.live[0]].Manager(); mgr != nil {
		s.taken = mgr.Taken()
	}
	if l.b.tr != nil {
		s.hists = map[string]*[65]uint64{}
		for _, name := range layerHists {
			var sum [65]uint64
			for _, r := range cl.live {
				bk := histBuckets(cl.reg(r).Histogram(name))
				for i := range sum {
					sum[i] += bk[i]
				}
			}
			s.hists[name] = &sum
		}
	}
	return s
}

// open reads the registries at the interval's start.
func (l *layers) open(t0 time.Time) {
	time.Sleep(time.Until(t0))
	l.start = l.read(time.Now())
	if l.b.tr != nil {
		st := l.b.cl.stores[l.b.cl.live[0]]
		id := l.b.tr.id()
		begin := time.Now()
		l.state0 = st.SnapshotState()
		l.b.tr.record(id, 0, id, "kv.Store.SnapshotState", begin, time.Now())
	}
}

// close reads the registries at the interval's end.
func (l *layers) close(t1 time.Time) {
	time.Sleep(time.Until(t1))
	l.end = l.read(time.Now())
}

func (l *layers) delta(name string) float64 {
	if l.start == nil || l.end == nil {
		return 0
	}
	return float64(l.end.counters[name] - l.start.counters[name])
}

// stalls and catchups are reported for every run, traced or not.
func (l *layers) stalls() (stalls, catchups float64) {
	return l.delta("g0.node.stalls"), l.delta("g0.node.catchups")
}

// histBuckets recovers a histogram's bucket counts through its public
// Quantile method: Quantile at rank r returns the upper bound of the
// bucket holding the r-th observation, so a binary search over ranks finds
// each bucket's cumulative count. Read while the histogram is quiet, the
// recovery is exact; under concurrent updates it is off by the
// observations that land during the search.
func histBuckets(h *obs.Histogram) [65]uint64 {
	var out [65]uint64
	total := h.Count()
	if total == 0 {
		return out
	}
	bucketAt := func(rank uint64) int {
		v := h.Quantile((float64(rank) + 0.5) / float64(total))
		if v == 0 {
			return 0
		}
		return bits.Len64(v)
	}
	// cum[i] = observations in buckets ≤ i = the first rank whose bucket
	// exceeds i.
	prev := uint64(0)
	for i := 0; i < 65; i++ {
		lo, hi := prev, total
		for lo < hi {
			mid := lo + (hi-lo)/2
			if bucketAt(mid) > i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out[i] = lo - prev
		prev = lo
		if prev == total {
			break
		}
	}
	return out
}

// bucketQuantile is the q-quantile of a bucketed distribution, linearly
// interpolated inside its log2 bucket [2^(i-1), 2^i).
func bucketQuantile(bk *[65]uint64, q float64) float64 {
	var total uint64
	for _, c := range bk {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	seen := 0.0
	for i, c := range bk {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			frac := (rank - seen) / float64(c)
			return lo + lo*frac
		}
		seen += float64(c)
	}
	return math.Ldexp(1, 64)
}

func (l *layers) histDelta(name string) *[65]uint64 {
	var out [65]uint64
	if l.start == nil || l.end == nil || l.start.hists == nil {
		return &out
	}
	a, b := l.start.hists[name], l.end.hists[name]
	for i := range out {
		if b[i] > a[i] {
			out[i] = b[i] - a[i]
		}
	}
	return &out
}

func (l *layers) histMean(name string) float64 {
	bk := l.histDelta(name)
	var n, sum float64
	for i, c := range bk {
		if c == 0 {
			continue
		}
		mid := 0.0
		if i > 0 {
			mid = math.Ldexp(1.5, i-1)
		}
		n += float64(c)
		sum += float64(c) * mid
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish computes the per-layer metrics. Untraced runs return nil; the
// stall counts they need are read from the same snapshots.
func (l *layers) finish() map[string]metric {
	b := l.b
	if b.tr == nil {
		return nil
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	live := float64(len(b.cl.live))
	interval := l.end.at.Sub(l.start.at).Seconds()
	wc, _ := b.writes.committed()
	writes := float64(wc)
	decisions := l.delta("g0.smr.decisions") / live

	commit := l.histDelta("g0.node.commit_ns")
	set("node.instance_p50_ms", bucketQuantile(commit, 0.5)/1e6, "ms")
	set("node.instance_p99_ms", bucketQuantile(commit, 0.99)/1e6, "ms")
	stalls, catchups := l.stalls()
	set("node.stalls", stalls, "count")
	set("node.catchups", catchups, "count")
	set("node.pending_max", float64(b.sample.pendingMax), "count")
	set("node.lag_max_instances", float64(b.sample.lagMax), "count")
	rw := l.histDelta("g0.kv.read_wait_ns")
	set("node.read_wait_p50_ms", bucketQuantile(rw, 0.5)/1e6, "ms")
	set("node.read_wait_p99_ms", bucketQuantile(rw, 0.99)/1e6, "ms")

	set("smr.batch_mean", ratio(l.delta("g0.smr.commits"), l.delta("g0.smr.decisions")), "count")
	set("smr.ingress_dup_per_write", ratio(l.delta("g0.smr.replay_rejects")+l.delta("g0.smr.equivocation_evictions"), writes), "count")

	var frames, bytesIn float64
	for _, name := range layerCounters {
		switch {
		case strings.HasPrefix(name, "transport.frames_in."):
			frames += l.delta(name)
		case strings.HasPrefix(name, "transport.bytes_in."):
			bytesIn += l.delta(name)
		}
	}
	set("transport.frames_per_decision", ratio(frames, decisions), "count")
	set("transport.bytes_per_write", ratio(bytesIn, writes), "B")
	set("transport.write_batch_frames_mean", l.histMean("transport.write_batch_frames"), "count")
	set("transport.dial_fail", l.delta("transport.handshake.dial_fail"), "count")

	fs := l.histDelta("g0.storage.wal.fsync_ns")
	set("storage.fsync_p50_ms", bucketQuantile(fs, 0.5)/1e6, "ms")
	set("storage.fsync_p99_ms", bucketQuantile(fs, 0.99)/1e6, "ms")
	set("storage.wal_bytes_per_write", ratio(l.delta("g0.storage.wal.append_bytes")/live, writes), "B")
	set("storage.ckpt_bytes_per_s", ratio((l.delta("g0.storage.ckpt.full_bytes")+l.delta("g0.storage.ckpt.delta_bytes"))/live, interval), "B/s")
	set("snapshot.checkpoints", float64(l.end.taken-l.start.taken), "count")

	b.mu.Lock()
	late := latencies(b.lateMS)
	b.mu.Unlock()
	set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	full := float64(b.writes.fullNS) / 1e9
	set("loadgen.window_full_ratio", ratio(full, float64(b.seconds)), "ratio")

	for k, v := range l.replay() {
		m[k] = v
	}
	return m
}

// replay times the layers' public functions on the run's own inputs, on
// the quiet end-of-run cluster. Every call is a span under a per-layer
// root, so the trace carries the layer's self time too.
func (l *layers) replay() map[string]metric {
	b := l.b
	cl := b.cl
	r0 := cl.live[0]
	nd := cl.nodes[r0]
	store := cl.stores[r0]
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// The decided batches still in node 0's WAL, in instance order, and the
	// checkpoint they follow.
	type record struct {
		instance uint64
		value    model.Value
	}
	var recs []record
	base, _, haveSnap := nd.Manager().Latest()
	from := uint64(0)
	if haveSnap {
		from = base.LastInstance
	}
	_ = nd.Backend().ReplayWAL(func(instance uint64, value model.Value) error {
		if instance > from {
			recs = append(recs, record{instance, value})
		}
		return nil
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].instance < recs[j].instance })

	keyring := auth.NewClientKeyring(authSeed, 16)
	fresh := func() (*kv.Store, *smr.AuthContext) {
		ax := smr.NewAuthContext(keyring, 0)
		st := kv.NewStore()
		st.EnableClientAuth(ax, 0)
		if haveSnap {
			_ = st.RestoreState(base.State)
		}
		st.EachAppliedSeq(ax.Window().Record)
		// The node's session ingress pre-verifies every command it mints;
		// warm the verdict cache the same way so replay pays what the node
		// pays.
		for _, r := range recs {
			for _, c := range smr.Commands(r.value) {
				if client, seq, _, _, err := wire.DecodeCommandParts(string(c)); err == nil {
					ax.Preverify(c, client, seq)
				}
			}
		}
		return st, ax
	}

	// smr: Replica.Commit with the run's largest observed backlog queued.
	{
		st, ax := fresh()
		rep := smr.NewReplica(0, st)
		rep.SetCommandAuth(ax)
		reg := obs.NewRegistry()
		rep.SetMetrics(smr.MetricsFor(reg, ""))
		signer := auth.NewClientSigner(authSeed, 9)
		for i := 0; i < b.sample.pendingMax; i++ {
			cmd, err := kv.SignedCommand(signer, uint64(i+1), "SET", dataKey(i%preloadKeys), "backlog")
			if err == nil {
				rep.Submit(cmd)
			}
		}
		root := b.tr.id()
		rootStart := time.Now()
		var us []float64
		empty := 0
		for _, r := range recs {
			before := reg.CounterValue("smr.commits")
			t := time.Now()
			rep.Commit(r.value)
			d := time.Since(t)
			b.tr.child(root, root, "smr.Replica.Commit", t, t.Add(d))
			us = append(us, float64(d)/1e3)
			if reg.CounterValue("smr.commits") == before {
				empty++
			}
		}
		b.tr.record(root, 0, root, "replay.smr", rootStart, time.Now())
		set("smr.commit_us", quantile(us, 0.5), "us")
		set("smr.empty_decision_ratio", ratio(float64(empty), float64(len(recs))), "ratio")
	}

	// kv: Store.Apply on the decided log, per command.
	{
		st, _ := fresh()
		root := b.tr.id()
		rootStart := time.Now()
		var total time.Duration
		n := 0
		for _, r := range recs {
			cmds := smr.Commands(r.value)
			t := time.Now()
			for _, c := range cmds {
				if c != smr.NoOp {
					st.Apply(c)
					n++
				}
			}
			d := time.Since(t)
			total += d
			b.tr.child(root, root, "kv.Store.Apply", t, t.Add(d))
		}
		b.tr.record(root, 0, root, "replay.kv.apply", rootStart, time.Now())
		set("kv.apply_ns", ratio(float64(total.Nanoseconds()), float64(n)), "ns")
	}

	// wire: envelope codec on envelopes carrying the run's batches.
	{
		root := b.tr.id()
		rootStart := time.Now()
		var enc, dec []float64
		buf := make([]byte, 0, 64<<10)
		for _, r := range recs {
			env := wire.Envelope{Instance: r.instance, Round: 1, Sender: 0,
				Msg: model.Message{Kind: model.SelectionRound, Vote: r.value}}
			t := time.Now()
			buf = wire.AppendEnvelope(buf[:0], env)
			d := time.Since(t)
			b.tr.child(root, root, "wire.AppendEnvelope", t, t.Add(d))
			enc = append(enc, float64(d))
			t = time.Now()
			_, err := wire.Decode(buf)
			d = time.Since(t)
			b.tr.child(root, root, "wire.Decode", t, t.Add(d))
			if err == nil {
				dec = append(dec, float64(d))
			}
		}
		b.tr.record(root, 0, root, "replay.wire", rootStart, time.Now())
		set("wire.envelope_encode_ns", quantile(enc, 0.5), "ns")
		set("wire.envelope_decode_ns", quantile(dec, 0.5), "ns")
	}

	// auth: the node-side session tag check on the run's SCMD lines.
	{
		root := b.tr.id()
		rootStart := time.Now()
		var ns []float64
		if c := b.tagged; c != nil {
			macer := auth.NewSessionMACer(c.key)
			for _, s := range c.sent {
				t := time.Now()
				ok := macer.Check(s.seq, s.payload, s.tag[:])
				d := time.Since(t)
				if !ok {
					b.abort(fmt.Errorf("session tag of seq %d does not verify", s.seq))
				}
				ns = append(ns, float64(d))
			}
		}
		b.tr.record(root, 0, root, "replay.auth.SessionMACer.Check", rootStart, time.Now())
		set("auth.session_check_ns", quantile(ns, 0.5), "ns")
	}

	// kv: Store.Get on the run's read keys against the end-of-run store.
	{
		root := b.tr.id()
		rootStart := time.Now()
		n := b.readsSent.Load()
		if n > 1<<16 {
			n = 1 << 16
		}
		keys := make([]string, n)
		for i := range keys {
			keys[i] = dataKey(b.g.readKey(uint64(i + 1)))
		}
		t := time.Now()
		for _, k := range keys {
			store.Get(k)
		}
		d := time.Since(t)
		b.tr.child(root, root, "kv.Store.Get", t, t.Add(d))
		t = time.Now()
		for i := 0; i+16 <= len(keys); i += 16 {
			store.GetMany(keys[i : i+16])
		}
		b.tr.child(root, root, "kv.Store.GetMany", t, time.Now())
		b.tr.record(root, 0, root, "replay.kv.get", rootStart, time.Now())
		set("kv.get_ns", ratio(float64(d.Nanoseconds()), float64(len(keys))), "ns")
	}

	// Checkpoint pipeline on the end-of-run store, median of three.
	{
		root := b.tr.id()
		rootStart := time.Now()
		var stMS, dgMS, enMS []float64
		var state []byte
		for i := 0; i < 3; i++ {
			t := time.Now()
			state = store.SnapshotState()
			d := time.Since(t)
			b.tr.child(root, root, "kv.Store.SnapshotState", t, t.Add(d))
			stMS = append(stMS, float64(d)/1e6)
			snap := &snapshot.Snapshot{LastInstance: 1, LogIndex: 1, State: state}
			t = time.Now()
			snapshot.Digest(snap)
			d = time.Since(t)
			b.tr.child(root, root, "snapshot.Digest", t, t.Add(d))
			dgMS = append(dgMS, float64(d)/1e6)
			t = time.Now()
			snapshot.Encode(snap)
			d = time.Since(t)
			b.tr.child(root, root, "snapshot.Encode", t, t.Add(d))
			enMS = append(enMS, float64(d)/1e6)
		}
		set("kv.snapshot_state_ms", median(stMS), "ms")
		set("snapshot.digest_ms", median(dgMS), "ms")
		set("snapshot.encode_ms", median(enMS), "ms")

		// Delta against the state at the interval's start: a chain of two
		// checkpoints one interval apart.
		if l.state0 != nil {
			var e snapshot.IncrementalEncoder
			e.FullEvery = shape.FullSnapshotEvery
			t := time.Now()
			full := e.Encode(&snapshot.Snapshot{LastInstance: 1, LogIndex: 1, State: l.state0})
			delta := e.Encode(&snapshot.Snapshot{LastInstance: 2, LogIndex: 2, State: state})
			b.tr.child(root, root, "snapshot.IncrementalEncoder.Encode", t, time.Now())
			set("snapshot.delta_ratio", ratio(float64(len(delta.Payload)), float64(len(full.Payload))), "ratio")
		} else {
			set("snapshot.delta_ratio", 0, "ratio")
		}
		b.tr.record(root, 0, root, "replay.snapshot", rootStart, time.Now())
	}
	return m
}
