package main

import (
	"math"
	"testing"
	"time"

	"genconsensus/internal/obs"
)

func TestSupportsNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, // 9.99 beyond: one short
		{1000, 0.99, true}, // exactly 10 beyond
		{99, 0.9, false},
		{100, 0.9, true},
		{19, 0.5, false},
		{20, 0.5, true},
		{0, 0.5, false},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := highestSupported(500, 0.5, 0.9, 0.99); got != 0.9 {
		t.Errorf("highestSupported(500) = %v, want 0.9", got)
	}
	if got := highestSupported(5, 0.5, 0.9); got != 0 {
		t.Errorf("highestSupported(5) = %v, want 0", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

// fakeStore applies whatever seqs the test marks.
type fakeStore map[uint64]bool

func (f fakeStore) SeqApplied(_ uint32, seq uint64) bool { return f[seq] }

func TestQuorumCursorOutOfOrder(t *testing.T) {
	a, b, c := fakeStore{}, fakeStore{}, fakeStore{}
	q := newQuorumCursor(1, 2, []seqApplier{a, b, c})
	// Seq 2 and 3 land before 1 on replica a: the cursor must not move.
	a[2], a[3] = true, true
	if got := q.advance(5); got != 0 {
		t.Fatalf("frontier = %d before any replica holds seq 1", got)
	}
	a[1] = true
	if got := q.advance(5); got != 0 {
		t.Fatalf("frontier = %d with one replica caught up, need 2", got)
	}
	if q.cur[0] != 3 {
		t.Fatalf("replica a cursor = %d, want 3 once the gap closed", q.cur[0])
	}
	b[1], b[3] = true, true // b still misses 2
	if got := q.advance(5); got != 1 {
		t.Fatalf("frontier = %d, want 1", got)
	}
	b[2] = true
	if got := q.advance(5); got != 3 {
		t.Fatalf("frontier = %d, want 3", got)
	}
	// The limit caps probing: seqs beyond the highest sent are not asked.
	a[4], b[4] = true, true
	if got := q.advance(3); got != 3 {
		t.Fatalf("frontier = %d past the limit", got)
	}
}

func TestScheduleDueAndLateness(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 500) // one every 2ms
	if got := s.due(0); !got.Equal(start) {
		t.Fatalf("due(0) = %v", got)
	}
	if got := s.due(10).Sub(start); got != 20*time.Millisecond {
		t.Fatalf("due(10) offset = %v, want 20ms", got)
	}
	// Early: wait the remainder, never early-send; lateness is zero.
	now := start.Add(19 * time.Millisecond)
	if got := s.wait(10, now); got != time.Millisecond {
		t.Fatalf("wait = %v, want 1ms", got)
	}
	if got := s.lateness(10, s.due(10)); got != 0 {
		t.Fatalf("on-time lateness = %v", got)
	}
	// A stall: request 10 goes out 7ms late and 11 is already due, so the
	// generator sends it at once and charges it from its own due time.
	sent := start.Add(27 * time.Millisecond)
	if got := s.lateness(10, sent); got != 7*time.Millisecond {
		t.Fatalf("lateness(10) = %v, want 7ms", got)
	}
	if got := s.wait(11, sent); got != 0 {
		t.Fatalf("wait(11) after a stall = %v, want 0", got)
	}
	if got := s.lateness(11, sent); got != 5*time.Millisecond {
		t.Fatalf("lateness(11) = %v, want 5ms", got)
	}
}

func stream(g *gen, n int) []string {
	var out []string
	for i := uint64(1); i <= uint64(n); i++ {
		k := dataKey(g.uniformKey(i))
		out = append(out, k, g.value(k, writerClient, i), dataKey(g.permKey(i)), dataKey(g.readKey(i)))
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	a := stream(newGen(42, preloadKeys), 200)
	b := stream(newGen(42, preloadKeys), 200)
	c := stream(newGen(43, preloadKeys), 200)
	same, diff := true, 0
	for i := range a {
		same = same && a[i] == b[i]
		if a[i] != c[i] {
			diff++
		}
	}
	if !same {
		t.Fatal("the same seed gave different streams")
	}
	if diff < len(a)/2 {
		t.Fatalf("a different seed changed only %d of %d items", diff, len(a))
	}
}

func TestValuesAreFixedWidthAndCheckable(t *testing.T) {
	g := newGen(7, preloadKeys)
	for seq := uint64(1); seq < 3000; seq++ {
		id := g.uniformKey(seq)
		v := g.value(dataKey(id), writerClient, seq)
		if len(v) != valueBytes || len(dataKey(id)) != 8 {
			t.Fatalf("value %q is %d bytes", v, len(v))
		}
		if !g.checkDataValue(id, v, g.uniformKey, seq) {
			t.Fatalf("generated value %q does not check", v)
		}
		if g.checkDataValue(id, v, g.uniformKey, seq-1) {
			t.Fatal("a value from a seq not yet sent passed")
		}
		if g.checkDataValue((id+1)%preloadKeys, v, g.uniformKey, seq) {
			t.Fatal("a value passed for another key")
		}
	}
	pre := g.value(dataKey(5), preloadClient, 6)
	if !g.checkDataValue(5, pre, nil, 0) || g.checkDataValue(5, g.value(dataKey(5), preloadClient, 7), nil, 0) {
		t.Fatal("preload value check")
	}
	bad := pre[:len(pre)-1] + "x"
	if g.checkDataValue(5, bad, nil, 0) {
		t.Fatal("a corrupted value passed")
	}
}

func TestPermKeyIsAPermutation(t *testing.T) {
	g := newGen(9, preloadKeys)
	seen := make([]bool, preloadKeys)
	for seq := uint64(1); seq <= preloadKeys; seq++ {
		k := g.permKey(seq)
		if seen[k] {
			t.Fatalf("key %d written twice within one pass", k)
		}
		seen[k] = true
	}
}

func TestHistBucketsRecoversCounts(t *testing.T) {
	var h obs.Histogram
	vals := []uint64{0, 1, 1, 3, 900, 1000, 1023, 1024, 5e6, 5e6, 7e9}
	for _, v := range vals {
		h.Observe(v)
	}
	bk := histBuckets(&h)
	var want [65]uint64
	for _, v := range vals {
		n := 0
		for x := v; x > 0; x >>= 1 {
			n++
		}
		want[n]++
	}
	if bk != want {
		t.Fatalf("buckets = %v\nwant      %v", bk, want)
	}
	// Interpolated quantiles stay inside the holding bucket.
	if q := bucketQuantile(&bk, 0.5); q < 512 || q >= 1024 {
		t.Fatalf("median %v outside [512, 1024)", q)
	}
	if q := bucketQuantile(&bk, 1); q < math.Ldexp(1, 32) || q > math.Ldexp(1, 33) {
		t.Fatalf("max %v outside its bucket", q)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 90, End: 130}, // clipped to 100
		{ID: 5, Parent: 2, Req: 1, Name: "d", Start: 15, End: 20},
	}
	st := selfTimes(spans)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	if got := st["root"].SelfMS; got != ms(100-50-10) {
		t.Fatalf("root self = %v, want %v", got, ms(40))
	}
	if got := st["a"].SelfMS; got != ms(25) {
		t.Fatalf("a self = %v, want %v", got, ms(25))
	}
	if st["c"].TotalM != ms(40) {
		t.Fatalf("c total = %v", st["c"].TotalM)
	}
}

func TestParseVal(t *testing.T) {
	if v, ok := parseVal("VAL 0 17 k0000001.c1.s2.abc"); !ok || v != "k0000001.c1.s2.abc" {
		t.Fatalf("parseVal = %q %v", v, ok)
	}
	for _, bad := range []string{"NF 0 17", "ERR read timeout", "VAL 0 17"} {
		if _, ok := parseVal(bad); ok {
			t.Fatalf("parseVal(%q) accepted", bad)
		}
	}
}

func TestProgressFailsOnlyWhenTheFrontierStops(t *testing.T) {
	var p progress
	t0 := time.Unix(0, 0)
	if err := p.check(t0, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.check(t0.Add(replyTimeout), 5); err != nil {
		t.Fatalf("failed at exactly the limit: %v", err)
	}
	if err := p.check(t0.Add(replyTimeout+time.Second), 6); err != nil {
		t.Fatalf("failed although the frontier moved: %v", err)
	}
	if err := p.check(t0.Add(2*replyTimeout+2*time.Second), 6); err == nil {
		t.Fatal("a frontier stuck past the limit passed")
	}
}
