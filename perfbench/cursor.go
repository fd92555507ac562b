package main

import "sort"

// seqApplier is the per-replica view the cursor polls; *kv.Store has it.
type seqApplier interface {
	SeqApplied(client uint32, seq uint64) bool
}

// quorumCursor tracks one client's commit frontier: per live replica the
// highest seq below which every seq has applied there, and the frontier
// that need of those replicas have passed. A write counts as committed
// once need (= n−b) live replicas applied it. Applies may land out of seq
// order; the per-replica cursor only moves across a contiguous prefix, so
// a seq applied early is picked up when the gap below it closes.
type quorumCursor struct {
	client  uint32
	need    int
	stores  []seqApplier
	cur     []uint64
	scratch []uint64
}

func newQuorumCursor(client uint32, need int, stores []seqApplier) *quorumCursor {
	return &quorumCursor{
		client:  client,
		need:    need,
		stores:  stores,
		cur:     make([]uint64, len(stores)),
		scratch: make([]uint64, len(stores)),
	}
}

// advance moves every replica's cursor as far as it goes without probing
// beyond limit (the highest seq sent) and returns the quorum frontier:
// every seq at or below it is applied on at least need replicas.
func (q *quorumCursor) advance(limit uint64) uint64 {
	for r, s := range q.stores {
		for q.cur[r] < limit && s.SeqApplied(q.client, q.cur[r]+1) {
			q.cur[r]++
		}
	}
	return q.frontier()
}

// frontier is the need-th highest replica cursor.
func (q *quorumCursor) frontier() uint64 {
	if q.need <= 0 || q.need > len(q.cur) {
		return 0
	}
	copy(q.scratch, q.cur)
	sort.Slice(q.scratch, func(i, j int) bool { return q.scratch[i] > q.scratch[j] })
	return q.scratch[q.need-1]
}
