// Package storage is the durability substrate of the SMR stack: a
// write-ahead log of decided consensus instances plus a snapshot store,
// behind one Backend interface with two implementations — Memory (the
// default: everything dies with the process, exactly the pre-durability
// behaviour, and the simulator's stand-in for a disk image that survives a
// power cycle) and Disk (a CRC-framed, fsync-batched WAL plus atomic,
// digest-verified checkpoint chain files).
//
// The division of labour with the layers above:
//
//   - Decisions are appended write-ahead: the SMR layer calls AppendWAL the
//     moment an instance's decision is known — before the decided batch is
//     applied to the state machine — so a replica that loses power
//     mid-apply replays the decision instead of forgetting it. Appends are
//     idempotent per instance (decisions are final; re-delivery and replay
//     re-appends are dropped) and may arrive out of instance order
//     (pipelined instances decide out of order); replay preserves append
//     order and leaves reordering to the commit queue.
//
//   - Checkpoints truncate: when a snapshot manager checkpoints at instance
//     k it calls SaveCheckpoint with the checkpoint's chain link and, once
//     that returns without error, TruncateWAL(k), so the WAL only ever
//     holds the window between the newest durable checkpoint and the head.
//     Recovery is LoadSnapshot + ReplayWAL, in that order.
//
//   - The caller builds the chain (snapshot.FullLink, snapshot.KeyDeltaLink)
//     and the backend stores it: a full link starts a new chain, and a
//     delta link is accepted only when it extends the newest link this
//     backend stored since it was opened. A reopened backend therefore
//     takes a full link first, and a link that could never be walked at
//     load is refused at save, before the WAL beneath it is truncated.
//
//   - Verification is local: LoadSnapshot returns only digest-verified
//     checkpoints and ReplayWAL only CRC-clean records. Cross-replica
//     verification (b+1 matching digests against forged state) remains the
//     transfer layer's job — a replica's own disk is trusted the way its
//     own memory is, but bit rot and torn writes are not.
package storage

import (
	"errors"
	"sync"

	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
)

// Backend is one replica's durable storage: the write-ahead decision log
// and the checkpoint store. Implementations are safe for concurrent use.
type Backend interface {
	// AppendWAL durably records instance's decided value. Idempotent per
	// retained instance: re-appends of an instance still in the log are
	// dropped without error. Instances already truncated beneath a
	// checkpoint are forgotten — keeping them out of the WAL is the
	// caller's job (the commit-queue watermark never delivers below the
	// installed checkpoint).
	AppendWAL(instance uint64, value model.Value) error
	// ReplayWAL visits every retained record in append order (which may
	// not be instance order — see the package comment). A non-nil error
	// from fn aborts the replay and is returned.
	ReplayWAL(fn func(instance uint64, value model.Value) error) error
	// TruncateWAL drops every record with instance ≤ through — the records
	// a checkpoint at `through` covers. The drop is immediate in every
	// observable way (ReplayWAL, the append dedup filter) but the physical
	// reclamation may happen asynchronously: Disk rewrites the log on a
	// background compactor so the commit path never waits, and a crash
	// before the rewrite merely replays records the recovery path filters
	// against the checkpoint anyway.
	TruncateWAL(through uint64) error
	// SaveCheckpoint durably records one checkpoint chain link. Links at
	// or below the newest stored checkpoint are dropped without error. A
	// delta link that does not extend the newest link stored since open
	// (base instance and chain digest) is refused with ErrChainGap. The
	// backend may keep c.Payload; callers must not modify it afterwards.
	SaveCheckpoint(c *snapshot.Checkpoint) error
	// LoadSnapshot returns the newest verified checkpoint, materialized
	// from its chain, or ok=false when none is stored (or none survives
	// verification).
	LoadSnapshot() (snap *snapshot.Snapshot, ok bool, err error)
	// Sync flushes any batched writes to stable storage.
	Sync() error
	// Close syncs and releases the backend. The backend is unusable after.
	Close() error
}

// ErrClosed reports an operation on a closed backend.
var ErrClosed = errors.New("storage: backend closed")

// ErrChainGap rejects a delta link that does not extend the newest stored
// link.
var ErrChainGap = errors.New("storage: delta link does not extend the stored chain")

// chainTip is the newest stored link, the one a delta link must extend.
type chainTip struct {
	set      bool
	instance uint64
	chain    [32]byte
}

// admits reports whether c may be stored after the tip: a full link always
// may, a delta link only when it extends the tip.
func (t *chainTip) admits(c *snapshot.Checkpoint) bool {
	if c.Kind == snapshot.FullCheckpoint {
		return true
	}
	return t.set && c.BaseInstance == t.instance &&
		snapshot.KeyDeltaLink(&snapshot.Checkpoint{LastInstance: t.instance, Chain: t.chain},
			c.LastInstance, c.LogIndex, c.Payload).Chain == c.Chain
}

// advance makes c the tip.
func (t *chainTip) advance(c *snapshot.Checkpoint) {
	*t = chainTip{set: true, instance: c.LastInstance, chain: c.Chain}
}

// Memory is the in-memory Backend: nothing is durable across a process
// exit, but the value survives as long as the Memory itself does — the
// simulator hands the same Memory to a replica rebuilt after a simulated
// power cycle, making it the sim's disk image.
type Memory struct {
	mu      sync.Mutex
	records []memRecord
	have    map[uint64]struct{}
	links   []*snapshot.Checkpoint // the newest chain, full link first
	tip     chainTip
	closed  bool
}

type memRecord struct {
	instance uint64
	value    model.Value
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{have: make(map[uint64]struct{})}
}

// AppendWAL implements Backend.
func (m *Memory) AppendWAL(instance uint64, value model.Value) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, dup := m.have[instance]; dup {
		return nil
	}
	m.have[instance] = struct{}{}
	m.records = append(m.records, memRecord{instance, value})
	return nil
}

// ReplayWAL implements Backend.
func (m *Memory) ReplayWAL(fn func(instance uint64, value model.Value) error) error {
	m.mu.Lock()
	records := append([]memRecord(nil), m.records...)
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	for _, r := range records {
		if err := fn(r.instance, r.value); err != nil {
			return err
		}
	}
	return nil
}

// TruncateWAL implements Backend.
func (m *Memory) TruncateWAL(through uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	kept := m.records[:0]
	for _, r := range m.records {
		if r.instance > through {
			kept = append(kept, r)
		} else {
			delete(m.have, r.instance)
		}
	}
	// Fresh backing array so dropped values are actually released.
	m.records = append([]memRecord(nil), kept...)
	return nil
}

// SaveCheckpoint implements Backend. Memory keeps only the newest chain.
func (m *Memory) SaveCheckpoint(c *snapshot.Checkpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if n := len(m.links); n > 0 && c.LastInstance <= m.links[n-1].LastInstance {
		return nil
	}
	if !m.tip.admits(c) {
		return ErrChainGap
	}
	if c.Kind == snapshot.FullCheckpoint {
		m.links = m.links[:0]
	}
	m.links = append(m.links, c)
	m.tip.advance(c)
	return nil
}

// LoadSnapshot implements Backend.
func (m *Memory) LoadSnapshot() (*snapshot.Snapshot, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	var dec snapshot.IncrementalDecoder
	var snap *snapshot.Snapshot
	for _, c := range m.links {
		s, err := dec.Apply(c)
		if err != nil {
			return nil, false, err
		}
		snap = s
	}
	return snap, snap != nil, nil
}

// Sync implements Backend (a no-op in memory).
func (m *Memory) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Backend. A Memory is reusable as a disk image after
// Close only through Reopen (the simulated power cycle).
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Reopen revives a closed Memory with its contents intact: the simulator's
// power cycle closes every replica's backend with the replica and reopens
// the same object for the restarted one, like a disk remounted at boot.
func (m *Memory) Reopen() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = false
	m.tip = chainTip{} // like a reopened Disk, the next chain starts full
}

// WALLen reports how many records the WAL retains (tests and metrics).
func (m *Memory) WALLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}
