package smr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
)

// SnapshotConfig parameterizes a replica's checkpoint policy.
type SnapshotConfig struct {
	// Interval checkpoints every Interval committed instances: instance
	// numbers are cluster-global, so every honest replica snapshots at the
	// same boundaries with identical state and identical digests.
	Interval uint64
	// KeepApplied bounds the state machine's duplicate-suppression table at
	// each boundary (snapshot.Pruner), so dedup memory stops growing with
	// history. 0 disables pruning.
	KeepApplied int
	// FullEvery makes every k-th checkpoint a full chain link, the rest
	// key deltas against their predecessor (default 4; 1 makes every
	// checkpoint full). It bounds both the chain a restore walks and the
	// deltas held in memory between full links. Replicas take their full
	// links at different boundaries (offset by replica id).
	FullEvery int
}

// ErrTailUnavailable reports that recovery needs log entries every live
// donor has already compacted away.
var ErrTailUnavailable = errors.New("smr: log tail compacted away at every donor")

// SnapshotManager maintains one replica's durable checkpoints. Every
// Interval committed instances it prunes the dedup table, takes the state
// machine's key delta (snapshot.DeltaSnapshotter) — the keys written since
// the previous checkpoint — persists it as a chain link, and truncates the
// replica's log and WAL below the checkpoint: the compaction that keeps a
// long-running deployment's memory bounded. That work is proportional to
// the keys written, not to the state. The full state is materialized
// (folded from the deltas) only when it is needed: for the full link every
// FullEvery-th checkpoint, and when Latest is asked for it (state
// transfer, recovery). Install is the inverse, applied on a recovering
// replica with a snapshot verified against b+1 peers.
//
// Checkpoint/MaybeSnapshot must be serialized with commits (they read the
// log length and state together); the commit paths — Cluster.commitDecision
// and CommitQueue.Deliver — already guarantee that. Latest may be called
// concurrently (it is the transport's snapshot provider).
type SnapshotManager struct {
	r       *Replica
	snapper snapshot.DeltaSnapshotter
	cfg     SnapshotConfig

	mu      sync.Mutex
	base    *snapshot.Snapshot     // newest materialized checkpoint
	digest  [32]byte               // Digest(base)
	pending []*snapshot.Checkpoint // key-delta links past base, oldest first
	tip     *snapshot.Checkpoint   // newest link; nil = the next link is full
	deltas  int                    // delta links since the newest full link
	taken   int
}

// NewSnapshotManager builds a manager over the replica. The replica's
// state machine must implement snapshot.DeltaSnapshotter and the interval
// must be positive.
func NewSnapshotManager(r *Replica, cfg SnapshotConfig) (*SnapshotManager, error) {
	snapper, ok := r.SM.(snapshot.DeltaSnapshotter)
	if !ok {
		return nil, fmt.Errorf("smr: state machine %T cannot snapshot", r.SM)
	}
	if cfg.Interval == 0 {
		return nil, errors.New("smr: snapshot interval must be positive")
	}
	if cfg.FullEvery < 1 {
		cfg.FullEvery = 4
	}
	return &SnapshotManager{r: r, snapper: snapper, cfg: cfg}, nil
}

// MaybeSnapshot checkpoints when the just-committed instance lands on an
// interval boundary. It reports whether a snapshot was taken.
func (m *SnapshotManager) MaybeSnapshot(instance uint64) bool {
	if instance == 0 || instance%m.cfg.Interval != 0 {
		return false
	}
	m.Checkpoint(instance)
	return true
}

// Checkpoint unconditionally checkpoints the replica at the given instance
// watermark: prune the dedup table, take the state delta, persist its
// chain link and compact the log below it. Every step is deterministic,
// so replicas checkpointing the same instance materialize identical
// states and digests.
func (m *SnapshotManager) Checkpoint(instance uint64) {
	start := time.Now()
	met := m.r.instruments()
	defer met.CheckpointNS.ObserveSince(start)
	m.mu.Lock()
	defer m.mu.Unlock()
	if instance <= m.lastLocked() {
		return
	}
	if m.cfg.KeepApplied > 0 {
		if p, ok := m.snapper.(snapshot.Pruner); ok {
			p.PruneApplied(m.cfg.KeepApplied)
		}
	}
	logIndex := uint64(m.r.Log.Len())
	d := m.snapper.SnapshotDelta()
	payload := snapshot.AppendKeyDelta(nil, d)
	var link *snapshot.Checkpoint
	switch {
	case !d.Full && m.base == nil:
		// The state was restored behind this manager's back: there is no
		// base to apply the delta to, so encode the state whole.
		m.base = &snapshot.Snapshot{LastInstance: instance, LogIndex: logIndex, State: m.snapper.SnapshotState()}
		m.pending = nil
		link, m.digest = snapshot.FullLink(m.base)
	case d.Full || m.tip == nil || m.deltas+1 >= m.cfg.FullEvery || m.fullTurn(instance):
		if d.Full {
			m.base, m.pending = nil, nil // the delta restates everything
		}
		m.foldLocked(met, &snapshot.Checkpoint{LastInstance: instance, LogIndex: logIndex, Payload: payload})
		link, m.digest = snapshot.FullLink(m.base)
	default:
		link = snapshot.KeyDeltaLink(m.tip, instance, logIndex, payload)
		m.pending = append(m.pending, link)
	}
	if link.Kind == snapshot.FullCheckpoint {
		m.deltas = 0
	} else {
		m.deltas++
	}
	m.tip = link
	m.taken++
	m.r.Log.TruncatePrefix(logIndex)
	m.persistLocked(link)
}

// fullTurn reports whether the checkpoint at instance is this replica's
// turn for a full link: every FullEvery-th boundary, offset by replica id.
// Boundaries are cluster-wide, so without the offset every replica would
// fold, hash and write its whole state at the same instance and their
// commit paths would stall together; staggered, a quorum keeps committing
// while one replica writes its full link. Which links are full is local to
// the replica: Latest's state and digest do not depend on it.
func (m *SnapshotManager) fullTurn(instance uint64) bool {
	return (instance/m.cfg.Interval+uint64(m.r.ID))%uint64(m.cfg.FullEvery) == 0
}

// lastLocked is the newest checkpoint's instance (0 = none). Callers hold
// m.mu.
func (m *SnapshotManager) lastLocked() uint64 {
	if n := len(m.pending); n > 0 {
		return m.pending[n-1].LastInstance
	}
	if m.base != nil {
		return m.base.LastInstance
	}
	return 0
}

// foldLocked materializes the newest checkpoint: the pending deltas, then
// next (if non-nil), merged into base in one pass. The digest is left to
// the caller, which either needs it anyway (FullLink) or computes it.
// Callers hold m.mu.
func (m *SnapshotManager) foldLocked(met Metrics, next *snapshot.Checkpoint) {
	links := m.pending
	if next != nil {
		links = append(links, next)
	}
	if len(links) == 0 {
		return
	}
	payloads := make([][]byte, len(links))
	for i, c := range links {
		payloads[i] = c.Payload
	}
	var baseState []byte
	if m.base != nil {
		baseState = m.base.State
	}
	state, err := snapshot.MergeKeyDeltas(baseState, payloads...)
	if err != nil {
		// The manager encoded every payload itself from the same state
		// machine: a merge failure is a bug, not an input error.
		panic(fmt.Sprintf("smr: folding checkpoint deltas: %v", err))
	}
	last := links[len(links)-1]
	m.base = &snapshot.Snapshot{LastInstance: last.LastInstance, LogIndex: last.LogIndex, State: state}
	m.pending = nil
	met.CheckpointFolds.Inc()
}

// persistLocked pushes a checkpoint link to the replica's durable backend
// (if any) and, once the link is stored, truncates the WAL beneath it —
// the decided instances it covers are now replayable from the chain
// instead. Storage failures degrade to in-memory checkpoints (reported,
// not fatal): a broken disk must not stop the compaction that keeps memory
// bounded. A failed save restarts the chain, so the next link is full.
// Callers hold m.mu.
func (m *SnapshotManager) persistLocked(link *snapshot.Checkpoint) {
	b := m.r.Backend()
	if b == nil {
		return
	}
	if err := b.SaveCheckpoint(link); err != nil {
		m.tip = nil
		m.r.reportStorageErr(fmt.Errorf("smr: persisting checkpoint %d: %w", link.LastInstance, err))
		return
	}
	if err := b.TruncateWAL(link.LastInstance); err != nil {
		m.r.reportStorageErr(fmt.Errorf("smr: truncating wal at %d: %w", link.LastInstance, err))
	}
}

// Latest returns the most recent checkpoint and its digest, folding any
// pending deltas into the full state first.
func (m *SnapshotManager) Latest() (*snapshot.Snapshot, [32]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) > 0 {
		m.foldLocked(m.r.instruments(), nil)
		m.digest = snapshot.Digest(m.base)
	}
	if m.base == nil {
		return nil, [32]byte{}, false
	}
	return m.base, m.digest, true
}

// Taken reports how many checkpoints this manager has produced (tests and
// metrics).
func (m *SnapshotManager) Taken() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.taken
}

// Install replaces the replica's state with a (verified) snapshot: the
// state machine is restored, the log restarts at the snapshot index, and
// the snapshot becomes this manager's latest and is persisted as a full
// link; the next checkpoint starts a new chain. Verification — b+1
// matching digests — is the caller's duty (transport.FetchVerifiedSnapshot
// or Cluster.Recover); Install trusts its argument.
func (m *SnapshotManager) Install(snap *snapshot.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.snapper.RestoreState(snap.State); err != nil {
		return fmt.Errorf("smr: installing snapshot: %w", err)
	}
	m.r.Log.Reset(snap.LogIndex)
	m.base = snap
	m.pending = nil
	var link *snapshot.Checkpoint
	link, m.digest = snapshot.FullLink(snap)
	m.persistLocked(link)
	// A local restore re-saves the stored checkpoint, which the backend
	// drops; its chain tip is then unknown here, so start a new chain.
	m.tip = nil
	return nil
}

// EnableSnapshots installs a snapshot manager on every replica. Every
// state machine must implement snapshot.Snapshotter. Must be called before
// instances run.
func (c *Cluster) EnableSnapshots(cfg SnapshotConfig) error {
	managers := make([]*SnapshotManager, len(c.replicas))
	for i, r := range c.replicas {
		m, err := NewSnapshotManager(r, cfg)
		if err != nil {
			return err
		}
		managers[i] = m
	}
	c.mu.Lock()
	c.managers = managers
	c.snapCfg = cfg
	c.mu.Unlock()
	return nil
}

// Manager returns replica p's snapshot manager (nil before
// EnableSnapshots).
func (c *Cluster) Manager(p model.PID) *SnapshotManager {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.managers == nil {
		return nil
	}
	return c.managers[p]
}

// Recover rejoins a crashed member: the simulated counterpart of the
// transport's crash-recovery state transfer. The recovering replica
// installs the newest snapshot whose digest at least b+1 live honest
// replicas agree on (a Byzantine minority cannot feed it forged state),
// replays the log tail above it from a live donor, and is then live again
// — from the next instance on it proposes and commits normally, and
// CheckConsistency holds it to the same standard as every other live
// member.
//
// Without snapshots enabled the replica catches up by full tail replay,
// which works only while donors retain their whole logs. Like
// RunInstance/Drain, Recover must be called from the scheduler goroutine,
// not concurrently with running instances.
func (c *Cluster) Recover(p model.PID) error {
	c.mu.Lock()
	if int(p) < 0 || int(p) >= c.params.N {
		c.mu.Unlock()
		return fmt.Errorf("smr: no member %d", p)
	}
	if _, byz := c.byzantine[p]; byz {
		c.mu.Unlock()
		return fmt.Errorf("smr: member %d is Byzantine, not crashed", p)
	}
	if !c.crashed[p] {
		c.mu.Unlock()
		return fmt.Errorf("smr: member %d is not crashed", p)
	}
	managers := c.managers
	need := c.params.B + 1
	c.mu.Unlock()

	rep := c.replicas[p]
	live := c.liveSet()

	// Verified snapshot: the newest checkpoint backed by b+1 matching
	// digests among live honest replicas.
	var chosen *snapshot.Snapshot
	if managers != nil {
		votes := make(map[[32]byte]int)
		snaps := make(map[[32]byte]*snapshot.Snapshot)
		for _, r := range c.replicas {
			if !live[r.ID] {
				continue
			}
			if s, d, ok := managers[r.ID].Latest(); ok {
				votes[d]++
				snaps[d] = s
			}
		}
		for d, n := range votes {
			if n < need {
				continue
			}
			if chosen == nil || snaps[d].LastInstance > chosen.LastInstance {
				chosen = snaps[d]
			}
		}
	}
	if chosen != nil && chosen.LogIndex > uint64(rep.Log.Len()) {
		if err := managers[p].Install(chosen); err != nil {
			return err
		}
	}

	// Log tail: replay everything the snapshot does not cover from any
	// live donor that still retains it.
	from := uint64(rep.Log.Len())
	var tail []model.Value
	found := false
	for _, donor := range c.replicas {
		if !live[donor.ID] || donor.ID == p {
			continue
		}
		if t, ok := donor.Log.Tail(from); ok {
			tail = t
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: member %d needs entries from %d", ErrTailUnavailable, p, from)
	}
	for _, entry := range tail {
		rep.Commit(entry)
	}

	c.mu.Lock()
	delete(c.crashed, p)
	c.mu.Unlock()
	return nil
}
