package storage

import (
	"fmt"
	"os"
	"sync"

	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/snapshot"
)

// DiskConfig parameterizes a Disk backend.
type DiskConfig struct {
	// Dir is this replica's data directory (created if missing). One
	// replica per directory.
	Dir string
	// Fsync makes appends and checkpoint writes durable against power
	// loss. Off, writes still reach the files (and survive a process
	// restart) but ride the OS page cache.
	Fsync bool
	// FsyncBatch amortizes fsync over that many WAL appends (default 1:
	// every append). Larger batches trade the last FsyncBatch-1 decisions
	// under power loss for an order of magnitude of append throughput.
	FsyncBatch int
	// KeepChains bounds the checkpoint history to the last k full-snapshot
	// chains (default 2).
	KeepChains int
	// Logf receives recovery notices, e.g. torn-tail truncations (nil =
	// silent).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the backend's instrument set (WAL
	// appends and bytes, fsync latency, compaction runs, checkpoint bytes
	// full-vs-delta), named under MetricsPrefix. Nil disables metrics.
	Metrics *obs.Registry
	// MetricsPrefix namespaces this backend's metrics (e.g. "g2." for a
	// per-group backend). Empty is fine for a single-backend process.
	MetricsPrefix string
}

// Disk is the durable Backend: a WAL file plus a checkpoint directory.
//
// WAL truncation is asynchronous: TruncateWAL applies the watermark
// logically (replay and the dedup filter observe it immediately) and a
// background compactor goroutine performs the physical rewrite, so the
// commit path never waits out a log rewrite. Close drains the compactor
// before releasing the files.
type Disk struct {
	cfg DiskConfig
	m   diskMetrics // resolved at OpenDisk; zero value = disabled

	mu     sync.Mutex
	wal    *wal
	snaps  *snapStore
	closed bool

	compacting  bool       // a rewrite is in flight
	compactErr  error      // last rewrite failure (pending watermark kept)
	compactIdle *sync.Cond // broadcast when the compactor goes idle
	compactHook func()     // test hook, called unlocked before each rewrite

	compactKick chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
	stopOnce    sync.Once
}

// OpenDisk opens (or initializes) a replica's data directory, recovering
// the WAL — validating every record's CRC and truncating a torn tail — and
// indexing the stored checkpoints.
func OpenDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("storage: DiskConfig.Dir is required")
	}
	if cfg.FsyncBatch < 1 {
		cfg.FsyncBatch = 1
	}
	if cfg.KeepChains < 1 {
		cfg.KeepChains = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating data dir: %w", err)
	}
	m := resolveDiskMetrics(cfg.Metrics, cfg.MetricsPrefix)
	w, err := openWAL(cfg.Dir, cfg.Fsync, cfg.FsyncBatch)
	if err != nil {
		return nil, err
	}
	w.m = m
	if w.tornBytes > 0 {
		cfg.Logf("storage: %s: discarded %d torn trailing bytes", cfg.Dir, w.tornBytes)
	}
	s, err := openSnapStore(cfg.Dir, cfg.Fsync, cfg.KeepChains)
	if err != nil {
		_ = w.close()
		return nil, err
	}
	s.m = m
	d := &Disk{
		cfg:         cfg,
		m:           m,
		wal:         w,
		snaps:       s,
		compactKick: make(chan struct{}, 1),
		compactStop: make(chan struct{}),
		compactDone: make(chan struct{}),
	}
	d.compactIdle = sync.NewCond(&d.mu)
	go d.compactLoop()
	return d, nil
}

// compactLoop is the background WAL compactor: it wakes on every enqueued
// truncation, rewrites the log, and drains any remaining work before
// exiting at Close.
func (d *Disk) compactLoop() {
	defer close(d.compactDone)
	for {
		select {
		case <-d.compactKick:
			d.drainCompaction()
		case <-d.compactStop:
			d.drainCompaction()
			return
		}
	}
}

// drainCompaction rewrites the WAL until no truncation is pending. Each
// rewrite scans the frozen log prefix without the Disk lock (appends
// proceed concurrently) and takes the lock only for the bounded tail-copy
// and file swap. A rewrite failure is logged and leaves the pending
// watermark in place — replay stays logically truncated — without
// retrying until the next checkpoint enqueues a fresh watermark.
func (d *Disk) drainCompaction() {
	for {
		d.mu.Lock()
		if d.closed || !d.wal.pendSet {
			d.compacting = false
			d.compactIdle.Broadcast()
			d.mu.Unlock()
			return
		}
		through, limit := d.wal.pendThrough, d.wal.pendOffset
		f := d.wal.f
		hook := d.compactHook
		d.compacting = true
		d.mu.Unlock()

		if hook != nil {
			hook()
		}
		tmp, tmpSize, err := compactScan(d.wal.path, f, through, limit)

		d.mu.Lock()
		if err == nil {
			err = d.wal.compactFinish(tmp, tmpSize, limit, through)
		}
		if err == nil {
			d.m.compactions.Inc()
		}
		d.compactErr = err
		if err != nil {
			d.cfg.Logf("storage: %s: wal compaction: %v", d.cfg.Dir, err)
			d.compacting = false
			d.compactIdle.Broadcast()
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
	}
}

// CompactWait blocks until no WAL compaction is pending or in flight (or
// until one fails) — the fence tests and metrics use to observe the
// physical log.
func (d *Disk) CompactWait() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.compacting || (d.wal.pendSet && d.compactErr == nil && !d.closed) {
		d.compactIdle.Wait()
	}
}

// AppendWAL implements Backend.
func (d *Disk) AppendWAL(instance uint64, value model.Value) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.wal.append(instance, value)
}

// ReplayWAL implements Backend. Records covered by a pending (not yet
// physically compacted) truncation are filtered out, so callers observe
// truncation immediately.
func (d *Disk) ReplayWAL(fn func(instance uint64, value model.Value) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.wal.replay(fn)
}

// TruncateWAL implements Backend. The truncation is applied logically and
// returns immediately; the physical rewrite runs on the compactor
// goroutine, so checkpointing never stalls the commit path behind a log
// rewrite.
func (d *Disk) TruncateWAL(through uint64) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	queued := d.wal.truncateEnqueue(through)
	d.mu.Unlock()
	if queued {
		select {
		case d.compactKick <- struct{}{}:
		default: // a wake-up is already pending; the drain loop coalesces
		}
	}
	return nil
}

// SaveCheckpoint implements Backend.
func (d *Disk) SaveCheckpoint(c *snapshot.Checkpoint) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.snaps.save(c)
}

// LoadSnapshot implements Backend.
func (d *Disk) LoadSnapshot() (*snapshot.Snapshot, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, ErrClosed
	}
	return d.snaps.load()
}

// Sync implements Backend.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.wal.sync()
}

// Close implements Backend. It drains the compactor first, so any pending
// truncation is physically applied before the files are released and a
// reopen never resurrects logically truncated records.
func (d *Disk) Close() error {
	d.stopOnce.Do(func() { close(d.compactStop) })
	<-d.compactDone
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.wal.close()
}

// WALInstances reports how many instances the WAL retains (tests, metrics).
func (d *Disk) WALInstances() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.wal.have)
}
