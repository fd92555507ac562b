package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
)

// backends runs a subtest against both Backend implementations. reopen
// simulates a power cycle: the process memory is gone, the medium persists.
func backends(t *testing.T, run func(t *testing.T, open func() Backend)) {
	t.Run("memory", func(t *testing.T) {
		mem := NewMemory()
		run(t, func() Backend {
			mem.Reopen()
			return mem
		})
	})
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		run(t, func() Backend {
			d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			return d
		})
	})
}

func replayAll(t *testing.T, b Backend) []memRecord {
	t.Helper()
	var out []memRecord
	if err := b.ReplayWAL(func(instance uint64, value model.Value) error {
		out = append(out, memRecord{instance, value})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBackendWALRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, open func() Backend) {
		b := open()
		// Out-of-order appends (pipelined decisions) and a duplicate.
		appends := []memRecord{
			{1, "one"}, {3, "three"}, {2, "two"}, {3, "three-again"}, {4, "four"},
		}
		for _, r := range appends {
			if err := b.AppendWAL(r.instance, r.value); err != nil {
				t.Fatal(err)
			}
		}
		want := []memRecord{{1, "one"}, {3, "three"}, {2, "two"}, {4, "four"}}
		check := func(got []memRecord) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d: %v", len(got), len(want), got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		}
		check(replayAll(t, b))
		// Power cycle: the records survive reopen, in append order.
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		b = open()
		check(replayAll(t, b))
		// The duplicate filter survives reopen too.
		if err := b.AppendWAL(2, "two-again"); err != nil {
			t.Fatal(err)
		}
		check(replayAll(t, b))
	})
}

func TestBackendWALTruncate(t *testing.T) {
	backends(t, func(t *testing.T, open func() Backend) {
		b := open()
		for i := uint64(1); i <= 10; i++ {
			if err := b.AppendWAL(i, model.Value(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.TruncateWAL(7); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, b)
		if len(got) != 3 || got[0].instance != 8 || got[2].instance != 10 {
			t.Fatalf("post-truncate replay: %v", got)
		}
		// A truncated instance may legitimately be re-appended only if it
		// is re-decided; the idempotence filter forgets truncated records.
		if err := b.AppendWAL(5, "re-decided"); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, b); len(got) != 4 {
			t.Fatalf("re-append after truncate: %v", got)
		}
		b.Close()
		b = open()
		if got := replayAll(t, b); len(got) != 4 {
			t.Fatalf("truncate did not survive reopen: %v", got)
		}
	})
}

// kvChain builds the checkpoint links a snapshot manager would write for
// n checkpoints at instances step, 2·step, …: every fullEvery-th a full
// link, key deltas in between, each after a few writes to a kv store of
// `keys` keys. It returns the links and the state each one stands for.
func kvChain(t *testing.T, n, fullEvery, keys int, step uint64) ([]*snapshot.Checkpoint, [][]byte) {
	t.Helper()
	store := kv.NewStore()
	for i := 0; i < keys; i++ {
		store.Apply(kv.Command(fmt.Sprintf("seed-%d", i), "SET", fmt.Sprintf("key-%05d", i), strings.Repeat("v", 32)))
	}
	var links []*snapshot.Checkpoint
	var states [][]byte
	for c := 0; c < n; c++ {
		store.Apply(kv.Command(fmt.Sprintf("w-%d", c), "SET", fmt.Sprintf("key-%05d", c*7%keys), fmt.Sprintf("state-%d", c)))
		store.Apply(kv.Command(fmt.Sprintf("d-%d", c), "DEL", fmt.Sprintf("key-%05d", c*11%keys), ""))
		instance := uint64(c+1) * step
		d := store.SnapshotDelta()
		var link *snapshot.Checkpoint
		if c%fullEvery == 0 {
			link, _ = snapshot.FullLink(&snapshot.Snapshot{LastInstance: instance, LogIndex: instance * 10, State: store.SnapshotState()})
		} else {
			link = snapshot.KeyDeltaLink(links[c-1], instance, instance*10, snapshot.AppendKeyDelta(nil, d))
		}
		links = append(links, link)
		states = append(states, store.SnapshotState())
	}
	return links, states
}

func TestBackendSnapshotRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, open func() Backend) {
		b := open()
		if _, ok, err := b.LoadSnapshot(); err != nil || ok {
			t.Fatalf("empty store: ok=%v err=%v", ok, err)
		}
		links, states := kvChain(t, 9, 4, 64, 10)
		for _, c := range links {
			if err := b.SaveCheckpoint(c); err != nil {
				t.Fatal(err)
			}
		}
		// Stale saves are dropped.
		stale, _ := snapshot.FullLink(&snapshot.Snapshot{LastInstance: 5, State: []byte("stale")})
		if err := b.SaveCheckpoint(stale); err != nil {
			t.Fatal(err)
		}
		check := func(b Backend) {
			t.Helper()
			snap, ok, err := b.LoadSnapshot()
			if err != nil || !ok {
				t.Fatalf("load: ok=%v err=%v", ok, err)
			}
			if snap.LastInstance != 90 || snap.LogIndex != 900 {
				t.Fatalf("loaded snapshot at %d/%d, want 90/900", snap.LastInstance, snap.LogIndex)
			}
			if string(snap.State) != string(states[8]) {
				t.Fatal("loaded snapshot carries the wrong state")
			}
		}
		check(b)
		b.Close()
		b = open()
		check(b)
		// A reopened backend starts a new chain: a delta extending the
		// pre-reopen tip is refused, a full link is taken.
		more, _ := kvChain(t, 11, 4, 64, 10)
		if err := b.SaveCheckpoint(more[9]); !errors.Is(err, ErrChainGap) {
			t.Fatalf("delta after reopen: %v, want ErrChainGap", err)
		}
		full, _ := snapshot.FullLink(&snapshot.Snapshot{LastInstance: 100, LogIndex: 1000, State: states[8]})
		if err := b.SaveCheckpoint(full); err != nil {
			t.Fatal(err)
		}
		if snap, ok, err := b.LoadSnapshot(); err != nil || !ok || snap.LastInstance != 100 {
			t.Fatalf("load after new chain: snap=%+v ok=%v err=%v", snap, ok, err)
		}
	})
}

func TestDiskSnapshotIncrementalAndPruned(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(DiskConfig{Dir: dir, KeepChains: 2})
	if err != nil {
		t.Fatal(err)
	}
	links, states := kvChain(t, 9, 3, 256, 1)
	for _, c := range links {
		if err := d.SaveCheckpoint(c); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fulls, deltas := 0, 0
	var deltaBytes, fullBytes int64
	for _, e := range entries {
		info, _ := e.Info()
		switch {
		case strings.HasSuffix(e.Name(), ckptFullSufx):
			fulls++
			fullBytes = info.Size()
		case strings.HasSuffix(e.Name(), ckptDeltaSufx):
			deltas++
			deltaBytes = info.Size()
		}
	}
	// Checkpoints 1..9 at FullEvery=3: fulls at 1,4,7 — KeepChains=2 keeps
	// the chains of 4 and 7, pruning everything below 4.
	if fulls != 2 || deltas != 4 {
		t.Fatalf("have %d full / %d delta checkpoints, want 2/4", fulls, deltas)
	}
	if deltaBytes >= fullBytes/4 {
		t.Fatalf("delta file %d bytes vs full %d: not incremental", deltaBytes, fullBytes)
	}
	snap, ok, err := d.LoadSnapshot()
	if err != nil || !ok || snap.LastInstance != 9 {
		t.Fatalf("load: snap=%+v ok=%v err=%v", snap, ok, err)
	}
	if string(snap.State) != string(states[8]) {
		t.Fatal("reconstructed state diverged")
	}
	d.Close()

	// A rotted newest chain falls back to the older one.
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), "-delta") && strings.Contains(e.Name(), "00000009") {
			path := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(path)
			data[len(data)/2] ^= 0x40
			os.WriteFile(path, data, 0o644)
		}
	}
	d, err = OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	snap, ok, err = d.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("load after rot: ok=%v err=%v", ok, err)
	}
	if snap.LastInstance != 8 {
		t.Fatalf("load after rot picked instance %d, want 8 (the last clean link)", snap.LastInstance)
	}
	if string(snap.State) != string(states[7]) {
		t.Fatal("fallback state diverged")
	}
}

// TestDiskLoadsLegacyChain loads a data directory written before key
// deltas existed (testdata/legacy-chain: a full link and two byte-diff
// delta links under the state-digest chain rule). The next save starts a
// new chain, and pruning removes the old links once KeepChains newer
// chains exist.
func TestDiskLoadsLegacyChain(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "legacy-chain")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The commands the legacy chain was written from.
	store := kv.NewStore()
	for c := 1; c <= 3; c++ {
		for i := 0; i < 6; i++ {
			store.Apply(kv.Command(fmt.Sprintf("r%d-%d", c, i), "SET", fmt.Sprintf("k%d", (c*3+i)%8), fmt.Sprintf("v%d-%d", c, i)))
		}
	}
	store.Apply(kv.Command("r3-del", "DEL", "k1", ""))

	d, err := OpenDisk(DiskConfig{Dir: dir, KeepChains: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	snap, ok, err := d.LoadSnapshot()
	if err != nil || !ok || snap.LastInstance != 30 || snap.LogIndex != 21 {
		t.Fatalf("legacy load: snap=%+v ok=%v err=%v", snap, ok, err)
	}
	if string(snap.State) != string(store.SnapshotState()) {
		t.Fatal("legacy chain reconstructed the wrong state")
	}

	// New chains after the legacy one: 40 (full), 50 (key delta), 60 (full).
	restored := kv.NewStore()
	if err := restored.RestoreState(snap.State); err != nil {
		t.Fatal(err)
	}
	legacy := &snapshot.Checkpoint{LastInstance: 30}
	delta := snapshot.KeyDeltaLink(legacy, 40, 28, snapshot.AppendKeyDelta(nil, restored.SnapshotDelta()))
	if err := d.SaveCheckpoint(delta); !errors.Is(err, ErrChainGap) {
		t.Fatalf("delta extending the legacy chain: %v, want ErrChainGap", err)
	}
	full, _ := snapshot.FullLink(&snapshot.Snapshot{LastInstance: 40, LogIndex: 28, State: restored.SnapshotState()})
	restored.Apply(kv.Command("r4", "SET", "k9", "v4"))
	next := snapshot.KeyDeltaLink(full, 50, 29, snapshot.AppendKeyDelta(nil, restored.SnapshotDelta()))
	last, _ := snapshot.FullLink(&snapshot.Snapshot{LastInstance: 60, LogIndex: 29, State: restored.SnapshotState()})
	for _, c := range []*snapshot.Checkpoint{full, next} {
		if err := d.SaveCheckpoint(c); err != nil {
			t.Fatal(err)
		}
	}
	if snap, ok, err := d.LoadSnapshot(); err != nil || !ok || snap.LastInstance != 50 ||
		string(snap.State) != string(restored.SnapshotState()) {
		t.Fatalf("load of the new chain: snap=%+v ok=%v err=%v", snap, ok, err)
	}
	if err := d.SaveCheckpoint(last); err != nil {
		t.Fatal(err)
	}
	left, err := d.snaps.list()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if f.instance <= 30 {
			t.Fatalf("legacy link %s survived pruning", f.name)
		}
	}
}

// TestDiskWALCorruptionCorpus is the torn/corrupt-tail satellite: replay
// must stop cleanly at the first bad record — truncating it and everything
// after — and keep the clean prefix, for each corruption shape.
func TestDiskWALCorruptionCorpus(t *testing.T) {
	const records = 8
	build := func(t *testing.T) (string, int64) {
		dir := t.TempDir()
		d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= records; i++ {
			if err := d.AppendWAL(i, model.Value(fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", 100)))); err != nil {
				t.Fatal(err)
			}
		}
		d.Close()
		info, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		return dir, info.Size()
	}

	// Each corruption returns the minimum number of records that must
	// survive (the prefix before the damage).
	recordSize := func(size int64) int64 { return (size - int64(len(walHeader))) / records }
	corpus := map[string]func(t *testing.T, dir string, size int64) int{
		"bit flip in final record": func(t *testing.T, dir string, size int64) int {
			flipAt(t, filepath.Join(dir, walName), size-10)
			return records - 1
		},
		"bit flip mid-log": func(t *testing.T, dir string, size int64) int {
			// Damage inside record 4: records 1-3 survive, 4.. are gone
			// (replay cannot resynchronize past an untrusted frame).
			flipAt(t, filepath.Join(dir, walName), int64(len(walHeader))+3*recordSize(size)+20)
			return 3
		},
		"short read (torn tail)": func(t *testing.T, dir string, size int64) int {
			if err := os.Truncate(filepath.Join(dir, walName), size-25); err != nil {
				t.Fatal(err)
			}
			return records - 1
		},
		"torn frame header": func(t *testing.T, dir string, size int64) int {
			if err := os.Truncate(filepath.Join(dir, walName), int64(len(walHeader))+(records-1)*recordSize(size)+5); err != nil {
				t.Fatal(err)
			}
			return records - 1
		},
		"garbage length prefix": func(t *testing.T, dir string, size int64) int {
			f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, int64(len(walHeader))+7*recordSize(size)); err != nil {
				t.Fatal(err)
			}
			return records - 1
		},
		"duplicate instance id": func(t *testing.T, dir string, size int64) int {
			// A duplicate appended behind the idempotence filter's back
			// (e.g. a crash between two truncate attempts): replay surfaces
			// both, the consumer keeps the first.
			src, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			rec := src[int64(len(walHeader)) : int64(len(walHeader))+recordSize(size)]
			f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(rec); err != nil {
				t.Fatal(err)
			}
			return records // all survive; the duplicate is extra
		},
	}

	for name, corrupt := range corpus {
		t.Run(name, func(t *testing.T) {
			dir, size := build(t)
			minSurvive := corrupt(t, dir, size)
			d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true, Logf: t.Logf})
			if err != nil {
				t.Fatalf("open after corruption: %v", err)
			}
			defer d.Close()
			seen := make(map[uint64]model.Value)
			if err := d.ReplayWAL(func(instance uint64, value model.Value) error {
				if prev, dup := seen[instance]; dup {
					if prev != value {
						t.Fatalf("instance %d replayed twice with different values", instance)
					}
					return nil
				}
				seen[instance] = value
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(seen) < minSurvive {
				t.Fatalf("%d records survived, want at least %d", len(seen), minSurvive)
			}
			// The surviving prefix is intact: instances 1..minSurvive with
			// their original payloads.
			for i := uint64(1); i <= uint64(minSurvive); i++ {
				want := model.Value(fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", 100)))
				if seen[i] != want {
					t.Fatalf("instance %d payload corrupted after recovery", i)
				}
			}
			// The log accepts appends again after recovery, and they
			// survive another cycle.
			if err := d.AppendWAL(100, "after-recovery"); err != nil {
				t.Fatal(err)
			}
			d.Close()
			d2, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			found := false
			if err := d2.ReplayWAL(func(instance uint64, value model.Value) error {
				if instance == 100 && value == "after-recovery" {
					found = true
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatal("post-recovery append lost")
			}
		})
	}
}

func flipAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestDiskFsyncBatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: true, FsyncBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := d.AppendWAL(i, "batched"); err != nil {
			t.Fatal(err)
		}
	}
	// Sync flushes the unsynced remainder (100 % 64) without error.
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d, err = OpenDisk(DiskConfig{Dir: dir, Fsync: true, FsyncBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if n := d.WALInstances(); n != 100 {
		t.Fatalf("recovered %d instances, want 100", n)
	}
}

func TestClosedBackendErrors(t *testing.T) {
	backends(t, func(t *testing.T, open func() Backend) {
		b := open()
		b.Close()
		if err := b.AppendWAL(1, "x"); err != ErrClosed {
			t.Fatalf("append on closed backend: %v", err)
		}
		if _, _, err := b.LoadSnapshot(); err != ErrClosed {
			t.Fatalf("load on closed backend: %v", err)
		}
	})
}
