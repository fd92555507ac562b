package smr

import (
	"fmt"
	"testing"

	"genconsensus/internal/kv"
	"genconsensus/internal/obs"
	"genconsensus/internal/storage"
)

// BenchmarkCheckpoint times SnapshotManager.Checkpoint on an fsync'd Disk
// backend with 1k writes between checkpoints, on a 10k-key and a 1M-key
// store (legacy dedup table bounded at 4096 entries). After the initial
// full link, outside the timer, every checkpoint is a key delta, so ns/op
// is the commit-path cost of a delta checkpoint and link-bytes the encoded
// delta link it writes. Both should be flat in the store size; make
// bench-disk gates link-bytes (a count, independent of the host's speed).
func BenchmarkCheckpoint(b *testing.B) {
	for _, size := range []struct {
		name string
		keys int
	}{{"10k", 10_000}, {"1M", 1_000_000}} {
		b.Run("keys="+size.name, func(b *testing.B) {
			store := kv.NewStore()
			store.SetAppliedLimit(4096)
			for i := 0; i < size.keys; i++ {
				store.Apply(kv.Command(fmt.Sprintf("p-%08d", i), "SET",
					fmt.Sprintf("key-%07d", i), fmt.Sprintf("value-%010d", i)))
			}
			reg := obs.NewRegistry()
			d, err := storage.OpenDisk(storage.DiskConfig{Dir: b.TempDir(), Fsync: true, Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			r := NewReplica(0, store)
			r.SetBackend(d, func(err error) { b.Error(err) })
			mgr, err := NewSnapshotManager(r, SnapshotConfig{Interval: 1, FullEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			mgr.Checkpoint(1)
			w := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 1000; j++ {
					r.Commit(kv.Command(fmt.Sprintf("w-%08d", w), "SET",
						fmt.Sprintf("key-%07d", w*7%size.keys), fmt.Sprintf("write-%010d", w)))
					w++
				}
				b.StartTimer()
				mgr.Checkpoint(uint64(i + 2))
			}
			b.StopTimer()
			b.ReportMetric(float64(reg.CounterValue("storage.ckpt.delta_bytes"))/float64(b.N), "link-bytes")
		})
	}
}
