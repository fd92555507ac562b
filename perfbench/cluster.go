package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/node"
	"genconsensus/internal/obs"
)

// clusterShape is the cluster under test: kvnode's defaults with session
// clients and durable, fsynced storage. It is stamped on every result.
type clusterShape struct {
	N, B, F           int
	Pipeline          int
	Adaptive          bool
	MaxBatch          int
	SnapshotInterval  uint64
	AppliedKeep       int
	FullSnapshotEvery int
	Fsync             bool
	FsyncBatch        int
	ClientAuth        bool
	Shards            int
}

var shape = clusterShape{
	N: 4, B: 1, F: 0,
	Pipeline:          4,
	Adaptive:          true,
	MaxBatch:          128,
	SnapshotInterval:  1024,
	AppliedKeep:       1 << 16,
	FullSnapshotEvery: 4,
	Fsync:             true,
	FsyncBatch:        8,
	ClientAuth:        true,
	Shards:            1,
}

// cluster is one in-process loopback cluster built through node.New, the
// stack cmd/kvnode runs.
type cluster struct {
	dir     string
	nodes   []*node.Node
	stores  []*kv.Store
	live    []int // replicas still running
	stopped []bool
}

func startCluster(dir string) (*cluster, error) {
	cl := &cluster{dir: dir, nodes: make([]*node.Node, shape.N), stores: make([]*kv.Store, shape.N), stopped: make([]bool, shape.N)}
	peers := make(map[model.PID]string, shape.N)
	for i := 0; i < shape.N; i++ {
		store := kv.NewStore()
		nd, err := node.New(node.Config{
			ID: model.PID(i), N: shape.N, B: shape.B, F: shape.F,
			ListenAddr:        "127.0.0.1:0",
			ClientAddr:        "127.0.0.1:0",
			AuthSeed:          authSeed,
			MaxBatch:          shape.MaxBatch,
			Pipeline:          shape.Pipeline,
			Adaptive:          shape.Adaptive,
			Shards:            shape.Shards,
			SnapshotInterval:  shape.SnapshotInterval,
			AppliedKeep:       shape.AppliedKeep,
			DataDir:           filepath.Join(dir, fmt.Sprintf("r%d", i)),
			Fsync:             shape.Fsync,
			FsyncBatch:        shape.FsyncBatch,
			FullSnapshotEvery: shape.FullSnapshotEvery,
			ClientAuth:        shape.ClientAuth,
		}, store)
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.nodes[i] = nd
		cl.stores[i] = store
		peers[model.PID(i)] = nd.Addr()
	}
	for _, nd := range cl.nodes {
		nd.SetPeers(peers)
	}
	for i, nd := range cl.nodes {
		nd.Start()
		cl.live = append(cl.live, i)
	}
	return cl, nil
}

// stopReplica stops one replica for good (the fault the degraded workload
// injects).
func (cl *cluster) stopReplica(i int) {
	cl.nodes[i].Stop()
	cl.stopped[i] = true
	live := cl.live[:0]
	for _, r := range cl.live {
		if r != i {
			live = append(live, r)
		}
	}
	cl.live = live
}

// stop shuts every node down and removes the cluster's data.
func (cl *cluster) stop() {
	for i, nd := range cl.nodes {
		if nd != nil && !cl.stopped[i] {
			nd.Stop()
			cl.stopped[i] = true
		}
	}
	os.RemoveAll(cl.dir)
}

// liveStores are the live replicas' stores, in live order.
func (cl *cluster) liveStores() []seqApplier {
	out := make([]seqApplier, len(cl.live))
	for i, r := range cl.live {
		out[i] = cl.stores[r]
	}
	return out
}

func (cl *cluster) reg(i int) *obs.Registry { return cl.nodes[i].Metrics() }

// quorum is n−b: how many live replicas must apply a write before it
// counts as committed.
func quorum() int { return shape.N - shape.B }

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
