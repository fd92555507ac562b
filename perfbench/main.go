// Command perfbench is the repository's end-to-end benchmark. For one
// workload it stands up an in-process n=4 cluster through node.New (kvnode
// defaults, session clients, fsynced storage), preloads a 100k-key working
// set through consensus, drives the workload over the real client TCP
// protocol for a fixed interval, checks every answer and prints the
// end-to-end metrics. With -trace 1 it instead records spans around every
// client call and replays the run's own inputs through each layer's public
// functions, and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload write-paced --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// carrying the gated end-to-end metrics (or, traced, the per-layer ones).
// The exit code is non-zero when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var workloads = []string{"write-paced", "read-mostly", "write-heavy", "write-saturate", "write-degraded"}

// setupRuns is how many times a run sets up a fresh cluster; setup_s is
// the median, and the last cluster carries the workload.
const setupRuns = 3

// gated are the end-to-end metrics on the result line (BENCHMARK.json's
// end_to_end). The others vary more between runs on a shared 2-core host
// than a 25% bound allows; they are measured and printed all the same.
var gated = map[string]bool{
	"setup_s":             true,
	"write_ops_per_s":     true,
	"write_commit_p99_ms": true,
	"read_p50_ms":         true,
	"heap_bytes_per_key":  true,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: write-paced, read-mostly, write-heavy, write-saturate or write-degraded")
		seed     = flag.Int64("seed", 1, "workload seed: derives every key, value and read")
		seconds  = flag.Int("seconds", 10, "length of the measured interval")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.StringVar(&commit, "commit", commit, "source revision to stamp on the result")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds ≥ 1 and --trace 0|1\n", workloads)
		os.Exit(2)
	}
	// Cluster data and traces stay under the checkout's .bench_build.
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{workload: *workload, shape: shapes[*workload], seed: *seed, seconds: *seconds, dir: dir,
		g: newGen(*seed, preloadKeys)}
	if *traceOn == 1 {
		b.tr = newTracer()
	}
	res, report, err := b.run()
	os.RemoveAll(dir)
	if report != nil {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if res == nil {
		os.Exit(1)
	}
	if u, ok := report["ungated_metrics"].(map[string]metric); ok {
		printTable("report only: ", u)
	}
	printTable("", res.Metrics)
	fmt.Printf("%-36s %14d\n%-36s %14d\n", "attempted", res.Attempted, "failed", res.Failed)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printTable prints metrics by name with their unit, one per line.
func printTable(prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s%-36s %14.4f %s\n", prefix, n, ms[n].Value, ms[n].Unit)
	}
}

// run sets up, drives the workload, checks outputs and computes the
// metrics. The report is the run's stamp (host, inputs, cluster, fault and
// stall counts), printed before the result line.
func (b *bench) run() (*result, map[string]any, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		cl, d, err := b.setup(b.setupDir(i))
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			cl.stop()
		}
	}
	cl := b.cl
	defer cl.stop()
	if b.shape.stopVictim {
		cl.stopReplica(victim)
	}
	b.keyOf = b.g.uniformKey
	if b.shape.openRate > 0 {
		b.keyOf = b.g.permKey
	}

	var sets []*connSet
	defer func() {
		for _, cs := range sets {
			cs.close()
		}
	}()
	dial := func(client uint32, readBack bool) (*connSet, error) {
		cs, err := b.dial(client, readBack)
		if err == nil {
			sets = append(sets, cs)
		}
		return cs, err
	}
	writers, err := dial(writerClient, true)
	if err != nil {
		return nil, nil, err
	}
	if b.tr != nil {
		c := writers.conns[0]
		c.capture = &tagCapture{key: c.key}
		b.tagged = c.capture
	}
	anon, err := dial(0, false)
	if err != nil {
		return nil, nil, err
	}
	wcur := newQuorumCursor(writerClient, quorum(), cl.liveStores())

	lay := &layers{b: b}
	start := time.Now()
	b.t0 = start.Add(warmup)
	b.t1 = b.t0.Add(time.Duration(b.seconds) * time.Second)
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		b.sampleLoop(stopSampler)
	}()

	// Two load-generating goroutines: the writer and the reader.
	errs := make(chan error, 2)
	var wSent uint64
	go func() {
		var err error
		if b.shape.openRate > 0 {
			wSent, err = b.openLoop(writers, wcur, start)
		} else {
			wSent, err = b.writeLoop(writers, wcur, b.keyOf, 0, b.t1, &b.writes, b.shape.probeEvery)
		}
		errs <- err
	}()
	go func() { errs <- b.readLoop(anon) }()
	lay.open(b.t0)
	lay.close(b.t1)
	var loadErr error
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil && loadErr == nil {
			loadErr = err
			b.abort(err)
		}
	}
	close(stopSampler)
	<-samplerDone

	// Drain: every write applied on every live replica, every reply in.
	if loadErr == nil {
		all := newQuorumCursor(writerClient, len(cl.live), cl.liveStores())
		if !waitFor(drainTimeout, func() bool {
			n := 0
			for _, cs := range sets {
				n += cs.outstanding()
			}
			return all.advance(wSent) == wSent && n == 0
		}) {
			b.abort(fmt.Errorf("writes not applied on every live replica within %v after the interval", drainTimeout))
		}
	}
	for _, cs := range sets {
		cs.close()
	}
	sets = nil

	// Convergence: all live replicas hold byte-identical state.
	if b.err() == nil {
		ref := cl.stores[cl.live[0]].SnapshotState()
		for _, r := range cl.live[1:] {
			if string(cl.stores[r].SnapshotState()) != string(ref) {
				b.abort(fmt.Errorf("replica %d state differs from replica %d after quiescence", r, cl.live[0]))
			}
		}
	}

	res := &result{Metrics: map[string]metric{}}
	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	wc, wd := b.writes.committed()
	m["write_ops_per_s"] = metric{ratio(float64(wc), wd.Seconds()), "1/s"}
	b.mu.Lock()
	commitLat := append([]sample(nil), b.commitMS...)
	reads := append([]sample(nil), b.readMS...)
	failures := b.failures
	res.Failed = int64(b.failed)
	b.mu.Unlock()
	interval := b.t1.Sub(b.t0)
	q := func(p float64) func([]float64) float64 {
		return func(xs []float64) float64 { return quantile(xs, p) }
	}
	perSec := func(xs []float64) float64 { return float64(len(xs)) / (interval / windows).Seconds() }
	win := func(xs []sample, stat func([]float64) float64) float64 {
		v, _ := windowStat(xs, interval, stat)
		return v
	}
	m["write_commit_p50_ms"] = metric{win(commitLat, q(0.5)), "ms"}
	m["write_commit_p99_ms"] = metric{win(commitLat, q(0.99)), "ms"}
	m["read_ops_per_s"] = metric{win(reads, perSec), "1/s"}
	m["read_p50_ms"] = metric{win(reads, q(0.5)), "ms"}
	m["read_p99_ms"] = metric{win(reads, q(0.99)), "ms"}

	// Live heap: the median over the interval of what the last GC found
	// live, so the figure does not depend on where the run ends relative
	// to the checkpoint cycle (the log tail and decision cache grow and
	// shrink with it).
	keys := cl.stores[cl.live[0]].Len()
	m["heap_bytes_per_key"] = metric{median(b.sample.liveHeap) / float64(keys*len(cl.live)), "B"}
	res.Attempted = b.attempted.Load()

	report := b.stamp(setups, commitLat, reads, failures, lay)
	if b.tr != nil {
		// A traced run reports the per-layer metrics, plus its own
		// end-to-end numbers under traced.* — the difference from the
		// untraced runs is the tracing overhead.
		traced := res.Metrics
		res.Metrics = lay.finish()
		for k, v := range traced {
			res.Metrics["traced."+k] = v
		}
	} else {
		// Only the metrics steady enough to gate go on the result line;
		// the rest are printed in the table and the report.
		ungated := map[string]metric{}
		for k, v := range res.Metrics {
			if !gated[k] {
				ungated[k] = v
				delete(res.Metrics, k)
			}
		}
		report["ungated_metrics"] = ungated
	}
	fatal := b.err()
	res.Correct = fatal == nil && res.Attempted > 0
	return res, report, fatal
}
