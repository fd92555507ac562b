package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// commit is the source revision the run was built from, passed in by
// run.sh ("unknown" outside a git checkout).
var commit = "unknown"

// cpuModel names the host CPU (Linux /proc/cpuinfo; "unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stamp is the run's report line: host shape, inputs and cluster config,
// plus what explains the numbers (stalls and catch-ups, sample counts, the
// percentiles those counts support, failures by reply).
func (b *bench) stamp(setups []float64, commitLat, reads []sample, failures map[string]int, lay *layers) map[string]any {
	interval := b.t1.Sub(b.t0)
	p99 := func(xs []float64) float64 { return quantile(xs, 0.99) }
	commitP99, commitLeast := perWindow(commitLat, interval, p99)
	readP99, readLeast := perWindow(reads, interval, p99)
	stalls, catchups := lay.stalls()
	attempted := b.attempted.Load()
	b.mu.Lock()
	failed := b.failed
	b.mu.Unlock()
	rep := map[string]any{
		"report": "perfbench",
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"cpu":        cpuModel(),
			"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		},
		"commit":   commit,
		"workload": b.workload,
		"seed":     b.seed,
		"seconds":  b.seconds,
		"traced":   b.tr != nil,
		"cluster":  shape,
		"load": map[string]any{
			"preload_keys":    preloadKeys,
			"value_bytes":     valueBytes,
			"seq_window":      seqWindow,
			"warmup_s":        warmup.Seconds(),
			"open_loop_per_s": b.shape.openRate,
			"reads_per_conn":  b.shape.readsPerConn,
			"probe_every":     b.shape.probeEvery,
			"live_replicas":   len(b.cl.live),
		},
		"setup_s_each":          setups,
		"node.stalls":           stalls,
		"node.catchups":         catchups,
		"windows":               windows,
		"commit_samples":        len(commitLat),
		"commit_window_least":   commitLeast,
		"commit_tail_supported": highestSupported(commitLeast, 0.5, 0.9, 0.99, 0.999),
		"read_samples":          len(reads),
		"read_window_least":     readLeast,
		"read_tail_supported":   highestSupported(readLeast, 0.5, 0.9, 0.99, 0.999),
		"commit_p99_by_window":  commitP99,
		"read_p99_by_window":    readP99,
		"op_fail_ratio":         ratio(float64(failed), float64(attempted)),
		"failures":              failures,
	}
	if b.tr != nil {
		path := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("trace-%s-seed%d.jsonl.gz", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			rep["trace_error"] = err.Error()
		} else {
			rep["trace_file"] = path
		}
		self := selfTimes(b.tr.spans)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		ordered := make([]map[string]any, 0, len(names))
		for _, n := range names {
			s := self[n]
			ordered = append(ordered, map[string]any{"span": n, "count": s.Count, "total_ms": s.TotalM, "self_ms": s.SelfMS})
		}
		rep["self_time"] = ordered
		rep["spans"] = len(b.tr.spans)
	}
	return rep
}
