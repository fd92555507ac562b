// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON summary (written to stdout). The raw text remains the
// benchstat-compatible artifact; the JSON is for dashboards and CI
// annotations that should not re-parse the text format:
//
//	go test -bench=SMRPipelined -run='^$' . | tee BENCH_pipeline.txt | go run ./cmd/benchjson > BENCH_pipeline.json
//
// Every benchmark result line becomes one record holding the iteration
// count and every reported metric (ns/op, B/op, allocs/op and custom
// b.ReportMetric units like cmds/sec). Header lines (goos, goarch, pkg,
// cpu) become top-level fields, and so does the host shape: nproc (this
// process's CPU count — run it on the host that ran the benchmarks) and
// the GOMAXPROCS the benchmarks ran with (their -N name suffix).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole run.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	report := Report{NProc: runtime.NumCPU(), GOMAXPROCS: 1, Benchmarks: []Benchmark{}}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			report.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			report.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if b, procs, ok := parseLine(line); ok {
			report.Benchmarks = append(report.Benchmarks, b)
			report.GOMAXPROCS = procs
		}
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseLine decodes one "BenchmarkX-8  12  34 ns/op  5 B/op ..." line:
// a benchmark name, an iteration count, then (value, unit) pairs. procs is
// the name's GOMAXPROCS suffix (go test omits it at 1).
func parseLine(line string) (b Benchmark, procs int, ok bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, 0, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, 0, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, 0, false
	}
	name, procs := trimProcSuffix(fields[0])
	b = Benchmark{
		Name:       name,
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, 0, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, procs, true
}

// trimProcSuffix drops the trailing -GOMAXPROCS decoration so names are
// stable across machines ("BenchmarkX/y=1-8" → "BenchmarkX/y=1", 8).
func trimProcSuffix(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}
