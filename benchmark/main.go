// Command benchmark is the repository's end-to-end benchmark: one
// purecd request under four traffic shapes, with a per-layer trace.
//
// It starts an in-process purecd (serve.Server behind a loopback
// http.Server), drives it closed-loop over real HTTP with programs
// generated from -seed, checks every response against the internal/interp
// oracle, prints every metric by name with its unit and ends with one
// JSON result line. See README.md in this directory for the workloads,
// the metrics and how to read the trace.
//
//	go run ./benchmark -workload tiny_hot -seed 7 -seconds 15
//	go run ./benchmark -workload tiny_hot -seed 7 -trace 1
//	go run ./benchmark            # all four workloads, end to end
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// outDir holds everything a run writes: the trace files, and while a run
// lasts the disk_hit server's cache directory.
const outDir = "benchmark/out"

// runSeconds is how long one end-to-end run measures (BENCHMARK.json's
// run_seconds).
const runSeconds = 15

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: apps_warm, compile_cold, disk_hit, tiny_hot or all")
	seed := fs.Int64("seed", 1, "seed of the program generator")
	seconds := fs.Float64("seconds", runSeconds, "how long the end-to-end run measures")
	trace := fs.Int("trace", 0, "1 replays the workload with spans and probes every layer instead of measuring end to end")
	quick := fs.Bool("quick", false, "shrink every count so a run takes about a second (for tests; not comparable)")
	describe := fs.Bool("describe", false, "print BENCHMARK.json and exit")
	out := fs.String("out", outDir, "directory for trace files and the disk_hit cache")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		return describeBenchmark(stdout, stderr)
	}

	sz := fullSizing
	if *quick {
		sz = quickSizing
	}
	run := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		run = []workload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, w := range run {
		fmt.Fprintf(stdout, "workload %s seed %d trace %d\n", w.name, *seed, *trace)
		defs, run := endToEndMetrics, runEndToEnd
		if *trace != 0 {
			defs, run = perLayerMetrics, runTraced
		}
		e := newEmitter(stdout, defs)
		err := run(w, sz, *seed, *seconds, *out, e)
		if err == nil {
			err = e.finish()
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func describeBenchmark(stdout, stderr io.Writer) int {
	dir := filepath.Dir(outDir)
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./" + dir},
		Paths:      []string{dir},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
