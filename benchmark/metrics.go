package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
)

// metricDef names one metric of the benchmark's contract. The tables
// below are the single source of BENCHMARK.json (-describe prints it)
// and of what a run may emit.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics is what a build tool calling purecd would see; the same
// set is reported on every workload. A failed request has no metric of
// its own: it is counted in the result line's failed/attempted, and any
// failure fails the run. The time metrics carry the contract's widest
// bound because same-code runs on this sandbox differ by up to half of
// it (RUNS.md); the two counts are exact to a fraction of a percent.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"req_ms_best", "ms", lower, 0.25},
	{"throughput_rps", "1/s", higher, 0.25},
	{"cpu_ms_per_req", "ms", lower, 0.25},
	{"alloc_kb_per_req", "KiB", lower, 0.02},
	{"heap_live_mb", "MiB", lower, 0.05},
}

// perLayerMetrics come from the -trace run. The first group is measured
// on the traffic of the workload being traced; every later group is a
// probe of one layer's public functions on a fixed seeded sample, so it
// reads the same whichever workload the run names.
var perLayerMetrics = buildLayerMetrics()

var genClasses = []string{genClass(genSmall), genClass(genLarge)}

var kernelNames = []string{"axpy", "copy", "stencil", "dot", "gather", "hist"}

func buildLayerMetrics() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{Name: name, Unit: unit, Better: better}) }
	perGen := func(prefix, unit, better string) {
		for _, g := range genClasses {
			add(prefix+"."+g, unit, better)
		}
	}

	// The traced workload's own traffic.
	add("serve.handler_us", "us", lower)
	add("serve.self_us", "us", lower)
	add("serve.req_ms_p95", "ms", lower)
	add("serve.cache_hit_ratio", "ratio", higher)
	add("serve.disk_hit_ratio", "ratio", higher)
	add("serve.pool_reuse_ratio", "ratio", higher)
	add("serve.rejected", "count", lower)
	add("serve.gc_pause_ms", "ms", lower)
	add("serve.gc_cycles", "count", lower)
	add("trace.front_share", "ratio", lower)
	add("trace.build_share", "ratio", lower)
	add("trace.run_share", "ratio", higher)
	add("bench.trace_overhead_pct", "%", lower)
	add("interp.oracle_s", "s", lower)

	// Front-end stages, in core.Front's order.
	perGen("preproc.expand_us", "us", lower)
	perGen("parser.parse_us", "us", lower)
	add("parser.mb_per_s", "MB/s", higher)
	perGen("sema.check_us", "us", lower)
	perGen("purity.check_us", "us", lower)
	perGen("vra.analyze_us", "us", lower)
	add("vra.proofs."+genClasses[1], "count", higher)
	perGen("scop.detect_us", "us", lower)
	add("scop.scops."+genClasses[1], "count", higher)
	add("scop.rejections."+genClasses[1], "count", lower)
	perGen("poly.deps_us", "us", lower)
	perGen("transform.parallelize_us", "us", lower)
	add("transform.parallel_nests."+genClasses[1], "count", higher)
	perGen("core.front_us", "us", lower)
	perGen("core.front_self_us", "us", lower)
	perGen("core.front_alloc_kb", "KiB", lower)
	perGen("core.front_allocs", "count", lower)

	// Build products and caches.
	perGen("core.compile_us", "us", lower)
	add("comp.fused_kernels.total", "count", higher)
	add("comp.elided_checks.total", "count", higher)
	perGen("core.key_us", "us", lower)
	add("core.mem_hit_us", "us", lower)
	perGen("core.disk_store_us", "us", lower)
	perGen("core.disk_load_us", "us", lower)
	add("core.disk_entry_kb."+genClasses[1], "KiB", lower)

	// Execution.
	for _, a := range warmApps {
		add("comp.run_ms."+a.class+".t1", "ms", lower)
		add("comp.run_ms."+a.class+".t2", "ms", lower)
		add("rt.speedup_2c."+a.class, "ratio", higher)
		add("comp.run_allocs."+a.class, "count", lower)
	}
	add("comp.run_ms.satellite.tape", "ms", lower)
	for _, k := range kernelNames {
		add("comp.kernel_ns_per_elem."+k, "ns", lower)
		add("comp.native_ratio."+k, "ratio", lower)
	}
	add("rt.launch_us.t1", "us", lower)
	add("rt.launch_us.t2", "us", lower)
	add("rt.reduce_launch_us.t2", "us", lower)
	add("rt.reduce_array_us.bins4096.t2", "us", lower)
	add("rt.dynamic_chunk_ns", "ns", lower)
	add("mem.load_ns", "ns", lower)
	add("mem.store_ns", "ns", lower)
	add("mem.arena_reuse_ratio", "ratio", higher)
	add("memo.lookup_ns", "ns", lower)
	add("memo.hit_ratio.memosat", "ratio", higher)

	// Per-request overhead and retained state.
	add("comp.pool_get_reuse_us", "us", lower)
	add("comp.pool_get_fresh_us", "us", lower)
	add("bench.client_floor_us", "us", lower)
	add("serve.heap_kb_per_program", "KiB", lower)
	return m
}

// metricValue is one emitted number in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emitter prints every metric by name with its unit as it is measured
// and collects the result line. Only names of its table can be emitted,
// each once; finish reports the ones a run left out.
type emitter struct {
	out   io.Writer
	defs  map[string]metricDef
	order []string
	res   result
}

func newEmitter(out io.Writer, defs []metricDef) *emitter {
	e := &emitter{out: out, defs: map[string]metricDef{}}
	e.res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		e.defs[d.Name] = d
		e.order = append(e.order, d.Name)
	}
	return e
}

func (e *emitter) emit(name string, v float64) {
	d, ok := e.defs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the contract table")
	}
	if _, dup := e.res.Metrics[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	e.res.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
	fmt.Fprintf(e.out, "metric %-40s %14.4f %s\n", name, v, d.Unit)
}

// row prints a supporting per-class number that is not part of the
// contract (it never reaches the result line).
func (e *emitter) row(name string, v float64, unit string) {
	fmt.Fprintf(e.out, "row    %-40s %14.4f %s\n", name, v, unit)
}

func (e *emitter) finish() error {
	for _, name := range e.order {
		v, ok := e.res.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	line, err := json.Marshal(e.res)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "%s\n", line)
	return nil
}

// median returns the middle of xs (mean of the two middles for an even
// count); NaN for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
