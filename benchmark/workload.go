package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"purec/internal/core"
	"purec/internal/interp"
	"purec/internal/serve"
)

// sizing holds every count that -quick shrinks so the tests can run all
// four workloads in seconds; the shapes stay the same.
type sizing struct {
	warmApps []appSize
	// corpusSmall+corpusLarge programs cycle through a cacheSize-entry
	// ProgramCache; more programs than entries makes every request a
	// memory miss under LRU.
	corpusSmall, corpusLarge int
	cacheSize                int
	// setupReps is how many times a run sets the server up; setup_s is
	// the median.
	setupReps int
	// passDiv divides a workload's warmPasses and tracePasses (to no less
	// than one pass).
	passDiv int
	// probeReps is how often each layer probe repeats its call;
	// probeSmall and probeLarge are the generated programs the front-end
	// probe samples, kernelN x kernelReps the elements a kernel probe
	// sweeps, launches the repetitions of the microsecond-scale probes.
	probeReps, probeSmall, probeLarge int
	kernelN, kernelReps, launches     int
	// heapProbePrograms is the never-seen-program count of the
	// retained-state probe.
	heapProbePrograms int
}

var fullSizing = sizing{
	warmApps:    warmApps,
	corpusSmall: 144, corpusLarge: 48,
	cacheSize:  0, // purecd's default of 128
	setupReps:  3,
	passDiv:    1,
	probeReps:  5,
	probeSmall: 12, probeLarge: 6,
	kernelN: 65536, kernelReps: 8, launches: 2000,
	heapProbePrograms: 200,
}

var quickSizing = sizing{
	warmApps: []appSize{
		{"matmul", map[string]string{"N": "16"}},
		{"heat", map[string]string{"N": "16", "STEPS": "2"}},
		{"satellite", map[string]string{"NPIX": "64", "BANDS": "4", "MAXITERS": "8"}},
		{"lama", map[string]string{"ROWS": "128", "MAXNNZ": "8"}},
		{"hist", map[string]string{"N": "4096", "BINS": "64"}},
		{"reduce", map[string]string{"N": "4096"}},
	},
	corpusSmall: 9, corpusLarge: 3,
	cacheSize:  8,
	setupReps:  1,
	passDiv:    1000,
	probeReps:  1,
	probeSmall: 1, probeLarge: 1,
	kernelN: 1024, kernelReps: 1, launches: 20,
	heapProbePrograms: 8,
}

// workload is one traffic shape. Callers are build tools that wait for
// the reply, so every workload is a closed loop of conns connections,
// each sending its next request when the previous one has completed.
type workload struct {
	name string
	why  string
	// conns is the number of keep-alive connections, at most the two
	// cores of the box.
	conns int
	// disk gives the server a cache directory.
	disk bool
	// wantBuild is the X-Purecd-Build value the workload is designed to
	// see on every measured request.
	wantBuild string
	// round is the number of consecutive requests that hold one of each
	// class in the workload's mix; a connection only stops at a multiple
	// of it, so per-request means are taken over a balanced mix.
	round int
	// warmPasses is how many passes over the programs the set-up makes
	// before measuring.
	warmPasses int
	// bestOf is how many consecutive visits of one program a connection
	// reduces to their fastest for req_ms_best: enough to step over the
	// sandbox's bursts, few enough that a run holds several groups.
	bestOf int
	// tracePasses is how many passes the traced replay makes with spans
	// on, and as many again with spans off.
	tracePasses int
	programs    func(seed int64, sz sizing) []*program
}

func compileCorpus(seed int64, sz sizing) []*program {
	return genCorpus(seed, sz.corpusSmall, sz.corpusLarge)
}

var workloads = []workload{
	{
		name:       "apps_warm",
		why:        "six pre-built paper applications on 2 cores, memory-cache hit and pooled Process every time: run-dominated, exercises comp, rt and mem; build layers only hash and look up",
		conns:      1,
		wantBuild:  "memory",
		round:      len(warmApps),
		warmPasses: 2,
		// Tens of ms per request: a burst outlasts a few visits.
		bestOf:      15,
		tracePasses: 3,
		programs: func(seed int64, sz sizing) []*program {
			var ps []*program
			for _, a := range sz.warmApps {
				ps = append(ps, appProgram(a, seed, 2))
			}
			return ps
		},
	},
	{
		name:        "compile_cold",
		why:         "more generated programs than ProgramCache entries and no cache dir, so every request runs core.Front and Compile: front-end-dominated, the cache is only written",
		conns:       1,
		wantBuild:   "compiled",
		round:       4,
		warmPasses:  1,
		bestOf:      5,
		tracePasses: 1,
		programs:    compileCorpus,
	},
	{
		name:        "disk_hit",
		why:         "same corpus with a cache dir: every request misses memory and restores from DiskCache.Load, never core.Front; bypass case for front-end stages, set-up is the Store side",
		conns:       1,
		disk:        true,
		wantBuild:   "disk",
		round:       4,
		warmPasses:  1,
		bestOf:      5,
		tracePasses: 1,
		programs:    compileCorpus,
	},
	{
		name:      "tiny_hot",
		why:       "four pre-built programs that run in microseconds over 2 connections: per-request overhead of serve, core.Key, cache hit path, pool Get/Reset and team set-up; the only one with lock contention",
		conns:     2,
		wantBuild: "memory",
		round:     4,
		// Enough passes that the set-up time is long enough to read.
		warmPasses:  250,
		bestOf:      5,
		tracePasses: 200,
		programs: func(seed int64, sz sizing) []*program {
			var ps []*program
			for _, a := range tinyApps {
				ps = append(ps, appProgram(a, seed, 1))
			}
			r := rand.New(rand.NewSource(seed))
			// Small and large source text, one unit run: the request is
			// all decoding, hashing and lookup.
			return append(ps, genProgram(genSmall, 1, r), genProgram(genLarge, 1, r))
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOracle fills in the expected stdout and return value of every
// program from internal/interp on a sequential core.Front — never from
// comp, the layer under test. It returns the time taken.
func runOracle(progs []*program) (time.Duration, error) {
	start := time.Now()
	for _, p := range progs {
		cfg := p.cfg
		cfg.Parallelize = false
		art, err := core.Front(p.source, cfg)
		if err != nil {
			return 0, fmt.Errorf("oracle front end on %s: %w", p.class, err)
		}
		var out bytes.Buffer
		in, err := interp.New(art.Info, &out)
		if err != nil {
			return 0, fmt.Errorf("oracle load of %s: %w", p.class, err)
		}
		ret, err := in.RunMain()
		if err != nil {
			return 0, fmt.Errorf("oracle run of %s: %w", p.class, err)
		}
		p.wantOut, p.wantRet = out.String(), ret
	}
	return time.Since(start), nil
}

// The sandbox's noise is contention for the memory system from
// outside the VM: it only ever adds time, it hits some requests and
// some half-seconds and spares others, and its level drifts over
// minutes. Same-code runs minutes apart differ by 15-40% in any mean or
// median over the whole run. The time metrics therefore ask what the
// code does when it is left alone, from repetitions inside the run: the
// fastest of a few consecutive visits of each program (workload.bestOf),
// and the best decile of half-second segments. What GC or lock
// contention cost is still in them, because every segment and every
// group of visits has its share.

// segmentSeconds is the least length of a throughput/CPU segment.
const segmentSeconds = 0.5

// mark is a checkpoint connection 0 takes at a round boundary.
type mark struct {
	t    time.Duration
	cpu  float64
	done int64
}

// tally is what a closed-loop drive observed.
type tally struct {
	progs []*program
	// visits holds, per program and connection, the request times in
	// visit order.
	visits [][][]time.Duration
	// built and reused count the replies whose X-Purecd-Build was the
	// workload's designed one and whose X-Purecd-Pool was "reused".
	requests, failed, built, reused int
	firstFail                       string
	marks                           []mark
	elapsed                         time.Duration
}

// drive runs the closed loop: every connection walks the programs
// round-robin, starting at its own offset, until stop says so. stop is
// consulted only at multiples of the workload's round.
func drive(w workload, url string, progs []*program, stop func(requests int) bool) *tally {
	start := time.Now()
	total := &tally{progs: progs, visits: make([][][]time.Duration, len(progs))}
	for i := range total.visits {
		total.visits[i] = make([][]time.Duration, w.conns)
	}
	var done atomic.Int64
	perConn := make([]tally, w.conns)
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(url)
			defer cl.close()
			mine := &perConn[c]
			if c == 0 {
				mine.marks = append(mine.marks, mark{0, cpuSeconds(), 0})
			}
			at := c * len(progs) / w.conns
			for n := 0; ; n++ {
				if n%w.round == 0 {
					if now := time.Since(start); c == 0 && (now-mine.marks[len(mine.marks)-1].t).Seconds() >= segmentSeconds {
						mine.marks = append(mine.marks, mark{now, cpuSeconds(), done.Load()})
					}
					if stop(n) {
						if c == 0 && len(mine.marks) == 1 {
							// Shorter than a segment: the run is the segment.
							mine.marks = append(mine.marks, mark{time.Since(start), cpuSeconds(), done.Load()})
						}
						return
					}
				}
				i := (at + n) % len(progs)
				r := cl.run(progs[i])
				done.Add(1)
				total.visits[i][c] = append(total.visits[i][c], r.dur)
				mine.requests++
				if r.fail != "" {
					if mine.failed++; mine.firstFail == "" {
						mine.firstFail = progs[i].class + " request failed: " + r.fail
					}
				}
				if r.build == w.wantBuild {
					mine.built++
				}
				if r.pool == "reused" {
					mine.reused++
				}
			}
		}(c)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.marks = perConn[0].marks
	for _, mine := range perConn {
		total.requests += mine.requests
		total.failed += mine.failed
		total.built += mine.built
		total.reused += mine.reused
		if total.firstFail == "" {
			total.firstFail = mine.firstFail
		}
	}
	return total
}

// passes stops every connection after n passes over the programs.
func passes(n, programs int) func(int) bool {
	return func(requests int) bool { return requests >= n*programs }
}

// until stops at the deadline.
func until(deadline time.Time) func(int) bool {
	return func(int) bool { return !time.Now().Before(deadline) }
}

// failure returns the first failed request as an error.
func (t *tally) failure() error {
	if t.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d requests failed; first: %s", t.failed, t.requests, t.firstFail)
}

// checkShape is the workload's guard on its own traffic: the build
// layer and pool state the daemon reported must be the designed ones on
// at least 99% of measured requests, so a cache-policy change cannot
// silently turn one workload into another.
func (t *tally) checkShape(w workload) error {
	need := (t.requests*99 + 99) / 100
	if t.built < need {
		return fmt.Errorf("shape guard: X-Purecd-Build was %q on %d of %d requests, want at least %d", w.wantBuild, t.built, t.requests, need)
	}
	// The first time two connections ask for the same program at once,
	// its pool has to make a second Process; that can happen once per
	// program and extra connection, whenever the run starts.
	if collisions := len(t.progs) * (w.conns - 1); t.reused+collisions < need {
		return fmt.Errorf("shape guard: X-Purecd-Pool was \"reused\" on %d of %d requests, want at least %d", t.reused, t.requests, need-collisions)
	}
	return nil
}

// classTimes groups request times (ms) by class, in first-seen order.
// With bestOf above 1, each run of bestOf consecutive visits of a program
// on a connection is reduced to its fastest (a shorter tail is dropped
// unless it is all there is).
func (t *tally) classTimes(bestOf int) (classes []string, ms map[string][]float64) {
	ms = map[string][]float64{}
	for i, p := range t.progs {
		if _, seen := ms[p.class]; !seen {
			classes = append(classes, p.class)
			ms[p.class] = nil
		}
		for _, visits := range t.visits[i] {
			for at := 0; at < len(visits); at += bestOf {
				end := at + bestOf
				if end > len(visits) {
					if at > 0 {
						break
					}
					end = len(visits)
				}
				ms[p.class] = append(ms[p.class], float64(slices.Min(visits[at:end]))/1e6)
			}
		}
	}
	return classes, ms
}

// classGeomean reduces per-class times to one number: the quantile per
// class, then the geometric mean over classes, so no class dominates by
// being slow.
func classGeomean(classes []string, ms map[string][]float64, q float64) float64 {
	var per []float64
	for _, c := range classes {
		per = append(per, quantile(ms[c], q))
	}
	return geomean(per)
}

// segments turns connection 0's checkpoints into per-segment requests
// per second and CPU ms per request.
func (t *tally) segments() (rps, cpuMs []float64) {
	for i := 1; i < len(t.marks); i++ {
		a, b := t.marks[i-1], t.marks[i]
		n := float64(b.done - a.done)
		rps = append(rps, n/(b.t-a.t).Seconds())
		cpuMs = append(cpuMs, (b.cpu-a.cpu)*1e3/n)
	}
	return rps, cpuMs
}

// setup brings a server up for w and warms it: server construction to
// the last warm-up reply is the workload's set-up time. The first pass
// touches every program (first builds, fresh Processes; on disk_hit it
// is the compile-and-Store cycle), so after it the traffic has its
// measured shape.
func setup(w workload, sz sizing, outDir string, progs []*program) (d *daemon, cacheDir string, took time.Duration, err error) {
	runtime.GC()
	start := time.Now()
	opts := serve.Options{CacheSize: sz.cacheSize}
	if w.disk {
		cacheDir, err = os.MkdirTemp(outDir, "cache-")
		if err != nil {
			return nil, "", 0, err
		}
		opts.CacheDir = cacheDir
	}
	d, err = startDaemon(opts)
	if err != nil {
		os.RemoveAll(cacheDir)
		return nil, "", 0, err
	}
	warm := drive(w, d.url, progs, passes(max(1, w.warmPasses/sz.passDiv), len(progs)))
	took = time.Since(start)
	if err = warm.failure(); err != nil {
		teardown(d, cacheDir)
		return nil, "", 0, fmt.Errorf("warm-up: %w", err)
	}
	return d, cacheDir, took, nil
}

func teardown(d *daemon, cacheDir string) error {
	err := d.stop()
	if cacheDir != "" {
		if rerr := os.RemoveAll(cacheDir); err == nil {
			err = rerr
		}
	}
	return err
}

// runEndToEnd is a --trace 0 run: set the server up setupReps times,
// keep the last one, measure the closed loop for the given time with
// tracing off, and report what a caller of purecd would see.
func runEndToEnd(w workload, sz sizing, seed int64, seconds float64, outDir string, e *emitter) error {
	progs := w.programs(seed, sz)
	if _, err := runOracle(progs); err != nil {
		return err
	}

	var d *daemon
	var cacheDir string
	var setups []float64
	for rep := 0; rep < sz.setupReps; rep++ {
		if d != nil {
			if err := teardown(d, cacheDir); err != nil {
				return err
			}
		}
		var took time.Duration
		var err error
		d, cacheDir, took, err = setup(w, sz, outDir, progs)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer teardown(d, cacheDir)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := drive(w, d.url, progs, until(time.Now().Add(time.Duration(seconds*float64(time.Second)))))
	runtime.ReadMemStats(&after)

	e.emit("setup_s", median(setups))
	classes, best := t.classTimes(w.bestOf)
	e.emit("req_ms_best", classGeomean(classes, best, 0.5))
	_, all := t.classTimes(1)
	for _, c := range classes {
		e.row("req_ms_best."+c, median(best[c]), "ms")
		e.row("req_ms_p50."+c, median(all[c]), "ms")
	}
	rps, cpuMs := t.segments()
	e.emit("throughput_rps", quantile(rps, 0.9))
	e.row("throughput_rps.whole_run", float64(t.requests)/t.elapsed.Seconds(), "1/s")
	e.emit("cpu_ms_per_req", quantile(cpuMs, 0.1))
	e.emit("alloc_kb_per_req", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(t.requests))

	e.res.Attempted, e.res.Failed = t.requests, t.failed
	e.res.Correct = t.failed == 0
	if err := t.failure(); err != nil {
		return err
	}
	if err := t.checkShape(w); err != nil {
		return err
	}

	// The request times are the benchmark's own; drop them before looking
	// at the heap. Two collections, so that what finalizers of the first
	// freed is gone too; the server is still alive, so what remains is
	// what its caches, pools and quota maps retain.
	t.visits, best, all = nil, nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	e.emit("heap_live_mb", float64(after.HeapAlloc)/(1<<20))
	return nil
}
