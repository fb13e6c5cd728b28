package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/mem"
	"purec/internal/memo"
	"purec/internal/rt"
	"purec/internal/serve"
)

// The layer probes time calls into each layer's public functions on a
// fixed seeded sample, independent of the workload being traced. They
// are measured from outside: no file of the layers changes.

// sink keeps probe results alive so the compiler cannot drop the loops
// that compute them.
var sink float64

// us is a duration in microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timed runs f and returns how long it took.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// mallocs returns the heap objects and bytes f allocated.
func mallocs(f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

func runProbes(e *emitter, sz sizing, seed int64, outDir string) error {
	if err := probeFrontEnd(e, sz, seed, outDir); err != nil {
		return fmt.Errorf("front-end probe: %w", err)
	}
	if err := probeExecution(e, sz, seed); err != nil {
		return fmt.Errorf("execution probe: %w", err)
	}
	if err := probeKernels(e, sz); err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	probeRuntime(e, sz)
	if err := probeMemo(e, sz); err != nil {
		return fmt.Errorf("memo probe: %w", err)
	}
	if err := probeOverhead(e, sz, seed); err != nil {
		return fmt.Errorf("overhead probe: %w", err)
	}
	return nil
}

// probeFrontEnd measures every front-end stage, the compile step and
// the cache layers on a sample of generated programs of both classes.
func probeFrontEnd(e *emitter, sz sizing, seed int64, outDir string) error {
	dir := filepath.Join(outDir, "probe-disk")
	defer os.RemoveAll(dir)
	disk, err := core.NewDiskCache(dir, 0)
	if err != nil {
		return err
	}
	cache := core.NewProgramCache(128)
	r := rand.New(rand.NewSource(seed + 1))
	// obs collects observations under metric names; a name the contract
	// does not have (a count kept for the large class only) is dropped
	// at the end.
	obs := map[string][]float64{}
	note := func(name, class string, v float64) { obs[name+"."+class] = append(obs[name+"."+class], v) }
	var parsedBytes, parseSeconds, fused, elided float64

	for i := 0; i < sz.probeSmall+sz.probeLarge; i++ {
		nests := genSmall
		if i >= sz.probeSmall {
			nests = genLarge
		}
		p := genProgram(nests, 0, r)
		c := p.class
		var art *core.Artifact
		for rep := 0; rep <= sz.probeReps; rep++ {
			sr, err := stagedFront(p.source, p.cfg, true)
			if err != nil {
				return err
			}
			var ferr error
			var frontTook time.Duration
			objects, bytes := mallocs(func() {
				frontTook = timed(func() { art, ferr = core.Front(p.source, p.cfg) })
			})
			if ferr != nil {
				return ferr
			}
			if rep == 0 {
				// The first pass over a program pays for cold caches and
				// a heap that has to grow; it is not recorded.
				continue
			}
			note("core.front_us", c, us(frontTook))
			note("core.front_alloc_kb", c, bytes/1024)
			note("core.front_allocs", c, objects)
			note("preproc.expand_us", c, us(sr.first("preproc.Expand")))
			note("parser.parse_us", c, us(sr.first("parser.Parse")))
			note("sema.check_us", c, us(sr.first("sema.Check")))
			note("purity.check_us", c, us(sr.first("purity.Check")))
			note("vra.analyze_us", c, us(sr.first("vra.Analyze")))
			note("scop.detect_us", c, us(sr.first("scop.DetectWith")))
			note("poly.deps_us", c, us(sr.deps))
			note("transform.parallelize_us", c, us(sr.first("transform.Parallelize")))
			self := sr.total - sr.deps
			for _, s := range sr.stages {
				if s.layer != "core" {
					self -= s.dur
				}
			}
			note("core.front_self_us", c, us(self))
			note("transform.parallel_nests", c, float64(sr.parallelNests))
			parsedBytes += float64(sr.sourceBytes)
			parseSeconds += sr.first("parser.Parse").Seconds()

			note("core.key_us", c, us(timed(func() { sink += float64(core.Key(p.source, p.cfg)[0]) })))
			var prog *comp.Program
			note("core.compile_us", c, us(timed(func() { prog, ferr = art.Compile(p.cfg) })))
			if ferr != nil {
				return ferr
			}
			if rep == 1 {
				fused += float64(prog.FusedKernels())
				elided += float64(prog.ElidedChecks())
			}
			note("core.disk_store_us", c, us(timed(func() { ferr = disk.Store(p.key, p.cfg, art) })))
			if ferr != nil {
				return ferr
			}
			var ok bool
			note("core.disk_load_us", c, us(timed(func() { _, ok = disk.Load(p.source, p.key, p.cfg) })))
			if !ok {
				return fmt.Errorf("stored entry of a %s program did not load", c)
			}
		}
		note("vra.proofs", c, float64(len(art.VRA.Proofs())))
		note("scop.scops", c, float64(art.SCoPs))
		note("scop.rejections", c, float64(len(art.Rejections)))
		fi, err := os.Stat(filepath.Join(dir, p.key.String()+".json"))
		if err != nil {
			return err
		}
		note("core.disk_entry_kb", c, float64(fi.Size())/1024)

		if _, _, _, err := cache.BuildDetail(p.source, p.cfg); err != nil {
			return err
		}
		for rep := 0; rep < sz.probeReps; rep++ {
			obs["core.mem_hit_us"] = append(obs["core.mem_hit_us"], us(timed(func() { _, _, _, err = cache.BuildDetail(p.source, p.cfg) })))
			if err != nil {
				return err
			}
		}
	}

	for _, d := range perLayerMetrics {
		if v, ok := obs[d.Name]; ok {
			e.emit(d.Name, median(v))
		}
	}
	e.emit("parser.mb_per_s", parsedBytes/1e6/parseSeconds)
	e.emit("comp.fused_kernels.total", fused)
	e.emit("comp.elided_checks.total", elided)
	return nil
}

// pooledRuns runs prog on a pooled Process with a team of the given
// size, once untimed and then reps times, and returns the RunMain times
// in ms, the heap objects allocated per timed run and the arena's
// counters at the end.
func pooledRuns(prog *comp.Program, cores, reps int) (ms []float64, allocs float64, arena mem.ArenaStats, err error) {
	pool := prog.NewPool(comp.PoolOptions{Size: 1, NewTeam: func() *rt.Team { return rt.NewTeam(cores) }})
	for rep := 0; rep <= reps; rep++ {
		proc, gerr := pool.Get()
		if gerr != nil {
			return nil, 0, arena, gerr
		}
		proc.SetStdout(io.Discard)
		var rerr error
		objects, _ := mallocs(func() {
			took := timed(func() { _, rerr = proc.RunMain() })
			if rep > 0 {
				ms = append(ms, float64(took)/1e6)
			}
		})
		if rerr != nil {
			return nil, 0, arena, rerr
		}
		if rep > 0 {
			allocs += objects / float64(reps)
		}
		arena = proc.ArenaStats()
		pool.Put(proc)
	}
	return ms, allocs, arena, nil
}

// probeExecution times pooled Process.RunMain of the six applications on
// real 1- and 2-worker teams.
func probeExecution(e *emitter, sz sizing, seed int64) error {
	var reused, fresh uint64
	for _, a := range sz.warmApps {
		p := appProgram(a, seed, 1)
		art, err := core.Front(p.source, p.cfg)
		if err != nil {
			return err
		}
		prog, err := art.Compile(p.cfg)
		if err != nil {
			return err
		}
		t1, allocs, arena, err := pooledRuns(prog, 1, sz.probeReps)
		if err != nil {
			return err
		}
		t2, _, _, err := pooledRuns(prog, 2, sz.probeReps)
		if err != nil {
			return err
		}
		reused += arena.Reused
		fresh += arena.Fresh
		e.emit("comp.run_ms."+a.class+".t1", median(t1))
		e.emit("comp.run_ms."+a.class+".t2", median(t2))
		e.emit("rt.speedup_2c."+a.class, median(t1)/median(t2))
		e.emit("comp.run_allocs."+a.class, allocs)
		if a.class == "satellite" {
			cfg := p.cfg
			cfg.Engine = comp.EngineTape
			tape, err := art.Compile(cfg)
			if err != nil {
				return err
			}
			tt, _, _, err := pooledRuns(tape, 1, sz.probeReps)
			if err != nil {
				return err
			}
			e.emit("comp.run_ms.satellite.tape", median(tt))
		}
	}
	e.emit("mem.arena_reuse_ratio", float64(reused)/float64(reused+fresh))
	return nil
}

// probeKernels times the six fused kernel shapes of comp against the
// hand-written loops of native.go, per element.
func probeKernels(e *emitter, sz sizing) error {
	n, reps := sz.kernelN, sz.kernelReps
	elems := float64(n) * float64(reps)
	x, y := make([]float32, n), make([]float32, n)
	idx, data := make([]int32, n*reps), make([]int32, n*reps)
	for i := range x {
		x[i], y[i] = float32(i%13)*0.25, float32(i%7)*0.5
	}
	const gatherM, bins = 4096, 256
	for i := range idx {
		idx[i], data[i] = int32((i*7+13)%min(gatherM, n)), int32((i*1103515245+12345)%bins)
	}
	hist := make([]int64, bins)
	kd := apps.KernDefines(n, reps)
	kernels := []struct {
		name, src, init string
		defs            map[string]string
		cfg             core.Config
		native          func()
	}{
		{"axpy", apps.AxpySrc, "initvec", kd, core.Config{}, func() { nativeAxpy(1.5, x, y, reps) }},
		{"copy", apps.CopySrc, "initvec", kd, core.Config{}, func() { nativeCopy(x, y, reps) }},
		{"stencil", apps.StencilSrc, "initvec", kd, core.Config{}, func() { nativeStencil(0.3333, x, y, reps) }},
		// The ICC backend is what fuses the extracted-dot reduction.
		{"dot", apps.ReduceDotSrc, "initvec", apps.ReduceDefines(n * reps), core.Config{Backend: comp.BackendICC}, func() {
			for r := 0; r < reps; r++ {
				sink += float64(nativeDot(x, y))
			}
		}},
		{"gather", apps.GatherSrc, "initgather", apps.GatherDefines(n, min(gatherM, n), reps), core.Config{}, func() { nativeGather(idx[:n], x, y, reps) }},
		{"hist", apps.HistogramSrc, "initdata", apps.HistogramDefines(n*reps, bins), core.Config{}, func() { nativeHist(data, hist) }},
	}
	for _, k := range kernels {
		cfg := k.cfg
		cfg.Defines = k.defs
		art, err := core.Front(k.src, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		prog, err := art.Compile(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		proc, err := prog.NewProcess(comp.ProcOptions{Stdout: io.Discard})
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		if _, err := proc.CallInt(k.init); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		var compiled, native []float64
		for rep := 0; rep <= sz.probeReps; rep++ {
			var rerr error
			ct := timed(func() { _, rerr = proc.CallInt("run") })
			if rerr != nil {
				return fmt.Errorf("%s: %w", k.name, rerr)
			}
			nt := timed(k.native)
			if rep > 0 {
				compiled = append(compiled, float64(ct)/elems)
				native = append(native, float64(nt)/elems)
			}
		}
		e.emit("comp.kernel_ns_per_elem."+k.name, median(compiled))
		e.emit("comp.native_ratio."+k.name, median(compiled)/median(native))
	}
	sink += float64(y[n/2]) + float64(hist[0])
	return nil
}

// probeRuntime measures rt's region launch cost on real teams and mem's
// checked accessors.
func probeRuntime(e *emitter, sz sizing) {
	launches := sz.launches
	perLaunch := func(f func()) float64 {
		f()
		return us(timed(func() {
			for i := 0; i < launches; i++ {
				f()
			}
		})) / float64(launches)
	}
	empty := func(int, int64, int64) {}
	for _, n := range []int{1, 2} {
		team := rt.NewTeam(n)
		e.emit(fmt.Sprintf("rt.launch_us.t%d", n), perLaunch(func() { team.ParallelFor(0, 1023, rt.Static, 0, empty) }))
	}
	team := rt.NewTeam(2)
	var total int64
	e.emit("rt.reduce_launch_us.t2", perLaunch(func() {
		team.ParallelForReduce(0, 1023, rt.Static, 0,
			func(int) any { return int64(0) },
			func(_ int, lo, hi int64, acc any) any { return acc.(int64) + hi - lo + 1 },
			func(_ int, acc any) { total += acc.(int64) })
	}))
	const bins = 4096
	target := make([]int64, bins)
	e.emit("rt.reduce_array_us.bins4096.t2", perLaunch(func() {
		team.ParallelForReduceArray(0, bins-1, rt.Static, 0,
			func(int) any { return make([]int64, bins) },
			func(_ int, lo, hi int64, acc any) any {
				private := acc.([]int64)
				for i := lo; i <= hi; i++ {
					private[i]++
				}
				return acc
			},
			func(_ int, acc any) {
				for i, v := range acc.([]int64) {
					target[i] += v
				}
			})
	}))
	chunks := int64(launches) * 50
	e.emit("rt.dynamic_chunk_ns", float64(timed(func() { team.ParallelFor(0, chunks-1, rt.Dynamic, 1, empty) }))/float64(chunks))
	sink += float64(total + target[0])

	const cells = 4096
	p := mem.Pointer{Seg: mem.NewSegment(mem.CellFloat, cells, "probe")}
	sweeps := max(1, launches/8)
	e.emit("mem.store_ns", float64(timed(func() {
		for s := 0; s < sweeps; s++ {
			for i := int64(0); i < cells; i++ {
				p.Add(i).StoreFloat(float64(i))
			}
		}
	}))/float64(sweeps*cells))
	e.emit("mem.load_ns", float64(timed(func() {
		for s := 0; s < sweeps; s++ {
			for i := int64(0); i < cells; i++ {
				sink += p.Add(i).LoadFloat()
			}
		}
	}))/float64(sweeps*cells))
}

// probeMemo measures a memo-table lookup and the hit ratio of the
// quantized-retrieval application built with memoization.
func probeMemo(e *emitter, sz sizing) error {
	table := memo.New(0, 0)
	const keys = 1024
	key := func(i int) memo.Key {
		k := memo.Key{Fn: "retrieve", N: 2}
		k.Args[0], k.Args[1] = uint64(i), uint64(i*31)
		return k
	}
	for i := 0; i < keys; i++ {
		table.Put(key(i), uint64(i))
	}
	sweeps := max(1, sz.launches/8)
	e.emit("memo.lookup_ns", float64(timed(func() {
		for s := 0; s < sweeps; s++ {
			for i := 0; i < keys; i++ {
				v, _ := table.Get(key(i))
				sink += float64(v)
			}
		}
	}))/float64(sweeps*keys))

	cfg := core.Config{Parallelize: true, Memoize: true, Defines: apps.MemoSatDefines(sz.kernelN/16, min(64, sz.kernelN/128), 12, 48)}
	art, err := core.Front(apps.MemoSatSrc, cfg)
	if err != nil {
		return err
	}
	prog, err := art.Compile(cfg)
	if err != nil {
		return err
	}
	proc, err := prog.NewProcess(comp.ProcOptions{Stdout: io.Discard})
	if err != nil {
		return err
	}
	if _, err := proc.RunMain(); err != nil {
		return err
	}
	e.emit("memo.hit_ratio.memosat", prog.MemoStats().HitRate())
	return nil
}

// probeOverhead measures what every request pays whatever it runs: a
// pool Get, the load generator's own floor, and what the server keeps
// for each program it has ever seen.
func probeOverhead(e *emitter, sz sizing, seed int64) error {
	r := rand.New(rand.NewSource(seed + 2))
	p := genProgram(genSmall, 0, r)
	art, err := core.Front(p.source, p.cfg)
	if err != nil {
		return err
	}
	prog, err := art.Compile(p.cfg)
	if err != nil {
		return err
	}
	pool := prog.NewPool(comp.PoolOptions{Size: 1})
	var reuse, fresh []float64
	for i := 0; i <= sz.launches; i++ {
		var proc *comp.Process
		took := timed(func() { proc, err = pool.Get() })
		if err != nil {
			return err
		}
		if i > 0 {
			reuse = append(reuse, us(took))
		}
		pool.Put(proc)
	}
	for i := 0; i < max(1, sz.launches/10); i++ {
		// Nothing is put back, so every Get allocates a fresh Process.
		took := timed(func() { _, err = prog.NewPool(comp.PoolOptions{Size: 1}).Get() })
		if err != nil {
			return err
		}
		fresh = append(fresh, us(took))
	}
	e.emit("comp.pool_get_reuse_us", median(reuse))
	e.emit("comp.pool_get_fresh_us", median(fresh))

	// The same client against a handler that does nothing.
	noop, err := listen(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "ok\n")
	}))
	if err != nil {
		return err
	}
	cl := newClient(noop.url)
	var floor []float64
	for i := 0; i < sz.launches; i++ {
		floor = append(floor, us(cl.run(p).dur))
	}
	cl.close()
	if err := noop.stop(); err != nil {
		return err
	}
	e.emit("bench.client_floor_us", median(floor))

	// Live heap per never-seen program: the programs exist before the
	// first reading, so only what the server retains is counted.
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return err
	}
	handler := srv.Handler()
	unseen := make([]*program, sz.heapProbePrograms)
	for i := range unseen {
		unseen[i] = genProgram(genSmall, 0, r)
	}
	if _, err := runOracle(unseen); err != nil {
		return err
	}
	live := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	before := live()
	for _, u := range unseen {
		if _, _, err := handlerCall(handler, u); err != nil {
			return err
		}
	}
	e.emit("serve.heap_kb_per_program", (live()-before)/1024/float64(len(unseen)))
	runtime.KeepAlive(srv)
	return nil
}
