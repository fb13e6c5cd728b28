package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/rt"
)

// replayer replays a request through the public functions handleRun
// calls, in handleRun's order, keeping the state the server keeps
// between requests: the program cache, the disk cache under it and one
// Process pool per program. The server's own copies are private, so the
// layers are timed on the replayer's.
type replayer struct {
	w     workload
	cache *core.ProgramCache
	disk  *core.DiskCache
	pools map[core.CacheKey]*comp.ProcessPool
	out   bytes.Buffer
}

func newReplayer(w workload, sz sizing, dir string) (*replayer, error) {
	size := sz.cacheSize
	if size == 0 {
		size = 128
	}
	r := &replayer{w: w, cache: core.NewProgramCache(size), pools: map[core.CacheKey]*comp.ProcessPool{}}
	if w.disk {
		disk, err := core.NewDiskCache(dir, 0)
		if err != nil {
			return nil, err
		}
		r.disk = disk
	}
	return r, nil
}

// request replays one request. Spans go to tr (nil records nothing);
// the returned duration is the whole replay, which the spans' root also
// covers.
func (r *replayer) request(tr *tracer, id int, p *program) (time.Duration, error) {
	start := time.Now()
	root := tr.begin(id, 0, "bench", "replay")
	defer tr.end(root)

	sp := tr.begin(id, root, "core", "core.Key")
	key := core.Key(p.source, p.cfg)
	tr.end(sp)

	var prog *comp.Program
	var err error
	if r.w.wantBuild == "memory" {
		sp = tr.begin(id, root, "core", "ProgramCache.BuildDetail")
		prog, _, _, err = r.cache.BuildDetail(p.source, p.cfg)
		tr.end(sp)
	} else {
		var art *core.Artifact
		if r.w.wantBuild == "disk" {
			sp = tr.begin(id, root, "core", "DiskCache.Load")
			var ok bool
			art, ok = r.disk.Load(p.source, key, p.cfg)
			tr.end(sp)
			if !ok {
				return 0, fmt.Errorf("replay: %s is not in the disk cache", p.class)
			}
		} else {
			sp = tr.begin(id, root, "core", "core.Front")
			sr, ferr := stagedFront(p.source, p.cfg, false)
			tr.end(sp)
			if ferr != nil {
				return 0, ferr
			}
			for _, s := range sr.stages {
				tr.add(id, sp, s.layer, s.name, s.start, s.dur)
			}
			art = sr.art
		}
		sp = tr.begin(id, root, "core", "Artifact.Compile")
		prog, err = art.Compile(p.cfg)
		tr.end(sp)
	}
	if err != nil {
		return 0, err
	}

	// Like the server, a program keeps the pool of its first build even
	// when the cache has since rebuilt it.
	pool, ok := r.pools[key]
	if !ok {
		cores := p.cores
		pool = prog.NewPool(comp.PoolOptions{Size: 2, NewTeam: func() *rt.Team { return rt.NewTeam(cores) }})
		r.pools[key] = pool
	}
	sp = tr.begin(id, root, "comp", "ProcessPool.Get")
	proc, err := pool.Get()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	r.out.Reset()
	proc.SetStdout(&r.out)
	sp = tr.begin(id, root, "comp", "Process.RunMain")
	ret, err := proc.RunMain()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(id, root, "comp", "ProcessPool.Put")
	pool.Put(proc)
	tr.end(sp)
	d := time.Since(start)
	if msg := p.mismatch(r.out.Bytes(), fmt.Sprint(ret)); msg != "" {
		return 0, fmt.Errorf("replay of %s: %s", p.class, msg)
	}
	return d, nil
}

// prime brings the replayer to the state the warmed server is in: every
// program built once (and stored, with a disk cache) and its pool
// holding one used Process.
func (r *replayer) prime(progs []*program) error {
	for _, p := range progs {
		if r.disk != nil {
			art, err := core.Front(p.source, p.cfg)
			if err != nil {
				return err
			}
			if err := r.disk.Store(p.key, p.cfg, art); err != nil {
				return err
			}
		}
		if _, err := r.request(nil, 0, p); err != nil {
			return err
		}
	}
	return nil
}

// handlerCall runs one request through the server's whole handler on a
// recorder: everything handleRun does, without the network.
func handlerCall(h http.Handler, p *program) (start time.Time, d time.Duration, err error) {
	req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(p.body))
	rec := httptest.NewRecorder()
	start = time.Now()
	h.ServeHTTP(rec, req)
	d = time.Since(start)
	res := rec.Result()
	if res.StatusCode != http.StatusOK {
		return start, d, fmt.Errorf("handler replay of %s: status %d: %s", p.class, res.StatusCode, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if msg := p.mismatch(rec.Body.Bytes(), res.Trailer.Get("X-Purecd-Ret")); msg != "" {
		return start, d, fmt.Errorf("handler replay of %s: %s", p.class, msg)
	}
	return start, d, nil
}

// spanShare returns the summed duration of the named spans as a share of
// the summed duration of the replay roots.
func spanShare(spans []span, names ...string) float64 {
	var part, whole int64
	for _, s := range spans {
		if s.Name == "replay" {
			whole += s.dur()
		}
		for _, n := range names {
			if s.Name == n {
				part += s.dur()
			}
		}
	}
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// runTraced is a --trace 1 run. It measures a short window of the
// workload over HTTP for the server's own counters, replays the
// workload in-process with spans (handler on a recorder, then the same
// request through the layers' public functions), writes the trace, and
// probes every layer.
func runTraced(w workload, sz sizing, seed int64, seconds float64, outDir string, e *emitter) error {
	progs := w.programs(seed, sz)
	oracleTook, err := runOracle(progs)
	if err != nil {
		return err
	}
	e.emit("interp.oracle_s", oracleTook.Seconds())

	d, cacheDir, _, err := setup(w, sz, outDir, progs)
	if err != nil {
		return err
	}
	defer teardown(d, cacheDir)

	// The server's counters over a window of real traffic.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s0 := d.srv.StatsSnapshot()
	samples := drive(w, d.url, progs, until(time.Now().Add(time.Duration(seconds/4*float64(time.Second)))))
	s1 := d.srv.StatsSnapshot()
	runtime.ReadMemStats(&after)
	if err := samples.failure(); err != nil {
		return err
	}
	if err := samples.checkShape(w); err != nil {
		return err
	}
	ratio := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	classes, ms := samples.classTimes(1)
	e.emit("serve.req_ms_p95", classGeomean(classes, ms, 0.95))
	e.row("serve.req_ms_p95.samples", float64(samples.requests), "count")
	hits, misses := s1.ProgramCache.Hits-s0.ProgramCache.Hits, s1.ProgramCache.Misses-s0.ProgramCache.Misses
	e.emit("serve.cache_hit_ratio", ratio(hits, hits+misses))
	var diskHits, diskMisses uint64
	if s1.DiskCache != nil {
		diskHits, diskMisses = s1.DiskCache.Hits-s0.DiskCache.Hits, s1.DiskCache.Misses-s0.DiskCache.Misses
	}
	e.emit("serve.disk_hit_ratio", ratio(diskHits, diskHits+diskMisses))
	e.emit("serve.pool_reuse_ratio", ratio(s1.Pool.Reuses-s0.Pool.Reuses, s1.Pool.Gets-s0.Pool.Gets))
	e.emit("serve.rejected", float64(s1.Requests.RejectedQuota-s0.Requests.RejectedQuota+s1.Requests.RejectedQueue-s0.Requests.RejectedQueue))
	e.emit("serve.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	e.emit("serve.gc_cycles", float64(after.NumGC-before.NumGC))

	// The replay: untraced and traced passes alternate, so the two see
	// the same drift and their difference is the tracing overhead.
	replayDir := filepath.Join(outDir, "replay-"+w.name)
	defer os.RemoveAll(replayDir)
	rp, err := newReplayer(w, sz, replayDir)
	if err != nil {
		return err
	}
	if err := rp.prime(progs); err != nil {
		return err
	}
	tr := newTracer()
	handler := d.srv.Handler()
	handlerUs := map[string][]float64{}
	replayUs := map[bool]map[string][]float64{false: {}, true: {}}
	request := 0
	for pass := 0; pass < 2*max(1, w.tracePasses/sz.passDiv); pass++ {
		traced := pass%2 == 1
		for _, p := range progs {
			request++
			hstart, hd, err := handlerCall(handler, p)
			if err != nil {
				return err
			}
			handlerUs[p.class] = append(handlerUs[p.class], float64(hd)/1e3)
			var t *tracer
			if traced {
				t = tr
				t.add(request, 0, "serve", "serve.handler", hstart, hd)
			}
			rd, err := rp.request(t, request, p)
			if err != nil {
				return err
			}
			replayUs[traced][p.class] = append(replayUs[traced][p.class], float64(rd)/1e3)
		}
	}
	var perClassHandler, perClassSelf, perClassTraced, perClassUntraced []float64
	for _, c := range classes {
		h := median(handlerUs[c])
		all := append(append([]float64(nil), replayUs[false][c]...), replayUs[true][c]...)
		perClassHandler = append(perClassHandler, h)
		perClassSelf = append(perClassSelf, h-median(all))
		perClassTraced = append(perClassTraced, median(replayUs[true][c]))
		perClassUntraced = append(perClassUntraced, median(replayUs[false][c]))
		e.row("serve.handler_us."+c, h, "us")
		e.row("serve.self_us."+c, h-median(all), "us")
	}
	e.emit("serve.handler_us", geomean(perClassHandler))
	e.emit("serve.self_us", mean(perClassSelf))
	e.emit("bench.trace_overhead_pct", (geomean(perClassTraced)/geomean(perClassUntraced)-1)*100)
	e.emit("trace.front_share", spanShare(tr.spans, "core.Front"))
	e.emit("trace.build_share", spanShare(tr.spans, "core.Key", "ProgramCache.BuildDetail", "DiskCache.Load", "core.Front", "Artifact.Compile"))
	e.emit("trace.run_share", spanShare(tr.spans, "Process.RunMain"))
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := writeTrace(path, traceFile{Workload: w.name, Seed: seed, Spans: tr.spans}); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "trace  %s (%d spans)\n", path, len(tr.spans))

	if err := runProbes(e, sz, seed, outDir); err != nil {
		return err
	}
	e.res.Attempted = samples.requests + request
	e.res.Correct = true
	return nil
}
