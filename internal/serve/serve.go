// Package serve is the compile-and-run service behind cmd/purecd: an
// HTTP layer over the purec tool chain that accepts {source, inputs,
// options} requests, serves compilations from the in-memory program
// cache backed by the persistent on-disk cache, executes each request
// in a per-run Process drawn from a per-program Process pool
// (reset-don't-reallocate), and enforces bounded admission — a global
// concurrency limit with a bounded, timed wait queue plus per-program
// run quotas. Guest stdout streams as the response body, byte-for-byte
// what purecc would print; run metadata travels in headers and HTTP
// trailers so streaming never has to buffer.
//
// Endpoints:
//
//	POST /run      compile (cached) and execute; body = guest stdout
//	GET  /stats    cache/memo hit rates, pool reuse, admission, latency
//	GET  /healthz  liveness probe
//
// A body longer than Options.MaxSourceBytes is answered 413. The body
// is read whole and must hold one JSON object; data after it is a 400.
//
// Overload behaviour: a request over the per-program quota is rejected
// immediately with 429; a request that finds the global wait queue full,
// or times out waiting for a run slot, is rejected with 503. Rejections
// are cheap (no build, no Process) so saturation drains cleanly.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/rt"
	"purec/internal/transform"
)

// Options configure a Server. Zero values select the documented
// defaults.
type Options struct {
	// MaxConcurrent bounds the builds+runs executing at once (default
	// GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds the requests allowed to wait for a run slot
	// beyond the ones holding slots (default 4×MaxConcurrent). A full
	// queue rejects with 503 immediately.
	QueueDepth int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before a 503 (default 5s).
	QueueTimeout time.Duration
	// PerProgramLimit bounds the concurrent runs of one compiled
	// program (default MaxConcurrent); the excess rejects with 429.
	PerProgramLimit int
	// PoolSize bounds the idle Processes retained per program (default
	// MaxConcurrent).
	PoolSize int
	// CacheDir, when set, layers a persistent on-disk program cache
	// under the in-memory one, so a restarted daemon serves previously
	// built programs without re-entering the compile chain.
	CacheDir string
	// DiskEntries bounds the on-disk cache entry count (0 = unlimited).
	DiskEntries int
	// CacheSize bounds the in-memory program cache (default 128).
	CacheSize int
	// MaxSourceBytes bounds the request body (default 4MB); a longer
	// body is answered 413.
	MaxSourceBytes int64
	// MaxCores bounds the per-request team size (default 64).
	MaxCores int
}

func (o *Options) fill() {
	if o.MaxConcurrent < 1 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 4 * o.MaxConcurrent
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 5 * time.Second
	}
	if o.PerProgramLimit < 1 {
		o.PerProgramLimit = o.MaxConcurrent
	}
	if o.PoolSize < 1 {
		o.PoolSize = o.MaxConcurrent
	}
	if o.CacheSize < 1 {
		o.CacheSize = 128
	}
	if o.MaxSourceBytes <= 0 {
		o.MaxSourceBytes = 4 << 20
	}
	if o.MaxCores < 1 {
		o.MaxCores = 64
	}
}

// Server is the compile-and-run service state: the layered program
// caches, the per-program Process pools and run quotas, the admission
// gate and the observability counters.
type Server struct {
	opts  Options
	cache *core.ProgramCache
	start time.Time

	// slots is the global admission semaphore; queued counts the
	// requests waiting on it.
	slots  chan struct{}
	queued atomic.Int64

	// mu guards the pools, which outlive cache rebuilds, and the run
	// counts of the programs being served; a count's entry is dropped
	// when it returns to zero.
	mu     sync.Mutex
	pools  map[core.CacheKey]*comp.ProcessPool
	quotas map[core.CacheKey]int

	reqs    reqCounters
	latency latencyRecorder
}

// reqCounters are the admission/outcome counters of /stats.
type reqCounters struct {
	Total         atomic.Uint64
	OK            atomic.Uint64
	Trapped       atomic.Uint64
	BuildErrors   atomic.Uint64
	BadRequests   atomic.Uint64
	RejectedQuota atomic.Uint64
	RejectedQueue atomic.Uint64
	InFlight      atomic.Int64
}

// latencyRecorder keeps a running per-request latency summary.
type latencyRecorder struct {
	mu    sync.Mutex
	count uint64
	total time.Duration
	max   time.Duration
}

func (l *latencyRecorder) record(d time.Duration) {
	l.mu.Lock()
	l.count++
	l.total += d
	if d > l.max {
		l.max = d
	}
	l.mu.Unlock()
}

func (l *latencyRecorder) snapshot() (count uint64, avg, max time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count > 0 {
		avg = l.total / time.Duration(l.count)
	}
	return l.count, avg, l.max
}

// New creates a Server. With Options.CacheDir set, the on-disk cache is
// opened (created if missing) and layered under the in-memory cache.
func New(opts Options) (*Server, error) {
	opts.fill()
	s := &Server{
		opts:   opts,
		cache:  core.NewProgramCache(opts.CacheSize),
		start:  time.Now(),
		slots:  make(chan struct{}, opts.MaxConcurrent),
		pools:  map[core.CacheKey]*comp.ProcessPool{},
		quotas: map[core.CacheKey]int{},
	}
	if opts.CacheDir != "" {
		disk, err := core.NewDiskCache(opts.CacheDir, opts.DiskEntries)
		if err != nil {
			return nil, err
		}
		s.cache.WithDisk(disk)
	}
	return s, nil
}

// Cache returns the server's program cache (tests inspect its stats).
func (s *Server) Cache() *core.ProgramCache { return s.cache }

// Handler returns the HTTP handler serving /run, /stats and /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// RunRequest is the JSON body of POST /run.
type RunRequest struct {
	// Source is the mini-C program text.
	Source string `json:"source"`
	// Defines are injected object-like macros (purecc -D).
	Defines map[string]string `json:"defines,omitempty"`
	// Options select the build and run configuration.
	Options RunOptions `json:"options"`
}

// RunOptions is the request-visible subset of the build/run knobs.
// Every field is part of the program's content address except Cores,
// which only sizes the run's worker team.
type RunOptions struct {
	// Backend selects the compiler analog: "gcc" (default) or "icc".
	Backend string `json:"backend,omitempty"`
	// Cores sizes the worker team of this run (default 1).
	Cores int `json:"cores,omitempty"`
	// Sequential disables parallelization (the purecc -seq baseline).
	Sequential bool `json:"sequential,omitempty"`
	// Schedule is the OpenMP schedule clause (e.g. "dynamic,1").
	Schedule string `json:"schedule,omitempty"`
	// Memoize enables pure-call memoization; the table is shared by
	// every pooled Process of the program, so hits accumulate across
	// requests.
	Memoize bool `json:"memoize,omitempty"`
}

// config translates a request into the pipeline Config (cache controls
// and run state excluded — the server owns those).
func (s *Server) config(req *RunRequest) (core.Config, error) {
	cfg := core.Config{
		FileName:    "request.c",
		Defines:     req.Defines,
		Parallelize: !req.Options.Sequential,
		Transform:   transform.Options{Schedule: req.Options.Schedule},
		Memoize:     req.Options.Memoize,
	}
	switch req.Options.Backend {
	case "", "gcc":
		cfg.Backend = comp.BackendGCC
	case "icc":
		cfg.Backend = comp.BackendICC
	default:
		return cfg, fmt.Errorf("unknown backend %q (want gcc or icc)", req.Options.Backend)
	}
	if _, _, err := rt.ParseSchedule(req.Options.Schedule); err != nil {
		return cfg, err
	}
	if req.Options.Cores < 0 || req.Options.Cores > s.opts.MaxCores {
		return cfg, fmt.Errorf("cores must be in [0,%d]", s.opts.MaxCores)
	}
	return cfg, nil
}

// jsonError writes a structured error response.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// acquireSlot admits the request into the global concurrency gate,
// waiting in the bounded queue when all slots are busy. It reports
// false (and writes the 503) when the queue is full or the wait times
// out; on true the caller must release the slot.
func (s *Server) acquireSlot(w http.ResponseWriter) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	if s.queued.Add(1) > int64(s.opts.QueueDepth) {
		s.queued.Add(-1)
		s.reqs.RejectedQueue.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "admission queue full (%d waiting)", s.opts.QueueDepth)
		return false
	}
	defer s.queued.Add(-1)
	t := time.NewTimer(s.opts.QueueTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return true
	case <-t.C:
		s.reqs.RejectedQueue.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "timed out after %s waiting for a run slot", s.opts.QueueTimeout)
		return false
	}
}

// pool returns the Process pool of a program, creating it on first use.
func (s *Server) pool(key core.CacheKey, prog *comp.Program, cores int) *comp.ProcessPool {
	s.mu.Lock()
	defer s.mu.Unlock()
	pool, ok := s.pools[key]
	if !ok {
		pool = prog.NewPool(comp.PoolOptions{
			Size:    s.opts.PoolSize,
			NewTeam: func() *rt.Team { return rt.NewTeam(cores) },
		})
		s.pools[key] = pool
	}
	return pool
}

// enter counts a run of the program against its quota, false when the
// quota is full.
func (s *Server) enter(key core.CacheKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quotas[key] >= s.opts.PerProgramLimit {
		return false
	}
	s.quotas[key]++
	return true
}

// leave ends a run counted by enter.
func (s *Server) leave(key core.CacheKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quotas[key]--; s.quotas[key] == 0 {
		delete(s.quotas, key)
	}
}

// handleRun serves POST /run: admit, build (cached), draw a pooled
// Process, execute, stream stdout.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.reqs.Total.Add(1)
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req RunRequest
	if err := s.decode(w, r, &req); err != nil {
		s.reqs.BadRequests.Add(1)
		// An oversize body is a size problem, not malformed JSON.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			jsonError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		jsonError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Source == "" {
		s.reqs.BadRequests.Add(1)
		jsonError(w, http.StatusBadRequest, "missing source")
		return
	}
	cfg, err := s.config(&req)
	if err != nil {
		s.reqs.BadRequests.Add(1)
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := core.Key(req.Source, cfg)

	// Per-program quota first: rejecting over-quota requests before the
	// global gate keeps one hot program from starving the queue for
	// everyone else.
	if !s.enter(key) {
		s.reqs.RejectedQuota.Add(1)
		jsonError(w, http.StatusTooManyRequests, "per-program run quota (%d) exceeded", s.opts.PerProgramLimit)
		return
	}
	defer s.leave(key)

	// Global admission: the slot covers the build too — compilation is
	// the expensive phase a saturated daemon must bound.
	if !s.acquireSlot(w) {
		return
	}
	defer func() { <-s.slots }()

	s.reqs.InFlight.Add(1)
	defer s.reqs.InFlight.Add(-1)
	start := time.Now()
	defer func() { s.latency.record(time.Since(start)) }()

	prog, _, source, err := s.cache.BuildKeyed(key, req.Source, cfg)
	if err != nil {
		s.reqs.BuildErrors.Add(1)
		jsonError(w, http.StatusUnprocessableEntity, "build: %v", err)
		return
	}

	cores := req.Options.Cores
	if cores < 1 {
		cores = 1
	}
	pool := s.pool(key, prog, cores)
	proc, err := pool.Get()
	if err != nil {
		// A global array past mem.MaxSegmentCells traps while the
		// Process lays out its globals: a guest fault like any other.
		var trap *comp.RuntimeError
		if errors.As(err, &trap) {
			s.reqs.Trapped.Add(1)
			jsonError(w, http.StatusUnprocessableEntity, "run: %v", err)
			return
		}
		jsonError(w, http.StatusInternalServerError, "process: %v", err)
		return
	}
	defer pool.Put(proc)
	poolState := "fresh"
	if proc.Reused() {
		poolState = "reused"
	}
	// Pools hand back the Process with whatever team it was created
	// with; honor this request's core count.
	if proc.Team() == nil || proc.Team().Size() != cores {
		proc.SetTeam(rt.NewTeam(cores))
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Purecd-Program", key.String()[:16])
	w.Header().Set("X-Purecd-Build", source.String())
	w.Header().Set("X-Purecd-Pool", poolState)

	out := &deferredWriter{w: w}
	proc.SetStdout(out)
	ret, runErr := proc.RunMain()
	proc.SetStdout(nil)
	if runErr != nil {
		s.reqs.Trapped.Add(1)
		if !out.wrote {
			// Nothing streamed yet: a clean structured error response.
			jsonError(w, http.StatusUnprocessableEntity, "run: %v", runErr)
			return
		}
		// Output already streamed; the error travels as a trailer.
		w.Header().Set(http.TrailerPrefix+"X-Purecd-Error", runErr.Error())
		return
	}
	out.ensureHeader()
	w.Header().Set(http.TrailerPrefix+"X-Purecd-Ret", fmt.Sprintf("%d", ret))
	s.reqs.OK.Add(1)
}

// bodyPool holds the buffers request bodies are read into. A buffer
// that grew past maxPooledBody is left to the collector, so one huge
// request does not pin its memory in the pool (fmt's printer pool does
// the same).
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// decode reads the whole body, up to MaxSourceBytes, into a pooled
// buffer and unmarshals it as one JSON object: data after the object is
// an error. The decoded strings are copies, so the buffer goes back to
// the pool before decode returns.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req *RunRequest) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if n := r.ContentLength; n > 0 && n <= s.opts.MaxSourceBytes {
		// The extra MinRead keeps ReadFrom's final, empty read from
		// growing the buffer.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxSourceBytes)); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), req)
}

// deferredWriter delays WriteHeader until the guest's first output
// byte, so a run that traps before printing can still get a structured
// error status, while a run that prints streams live (each write is
// flushed so long-running guests stream incrementally).
type deferredWriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (d *deferredWriter) ensureHeader() {
	if !d.wrote {
		d.wrote = true
		d.w.WriteHeader(http.StatusOK)
	}
}

func (d *deferredWriter) Write(p []byte) (int, error) {
	d.ensureHeader()
	n, err := d.w.Write(p)
	if f, ok := d.w.(http.Flusher); ok {
		f.Flush()
	}
	return n, err
}

// Stats is the JSON shape of GET /stats.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      struct {
		Total         uint64 `json:"total"`
		OK            uint64 `json:"ok"`
		Trapped       uint64 `json:"trapped"`
		BuildErrors   uint64 `json:"build_errors"`
		BadRequests   uint64 `json:"bad_requests"`
		RejectedQuota uint64 `json:"rejected_quota_429"`
		RejectedQueue uint64 `json:"rejected_queue_503"`
		InFlight      int64  `json:"in_flight"`
		Queued        int64  `json:"queued"`
	} `json:"requests"`
	Latency struct {
		Count uint64  `json:"count"`
		AvgMs float64 `json:"avg_ms"`
		MaxMs float64 `json:"max_ms"`
	} `json:"latency"`
	ProgramCache struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		HitRate float64 `json:"hit_rate"`
		Len     int     `json:"len"`
	} `json:"program_cache"`
	DiskCache *core.DiskStats `json:"disk_cache,omitempty"`
	Pool      struct {
		Programs  int    `json:"programs"`
		Gets      uint64 `json:"gets"`
		Reuses    uint64 `json:"reuses"`
		Fresh     uint64 `json:"fresh"`
		Discarded uint64 `json:"discarded"`
	} `json:"pool"`
	Memo struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"memo"`
}

// StatsSnapshot assembles the /stats payload.
func (s *Server) StatsSnapshot() *Stats {
	st := &Stats{UptimeSeconds: time.Since(s.start).Seconds()}
	st.Requests.Total = s.reqs.Total.Load()
	st.Requests.OK = s.reqs.OK.Load()
	st.Requests.Trapped = s.reqs.Trapped.Load()
	st.Requests.BuildErrors = s.reqs.BuildErrors.Load()
	st.Requests.BadRequests = s.reqs.BadRequests.Load()
	st.Requests.RejectedQuota = s.reqs.RejectedQuota.Load()
	st.Requests.RejectedQueue = s.reqs.RejectedQueue.Load()
	st.Requests.InFlight = s.reqs.InFlight.Load()
	st.Requests.Queued = s.queued.Load()

	count, avg, max := s.latency.snapshot()
	st.Latency.Count = count
	st.Latency.AvgMs = float64(avg) / float64(time.Millisecond)
	st.Latency.MaxMs = float64(max) / float64(time.Millisecond)

	hits, misses := s.cache.Stats()
	st.ProgramCache.Hits, st.ProgramCache.Misses = hits, misses
	if hits+misses > 0 {
		st.ProgramCache.HitRate = float64(hits) / float64(hits+misses)
	}
	st.ProgramCache.Len = s.cache.Len()
	if d := s.cache.Disk(); d != nil {
		ds := d.Stats()
		st.DiskCache = &ds
	}

	s.mu.Lock()
	pools := make([]*comp.ProcessPool, 0, len(s.pools))
	for _, p := range s.pools {
		pools = append(pools, p)
	}
	s.mu.Unlock()
	st.Pool.Programs = len(pools)
	var memoHits, memoMisses uint64
	for _, p := range pools {
		ps := p.Stats()
		st.Pool.Gets += ps.Gets
		st.Pool.Reuses += ps.Reuses
		st.Pool.Fresh += ps.Fresh
		st.Pool.Discarded += ps.Discarded
		ms := p.Program().MemoStats()
		memoHits += uint64(ms.Hits)
		memoMisses += uint64(ms.Misses)
	}
	st.Memo.Hits, st.Memo.Misses = memoHits, memoMisses
	if memoHits+memoMisses > 0 {
		st.Memo.HitRate = float64(memoHits) / float64(memoHits+memoMisses)
	}
	return st
}

// handleStats serves GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.StatsSnapshot()); err != nil && !errors.Is(err, http.ErrHandlerTimeout) {
		// Encoding into a live ResponseWriter can only fail on a gone
		// client; nothing to do.
		_ = err
	}
}
