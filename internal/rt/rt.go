// Package rt is the OpenMP-analog parallel runtime: a worker team that
// executes parallel-for regions with the two scheduling policies the
// paper's evaluation contrasts — schedule(static), where each thread gets
// one contiguous block (the LAMA configuration, Sect. 4.3.4), and
// schedule(dynamic,1), where threads pull iterations from a shared
// counter to absorb load imbalance (the satellite fix, Sect. 4.3.3).
//
// The team size plays the role of the core count on the paper's 64-core
// Opteron node: requesting more workers than GOMAXPROCS oversubscribes,
// reproducing the scaling plateaus the paper observes beyond the
// machine's effective parallelism.
//
// All chunk bookkeeping runs in unsigned offsets relative to the loop's
// lower bound, so iteration ranges touching the int64 boundaries
// (hi near math.MaxInt64, lo near math.MinInt64) schedule correctly —
// signed chunk stepping like start+chunk-1 would wrap and either skip
// or re-execute iterations there.
package rt

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Schedule selects the loop scheduling policy.
type Schedule int

// Scheduling policies.
const (
	// Static splits the iteration space into one contiguous block per
	// worker (OpenMP schedule(static)).
	Static Schedule = iota
	// Dynamic hands out chunks of ChunkSize iterations from a shared
	// counter (OpenMP schedule(dynamic,c)).
	Dynamic
	// Guided hands out exponentially shrinking chunks.
	Guided
)

var scheduleNames = [...]string{"static", "dynamic", "guided"}

// String returns the schedule name.
func (s Schedule) String() string { return scheduleNames[s] }

// ParseSchedule parses an OpenMP schedule clause body such as "static",
// "dynamic,1" or "guided,4". For static the chunk selects round-robin
// chunked distribution (0 means one contiguous block per worker); for
// dynamic it is the fixed chunk size; for guided the minimum chunk
// size.
func ParseSchedule(s string) (Schedule, int, error) {
	kind, chunkStr, hasChunk := strings.Cut(s, ",")
	kind = strings.TrimSpace(kind)
	chunk := 0
	if hasChunk {
		var err error
		chunk, err = strconv.Atoi(strings.TrimSpace(chunkStr))
		if err != nil || chunk <= 0 {
			return Static, 0, fmt.Errorf("bad %s chunk %q", kind, s)
		}
	}
	switch kind {
	case "", "static":
		return Static, chunk, nil
	case "dynamic":
		if !hasChunk {
			chunk = 1
		}
		return Dynamic, chunk, nil
	case "guided":
		if !hasChunk {
			chunk = 1
		}
		return Guided, chunk, nil
	}
	return Static, 0, fmt.Errorf("unknown schedule %q", s)
}

// ReductionClause is one parsed reduction(op:var) entry of an OpenMP
// parallel-for pragma. Op is the operator symbol exactly as written
// ("+", "*", "-", "max", ...); consumers decide which operators they
// support — purec parallelizes the associative-commutative subset
// {+, *, &, |, ^} and executes other clauses serially.
type ReductionClause struct {
	Op  string
	Var string
}

// ParseOmpReductions extracts every reduction clause of an omp pragma
// line, including clauses with operators purec does not parallelize;
// comma-separated variable lists expand to one entry per variable.
func ParseOmpReductions(pragma string) []ReductionClause {
	var out []ReductionClause
	rest := pragma
	for {
		i := strings.Index(rest, "reduction(")
		if i < 0 {
			return out
		}
		rest = rest[i+len("reduction("):]
		j := strings.IndexByte(rest, ')')
		if j < 0 {
			return out
		}
		body := rest[:j]
		rest = rest[j+1:]
		op, vars, ok := strings.Cut(body, ":")
		if !ok {
			continue
		}
		op = strings.TrimSpace(op)
		if op == "" {
			continue
		}
		for _, v := range strings.Split(vars, ",") {
			if v = strings.TrimSpace(v); v != "" {
				out = append(out, ReductionClause{Op: op, Var: v})
			}
		}
	}
}

// Team is a group of workers executing parallel regions, the analog of
// an OpenMP thread team pinned with numactl in the paper's experiments.
//
// A team runs in one of two modes:
//
//   - real mode (NewTeam): goroutines execute chunks concurrently; wall
//     time reflects the host's actual parallelism;
//   - simulated mode (NewSimTeam): chunks run sequentially (bit-identical
//     results, no data races possible) while their measured durations are
//     assigned to virtual workers according to the schedule policy; the
//     region's simulated duration is the maximum virtual worker time plus
//     a fork/join overhead that grows with the worker count.
//
// Simulated mode is how the benchmark harness reproduces the paper's
// 64-core scaling curves on hosts with fewer cores: it is a substitution
// for the paper's hardware (ARCHITECTURE.md, internal/rt). List scheduling of
// measured chunk times models exactly the effects the paper discusses —
// static block imbalance on the satellite workload versus dynamic,1
// stealing, and the end-of-matrix skew of the LAMA rows.
type Team struct {
	n   int
	sim bool

	mu      sync.Mutex
	simReal time.Duration // wall time spent inside simulated regions
	simVirt time.Duration // simulated parallel time of those regions
}

// SimForkJoinPerWorker is the per-worker fork/join overhead charged to
// every simulated parallel region (the OpenMP thread-team start/barrier
// analog).
const SimForkJoinPerWorker = 300 * time.Nanosecond

// SimDynamicDispatch is the per-chunk dispatch cost charged to dynamic
// and guided schedules in simulated mode (the shared-counter contention
// analog).
const SimDynamicDispatch = 60 * time.Nanosecond

// NewTeam creates a real team of n workers (n >= 1).
func NewTeam(n int) *Team {
	if n < 1 {
		n = 1
	}
	return &Team{n: n}
}

// NewSimTeam creates a team of n simulated workers: execution is
// sequential and deterministic, timing is virtual.
func NewSimTeam(n int) *Team {
	t := NewTeam(n)
	t.sim = true
	return t
}

// Size returns the worker count.
func (t *Team) Size() int { return t.n }

// Simulated reports whether the team is in simulated-time mode.
func (t *Team) Simulated() bool { return t.sim }

// TakeSim returns and resets the accumulated (real, simulated) durations
// of parallel regions executed since the last call.
func (t *Team) TakeSim() (real, virt time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	real, virt = t.simReal, t.simVirt
	t.simReal, t.simVirt = 0, 0
	return real, virt
}

// Body is the per-range work function of a parallel loop: it executes
// iterations [lo, hi] (inclusive) on worker w.
type Body func(w int, lo, hi int64)

// span is an iteration range in unsigned offsets relative to the loop
// lower bound. Every scheduler below works in this space: offsets of a
// non-empty [lo, hi] always fit uint64, and converting back with
// lo+int64(off) is exact under two's-complement wraparound.
type span struct {
	lo    int64
	total uint64 // iteration count; never 0
}

// seg converts an offset range back to inclusive int64 bounds.
func (s span) seg(start, end uint64) (int64, int64) {
	return s.lo + int64(start), s.lo + int64(end)
}

// chunkEnd returns the last offset of the chunk starting at start,
// capped to the iteration space; the end < start comparison catches
// uint64 wraparound of start+chunk-1 for huge chunk values.
func (s span) chunkEnd(start, chunk uint64) uint64 {
	end := start + (chunk - 1)
	if end >= s.total || end < start {
		end = s.total - 1
	}
	return end
}

// normRange validates [lo, hi] and converts it to offset space. The one
// range whose length exceeds uint64 — the full int64 space — has its
// first iteration peeled by the callers so total stays representable
// (such a loop is unrunnable anyway; this only guarantees we never
// mis-schedule it).
func normRange(lo, hi int64) span {
	return span{lo: lo, total: uint64(hi-lo) + 1}
}

// uchunk sanitizes a user chunk size for offset arithmetic.
func (s span) uchunk(chunk int) uint64 {
	if chunk < 1 {
		return 1
	}
	c := uint64(chunk)
	if c > s.total {
		c = s.total
	}
	return c
}

// ParallelFor executes iterations lo..hi (inclusive) across the team
// using the given schedule. Simulated teams are dispatched before the
// single-worker fast path: a 1-worker simulated team still needs its
// region accounted (simFor handles n=1), otherwise the simulated 1-core
// baseline would report zero region time. Real 1-worker teams run
// inline, giving the 1-core baseline an honest measurement without
// goroutine overhead.
func (t *Team) ParallelFor(lo, hi int64, sched Schedule, chunk int, body Body) {
	if hi < lo {
		return
	}
	if lo == math.MinInt64 && hi == math.MaxInt64 {
		// 2^64 iterations: peel one so the range length fits uint64.
		body(0, lo, lo)
		lo++
	}
	if t.sim {
		t.simFor(normRange(lo, hi), sched, chunk, body)
		return
	}
	if t.n == 1 {
		body(0, lo, hi)
		return
	}
	sp := normRange(lo, hi)
	switch sched {
	case Dynamic:
		t.dynamicFor(sp, sp.uchunk(chunk), body)
	case Guided:
		t.guidedFor(sp, sp.uchunk(chunk), body)
	default:
		t.staticFor(sp, chunk, body)
	}
}

// ReduceBody is the per-range work function of a parallel reduction
// loop: it folds iterations [lo, hi] (inclusive) into worker w's private
// accumulator acc and returns the updated accumulator.
type ReduceBody func(w int, lo, hi int64, acc any) any

// ParallelForReduce executes a reduction loop: every worker gets a
// private accumulator from init(w), the accumulator is threaded through
// all chunks that worker executes, and after the join combine(w, acc)
// runs once per worker in worker order 0..n-1 on the calling goroutine.
//
// Determinism contract for floating-point reductions (integer reductions
// are exact regardless of grouping):
//
//   - the combine order is always fixed (worker 0..n-1), so the result
//     depends only on which iterations landed in which accumulator;
//   - static schedules map iterations to workers by position, so real
//     static teams are reproducible run-to-run at a fixed team size;
//   - real dynamic/guided teams assign chunks by arrival — like OpenMP,
//     their float results may vary run-to-run;
//   - simulated teams assign accumulators round-robin in chunk order
//     (decoupled from the timing model's virtual workers), so every
//     schedule is reproducible in simulated mode at a fixed team size.
//
// In simulated mode the chunks execute sequentially under the schedule's
// virtual-worker accounting and the combine is charged on the region's
// critical path (it runs after the barrier, serially).
//
// An empty range (hi < lo) returns without calling init, body or
// combine, leaving the reduction target untouched.
func (t *Team) ParallelForReduce(lo, hi int64, sched Schedule, chunk int,
	init func(w int) any, body ReduceBody, combine func(w int, acc any)) {
	t.reduceLoop(lo, hi, sched, chunk, init, false, body, combine)
}

// ParallelForReduceArray executes an array-reduction loop
// (hist[a[i]]++ with a privatized array): like ParallelForReduce, but
// the per-worker private accumulator — a whole identity-initialized
// array copy — is allocated lazily, on the worker's first chunk, and
// the combine pass visits only workers that executed work. Allocating
// and folding an O(len) copy per worker is the dominant overhead of
// array reductions (the benchmark's rt.reduce_array_us.bins4096.t2
// measures it), so workers that never receive a chunk must not pay it.
//
// alloc(w) returns worker w's private copy (must be non-nil); body
// folds a chunk into it; after the join combine(w, acc) runs in worker
// order 0..n-1 on the calling goroutine, skipping workers whose alloc
// never ran. In simulated mode chunks execute sequentially with
// accumulators assigned round-robin in chunk order (deterministic at a
// fixed team size under every schedule, exactly like
// ParallelForReduce) and the combine pass — O(len · active workers),
// running serially after the barrier — is charged on the region's
// critical path.
//
// An empty range (hi < lo) returns without calling alloc, body or
// combine, leaving the reduction target untouched.
func (t *Team) ParallelForReduceArray(lo, hi int64, sched Schedule, chunk int,
	alloc func(w int) any, body ReduceBody, combine func(w int, acc any)) {
	t.reduceLoop(lo, hi, sched, chunk, alloc, true, body, combine)
}

// reduceLoop is the shared engine behind ParallelForReduce (eager
// accumulators: alloc runs for every worker up front, combine visits
// every worker) and ParallelForReduceArray (lazy: alloc runs on a
// worker's first chunk, combine skips workers that never worked).
// Both contracts share the deterministic sim-mode accumulation, the
// sim combine-on-critical-path accounting and the schedule dispatch,
// so the subtle parts exist exactly once.
func (t *Team) reduceLoop(lo, hi int64, sched Schedule, chunk int,
	alloc func(w int) any, lazy bool, body ReduceBody, combine func(w int, acc any)) {
	if hi < lo {
		return
	}
	accs := make([]any, t.n)
	used := make([]bool, t.n)
	if !lazy {
		for w := range accs {
			accs[w] = alloc(w)
			used[w] = true
		}
	}
	get := func(w int) any {
		if !used[w] {
			accs[w] = alloc(w)
			used[w] = true
		}
		return accs[w]
	}
	if lo == math.MinInt64 && hi == math.MaxInt64 {
		accs[0] = body(0, lo, lo, get(0))
		lo++
	}
	wrapped := func(w int, clo, chi int64) { accs[w] = body(w, clo, chi, get(w)) }
	switch {
	case t.sim:
		// Deterministic accumulation: chunks are produced in a fixed
		// sequential order; assign accumulators round-robin over that
		// order instead of by the timing model's least-loaded virtual
		// worker, which varies with measured durations.
		k := 0
		simWrapped := func(_ int, clo, chi int64) {
			a := k % t.n
			k++
			accs[a] = body(a, clo, chi, get(a))
		}
		t.simFor(normRange(lo, hi), sched, chunk, simWrapped)
	case t.n == 1:
		wrapped(0, lo, hi)
	default:
		sp := normRange(lo, hi)
		switch sched {
		case Dynamic:
			t.dynamicFor(sp, sp.uchunk(chunk), wrapped)
		case Guided:
			t.guidedFor(sp, sp.uchunk(chunk), wrapped)
		default:
			t.staticFor(sp, chunk, wrapped)
		}
	}
	// Combine after the join, in worker order 0..n-1 on the calling
	// goroutine. In real mode each accs[w] was only touched by worker
	// w's goroutine, and wg.Wait in the scheduler ordered those writes
	// before this read. In simulated mode the combine runs serially
	// after the barrier, so its wall time is charged to the region's
	// critical path as is.
	var start time.Time
	if t.sim {
		start = time.Now()
	}
	for w := range accs {
		if used[w] {
			combine(w, accs[w])
		}
	}
	if t.sim {
		d := time.Since(start)
		t.mu.Lock()
		t.simReal += d
		t.simVirt += d
		t.mu.Unlock()
	}
}

// simFor runs the region sequentially while accounting virtual worker
// times per the schedule policy.
func (t *Team) simFor(sp span, sched Schedule, chunk int, body Body) {
	regionStart := time.Now()
	workers := make([]time.Duration, t.n)
	uchunk := sp.uchunk(chunk)
	switch sched {
	case Dynamic, Guided:
		// Greedy list scheduling: each chunk goes to the least-loaded
		// virtual worker, which is what a work queue converges to.
		cur := uint64(0)
		for cur < sp.total {
			c := uchunk
			if sched == Guided {
				c = (sp.total - cur) / uint64(2*t.n)
				if c < uchunk {
					c = uchunk
				}
			}
			end := sp.chunkEnd(cur, c)
			w := argmin(workers)
			clo, chi := sp.seg(cur, end)
			chunkStart := time.Now()
			body(w, clo, chi)
			workers[w] += time.Since(chunkStart) + SimDynamicDispatch
			if end == sp.total-1 {
				break
			}
			cur = end + 1
		}
	default:
		if chunk >= 1 {
			// schedule(static,c): chunks assigned round-robin.
			n := uint64(t.n)
			for k, start := uint64(0), uint64(0); ; k++ {
				end := sp.chunkEnd(start, uchunk)
				w := int(k % n)
				clo, chi := sp.seg(start, end)
				chunkStart := time.Now()
				body(w, clo, chi)
				workers[w] += time.Since(chunkStart)
				if end == sp.total-1 {
					break
				}
				start = end + 1
			}
			break
		}
		// Default static: one contiguous block per worker.
		per := sp.total / uint64(t.n)
		rem := sp.total % uint64(t.n)
		start := uint64(0)
		for w := 0; w < t.n; w++ {
			cnt := per
			if uint64(w) < rem {
				cnt++
			}
			if cnt == 0 {
				continue
			}
			blo, bhi := sp.seg(start, start+cnt-1)
			blockStart := time.Now()
			body(w, blo, bhi)
			workers[w] += time.Since(blockStart)
			start += cnt
		}
	}
	var maxW time.Duration
	for _, d := range workers {
		if d > maxW {
			maxW = d
		}
	}
	virt := maxW + time.Duration(t.n)*SimForkJoinPerWorker
	t.mu.Lock()
	t.simReal += time.Since(regionStart)
	t.simVirt += virt
	t.mu.Unlock()
}

func argmin(ds []time.Duration) int {
	best := 0
	for i, d := range ds {
		if d < ds[best] {
			best = i
		}
	}
	return best
}

// panicBox carries the first panic raised inside a worker goroutine
// across the join, so a trap in a parallel region (an out-of-bounds
// store through a data-dependent subscript, say) surfaces on the
// calling goroutine as the same runtime error a sequential loop would
// raise — instead of crashing the process from a goroutine nobody can
// recover. A panicking worker stops executing its remaining chunks;
// the siblings drain theirs before the re-raise, so which side
// effects landed is schedule-dependent, exactly like OpenMP.
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

// protect runs f, capturing its panic (first writer wins).
func (b *panicBox) protect(f func()) {
	defer func() {
		if r := recover(); r != nil {
			b.mu.Lock()
			if !b.set {
				b.val, b.set = r, true
			}
			b.mu.Unlock()
		}
	}()
	f()
}

// rethrow re-raises the captured panic on the calling goroutine.
func (b *panicBox) rethrow() {
	if b.set {
		panic(b.val)
	}
}

// staticFor assigns worker w the w-th contiguous block; with an
// explicit chunk (schedule(static,c)) chunks go round-robin instead.
func (t *Team) staticFor(sp span, chunk int, body Body) {
	var box panicBox
	if chunk >= 1 {
		uchunk := sp.uchunk(chunk)
		// Worker w owns chunks w, w+n, w+2n, ... of the chunk grid.
		// nchunks = ceil(total/uchunk) never overflows, and neither does
		// ck*uchunk for ck < nchunks (it is at most total-1).
		nchunks := sp.total / uchunk
		if sp.total%uchunk != 0 {
			nchunks++
		}
		n := uint64(t.n)
		var wg sync.WaitGroup
		for w := uint64(0); w < n && w < nchunks; w++ {
			wg.Add(1)
			go func(w uint64) {
				defer wg.Done()
				box.protect(func() {
					for ck := w; ck < nchunks; {
						start := ck * uchunk
						end := sp.chunkEnd(start, uchunk)
						clo, chi := sp.seg(start, end)
						body(int(w), clo, chi)
						if ck > math.MaxUint64-n {
							break // next chunk index would wrap (unreachable in practice)
						}
						ck += n
					}
				})
			}(w)
		}
		wg.Wait()
		box.rethrow()
		return
	}
	per := sp.total / uint64(t.n)
	rem := sp.total % uint64(t.n)
	var wg sync.WaitGroup
	start := uint64(0)
	for w := 0; w < t.n; w++ {
		cnt := per
		if uint64(w) < rem {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		wLo, wHi := sp.seg(start, start+cnt-1)
		start += cnt
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			box.protect(func() { body(w, lo, hi) })
		}(w, wLo, wHi)
	}
	wg.Wait()
	box.rethrow()
}

// dynamicFor hands out chunks from a shared counter. Claims go through
// compare-and-swap so the counter never advances past the iteration
// count — a blind fetch-add could wrap the counter when the range ends
// near the top of the offset space and re-issue already-executed chunks.
func (t *Team) dynamicFor(sp span, uchunk uint64, body Body) {
	var box panicBox
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < t.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			box.protect(func() {
				for {
					start := next.Load()
					if start >= sp.total {
						return
					}
					end := sp.chunkEnd(start, uchunk)
					if !next.CompareAndSwap(start, end+1) {
						continue
					}
					clo, chi := sp.seg(start, end)
					body(w, clo, chi)
				}
			})
		}(w)
	}
	wg.Wait()
	box.rethrow()
}

// guidedFor hands out exponentially shrinking chunks of at least
// minChunk iterations (the OpenMP schedule(guided,c) clause).
func (t *Team) guidedFor(sp span, minChunk uint64, body Body) {
	var box panicBox
	var mu sync.Mutex
	cur := uint64(0)
	var wg sync.WaitGroup
	for w := 0; w < t.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			box.protect(func() {
				for {
					mu.Lock()
					if cur >= sp.total {
						mu.Unlock()
						return
					}
					remaining := sp.total - cur
					chunk := remaining / uint64(2*t.n)
					if chunk < minChunk {
						chunk = minChunk
					}
					if chunk > remaining {
						chunk = remaining
					}
					start := cur
					cur += chunk
					mu.Unlock()
					clo, chi := sp.seg(start, start+chunk-1)
					body(w, clo, chi)
				}
			})
		}(w)
	}
	wg.Wait()
	box.rethrow()
}
