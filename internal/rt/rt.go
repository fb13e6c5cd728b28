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
// Every region draws its chunks from one queue: static chunk k belongs
// to worker k mod n, dynamic and guided chunks are claimed from one
// compare-and-swap cursor. A real team drains the queue concurrently,
// the calling goroutine running worker 0's chunks (the thread that
// meets an OpenMP parallel construct is thread 0 of its team); a
// simulated team replays the same queue in chunk order.
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
	"slices"
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
// lower bound. The queue works in this space: offsets of a non-empty
// [lo, hi] always fit uint64, and converting back with lo+int64(off)
// is exact under two's-complement wraparound.
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

// queue is the one chunk source of a region, for every schedule and
// both modes. Static chunk k (k < nchunks) is worker k's contiguous
// block without a chunk size, and the k-th piece of c iterations with
// one; either way it belongs to worker k mod n. Dynamic and guided
// chunks are claimed in offset order from the shared cursor next. A
// real team's goroutines share the queue through wg and box.
type queue struct {
	span
	sched   Schedule
	n       uint64 // team size
	c       uint64 // chunk size; 0 for static blocks
	nchunks uint64 // static: the chunk count; dynamic, guided: a bound on it
	next    atomic.Uint64
	wg      sync.WaitGroup
	box     panicBox
}

// newQueue builds the queue of the non-empty range [lo, hi]. The one
// range whose length exceeds uint64 — the full int64 space — has its
// first iteration peeled by ParallelFor so total stays representable
// (such a loop is unrunnable anyway; this only guarantees we never
// mis-schedule it).
func newQueue(lo, hi int64, n int, sched Schedule, chunk int) *queue {
	q := &queue{span: span{lo: lo, total: uint64(hi-lo) + 1}, sched: sched, n: uint64(n)}
	if sched == Static && chunk < 1 {
		q.nchunks = min(q.n, q.total)
		return q
	}
	q.c = min(uint64(max(chunk, 1)), q.total)
	// ceil(total/c) never overflows, and neither does k*c for
	// k < nchunks (it is at most total-1).
	q.nchunks = q.total / q.c
	if q.total%q.c != 0 {
		q.nchunks++
	}
	return q
}

// chunk returns the k-th chunk of the region: static chunk k, or for
// dynamic and guided the next claim off the cursor (k unused). ok is
// false once the chunks are gone.
func (q *queue) chunk(k uint64) (lo, hi int64, ok bool) {
	var start, end uint64
	switch {
	case q.sched != Static:
		if start, end, ok = q.claim(); !ok {
			return 0, 0, false
		}
	case k >= q.nchunks:
		return 0, 0, false
	case q.c == 0:
		per, rem := q.total/q.n, q.total%q.n
		start = k*per + min(k, rem)
		end = start + per - 1 // wraps when per is 0; k < rem then
		if k < rem {
			end++
		}
	default:
		start = k * q.c
		end = q.chunkEnd(start, q.c)
	}
	lo, hi = q.seg(start, end)
	return lo, hi, true
}

// claim takes the next dynamic or guided chunk, at least c iterations
// and for guided max(c, remaining/(2n)). Claims go through
// compare-and-swap so the cursor never advances past the iteration
// count — a blind fetch-add could wrap the cursor when the range ends
// near the top of the offset space and re-issue executed chunks.
func (q *queue) claim() (start, end uint64, ok bool) {
	for {
		start = q.next.Load()
		if start >= q.total {
			return 0, 0, false
		}
		c := q.c
		if q.sched == Guided {
			c = max(c, (q.total-start)/(2*q.n))
		}
		end = q.chunkEnd(start, c)
		if q.next.CompareAndSwap(start, end+1) {
			return start, end, true
		}
	}
}

// work runs worker w's share of a real team's region — its static
// chunks w, w+n, w+2n, ..., or claims until the cursor runs dry — and
// catches its panic into box: a panicking worker stops executing its
// remaining chunks.
func (q *queue) work(w int, body Body) {
	defer q.box.catch()
	for k := uint64(w); ; k += q.n {
		lo, hi, ok := q.chunk(k)
		if !ok {
			return
		}
		body(w, lo, hi)
		if k+q.n < k {
			return // the next static chunk index would wrap (unreachable in practice)
		}
	}
}

// replay runs a simulated region: the queue's chunks execute
// sequentially in chunk order, chunk k as worker k mod n (so every
// schedule is deterministic at a fixed team size), while their
// measured durations are charged to virtual workers — a static chunk
// to its owner, a dynamic or guided chunk to the least-loaded virtual
// worker plus SimDynamicDispatch, which is what a work queue converges
// to (greedy list scheduling). The region's simulated duration is the
// busiest virtual worker's time plus the fork/join overhead.
func (t *Team) replay(q *queue, body Body) {
	regionStart := time.Now()
	workers := make([]time.Duration, t.n)
	for k := uint64(0); ; k++ {
		lo, hi, ok := q.chunk(k)
		if !ok {
			break
		}
		chunkStart := time.Now()
		body(int(k%q.n), lo, hi)
		d := time.Since(chunkStart)
		if q.sched == Static {
			workers[k%q.n] += d
		} else {
			workers[argmin(workers)] += d + SimDynamicDispatch
		}
	}
	virt := slices.Max(workers) + time.Duration(t.n)*SimForkJoinPerWorker
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

// ParallelFor executes iterations lo..hi (inclusive) across the team
// using the given schedule; it is the one entry of every region, the
// reductions' included. An empty range runs nothing. Simulated teams
// are dispatched before the single-worker fast path: a 1-worker
// simulated team still needs its region accounted, otherwise the
// simulated 1-core baseline would report zero region time. A real
// 1-worker team runs inline, giving the 1-core baseline an honest
// measurement without goroutine overhead. A larger real team runs
// worker 0 on the calling goroutine, whose stack has already grown
// (OpenMP's encountering thread is thread 0 of its team), and starts a
// goroutine only for each other worker that can receive a chunk; a
// panic re-raises on the calling goroutine after every worker has
// stopped. In simulated mode chunk k of the region runs as worker
// k mod n, in chunk order (see replay).
func (t *Team) ParallelFor(lo, hi int64, sched Schedule, chunk int, body Body) {
	if hi < lo {
		return
	}
	if lo == math.MinInt64 && hi == math.MaxInt64 {
		// 2^64 iterations: peel one so the range length fits uint64.
		body(0, lo, lo)
		lo++
	}
	if !t.sim && t.n == 1 {
		body(0, lo, hi)
		return
	}
	q := newQueue(lo, hi, t.n, sched, chunk)
	if t.sim {
		t.replay(q, body)
		return
	}
	for w := 1; w < int(min(q.n, q.nchunks)); w++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			q.work(w, body)
		}()
	}
	q.work(0, body)
	q.wg.Wait()
	q.box.rethrow()
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
// Both run their chunks through ParallelFor, whose simulated replay
// hands chunk k to accumulator k mod n, and share the sim
// combine-on-critical-path accounting, so the subtle parts exist
// exactly once.
func (t *Team) reduceLoop(lo, hi int64, sched Schedule, chunk int,
	alloc func(w int) any, lazy bool, body ReduceBody, combine func(w int, acc any)) {
	if hi < lo {
		return
	}
	accs := make([]any, t.n)
	used := make([]bool, t.n)
	if !lazy {
		for w := range accs {
			accs[w], used[w] = alloc(w), true
		}
	}
	t.ParallelFor(lo, hi, sched, chunk, func(w int, clo, chi int64) {
		if !used[w] {
			accs[w], used[w] = alloc(w), true
		}
		accs[w] = body(w, clo, chi, accs[w])
	})
	// Combine after the join, in worker order 0..n-1 on the calling
	// goroutine. In real mode each accs[w] was only touched by worker
	// w, and the join ordered those writes before this read. In
	// simulated mode the combine runs serially after the barrier, so
	// its wall time is charged to the region's critical path as is.
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

// panicBox carries the first panic raised by a worker across the
// join, so a trap in a parallel region (an out-of-bounds store through
// a data-dependent subscript, say) surfaces on the calling goroutine
// as the same runtime error a sequential loop would raise — instead of
// crashing the process from a goroutine nobody can recover. The
// siblings of a panicking worker drain their chunks before the
// re-raise, so which side effects landed is schedule-dependent,
// exactly like OpenMP.
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

// catch, deferred, records the panic unwinding its caller (first
// writer wins) and stops it.
func (b *panicBox) catch() {
	if r := recover(); r != nil {
		b.mu.Lock()
		if !b.set {
			b.val, b.set = r, true
		}
		b.mu.Unlock()
	}
}

// rethrow re-raises the captured panic on the calling goroutine.
func (b *panicBox) rethrow() {
	if b.set {
		panic(b.val)
	}
}
