package rt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// coverage checks that a schedule visits every iteration exactly once.
func coverage(t *testing.T, team *Team, sched Schedule, chunk int, lo, hi int64) {
	t.Helper()
	n := hi - lo + 1
	var mu sync.Mutex
	seen := make(map[int64]int)
	team.ParallelFor(lo, hi, sched, chunk, func(_ int, clo, chi int64) {
		mu.Lock()
		for i := clo; i <= chi; i++ {
			seen[i]++
		}
		mu.Unlock()
	})
	if int64(len(seen)) != n {
		t.Fatalf("visited %d iterations, want %d", len(seen), n)
	}
	for i := lo; i <= hi; i++ {
		if seen[i] != 1 {
			t.Fatalf("iteration %d visited %d times", i, seen[i])
		}
	}
}

func TestStaticCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		coverage(t, NewTeam(workers), Static, 0, 0, 99)
		coverage(t, NewTeam(workers), Static, 0, 5, 5)
		coverage(t, NewTeam(workers), Static, 0, -3, 12)
	}
}

func TestDynamicCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{1, 3, 100} {
			coverage(t, NewTeam(workers), Dynamic, chunk, 0, 57)
		}
	}
}

func TestGuidedCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		coverage(t, NewTeam(workers), Guided, 0, 0, 200)
	}
}

func TestSimCoverage(t *testing.T) {
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		coverage(t, NewSimTeam(8), sched, 1, 0, 63)
	}
}

func TestEmptyRange(t *testing.T) {
	ran := false
	NewTeam(4).ParallelFor(5, 4, Static, 0, func(_ int, _, _ int64) { ran = true })
	if ran {
		t.Fatal("empty range must not execute")
	}
}

func TestMoreWorkersThanIterations(t *testing.T) {
	coverage(t, NewTeam(64), Static, 0, 0, 9)
	coverage(t, NewTeam(64), Dynamic, 1, 0, 9)
}

func TestRealParallelSum(t *testing.T) {
	var sum atomic.Int64
	NewTeam(4).ParallelFor(1, 1000, Static, 0, func(_ int, lo, hi int64) {
		var local int64
		for i := lo; i <= hi; i++ {
			local += i
		}
		sum.Add(local)
	})
	if got := sum.Load(); got != 500500 {
		t.Fatalf("sum: %d", got)
	}
}

func TestSimAccounting(t *testing.T) {
	team := NewSimTeam(4)
	team.ParallelFor(0, 7, Static, 0, func(_ int, lo, hi int64) {
		time.Sleep(time.Millisecond)
	})
	real, virt := team.TakeSim()
	if real <= 0 || virt <= 0 {
		t.Fatalf("accounting: real=%v virt=%v", real, virt)
	}
	// 4 sequential blocks of ~1ms should simulate to ~1ms + overhead,
	// well below the ~4ms real time.
	if virt >= real {
		t.Fatalf("simulated time %v must be below real %v", virt, real)
	}
	// second take must be zero
	r2, v2 := team.TakeSim()
	if r2 != 0 || v2 != 0 {
		t.Fatal("TakeSim must reset")
	}
}

func TestSimDynamicBalancesSkewedLoad(t *testing.T) {
	// Heavy tail: last iterations cost ~20x. Static blocks pin the tail
	// to one worker; dynamic spreads it. The kernel is sized so each
	// tail iteration takes tens of microseconds — large against timer
	// noise — and the comparison retries to ride out scheduler hiccups
	// on a loaded test box.
	work := func(i int64) {
		n := 5000
		if i >= 90 {
			n = 100000
		}
		x := 0.0
		for k := 0; k < n; k++ {
			x += float64(k)
		}
		_ = x
	}
	run := func(sched Schedule, chunk int) time.Duration {
		team := NewSimTeam(8)
		team.ParallelFor(0, 99, sched, chunk, func(_ int, lo, hi int64) {
			for i := lo; i <= hi; i++ {
				work(i)
			}
		})
		_, virt := team.TakeSim()
		return virt
	}
	// chunk 0: default static, one contiguous block per worker (the
	// imbalanced configuration the paper's satellite fix targets).
	var static, dynamic time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		static = run(Static, 0)
		dynamic = run(Dynamic, 1)
		if dynamic < static {
			return
		}
	}
	t.Fatalf("dynamic (%v) must beat static (%v) on a skewed tail", dynamic, static)
}

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		in    string
		sched Schedule
		chunk int
		err   bool
	}{
		{"", Static, 0, false},
		{"static", Static, 0, false},
		{"static,8", Static, 8, false},
		{"dynamic", Dynamic, 1, false},
		{"dynamic,1", Dynamic, 1, false},
		{"dynamic,8", Dynamic, 8, false},
		{"dynamic, 4", Dynamic, 4, false},
		{"guided", Guided, 1, false},
		{"guided,4", Guided, 4, false},
		{"guided, 16", Guided, 16, false},
		{"bogus", Static, 0, true},
		{"dynamic,x", Dynamic, 1, true},
		{"dynamic,0", Dynamic, 1, true},
		{"guided,x", Guided, 1, true},
		{"guided,-2", Guided, 1, true},
	}
	for _, c := range cases {
		s, ch, err := ParseSchedule(c.in)
		if (err != nil) != c.err {
			t.Errorf("%q: err=%v", c.in, err)
			continue
		}
		if err == nil && (s != c.sched || ch != c.chunk) {
			t.Errorf("%q: got %v,%d want %v,%d", c.in, s, ch, c.sched, c.chunk)
		}
	}
}

// TestParseScheduleEdgeCases covers the clause-body corners the
// pragma path can produce: whitespace in every position, explicit
// chunks with each kind, zero/negative/garbage chunks, and unknown
// schedule kinds.
func TestParseScheduleEdgeCases(t *testing.T) {
	cases := []struct {
		in    string
		sched Schedule
		chunk int
		err   bool
	}{
		// whitespace variants
		{" static ", Static, 0, false},
		{"\tstatic\t", Static, 0, false},
		{" static , 8 ", Static, 8, false},
		{"dynamic, 4", Dynamic, 4, false},
		{" dynamic ,4", Dynamic, 4, false},
		{"guided,\t16", Guided, 16, false},
		// defaults with and without chunks
		{"", Static, 0, false},
		{"static,1", Static, 1, false},
		{"dynamic", Dynamic, 1, false},
		{"guided", Guided, 1, false},
		// zero and negative chunks are rejected for every kind
		{"static,0", Static, 0, true},
		{"static,-1", Static, 0, true},
		{"dynamic,0", Dynamic, 0, true},
		{"dynamic,-4", Dynamic, 0, true},
		{"guided,0", Guided, 0, true},
		{"guided,-2", Guided, 0, true},
		// non-numeric chunks
		{"static,x", Static, 0, true},
		{"dynamic,1.5", Dynamic, 0, true},
		{"guided,", Guided, 0, true},
		{"dynamic, ", Dynamic, 0, true},
		// unknown kinds (OpenMP auto/runtime are not modeled; the
		// parser is case-sensitive like the C pragma grammar here)
		{"auto", Static, 0, true},
		{"runtime", Static, 0, true},
		{"STATIC", Static, 0, true},
		{"Dynamic,2", Static, 0, true},
		{"static,4,8", Static, 0, true},
	}
	for _, c := range cases {
		s, ch, err := ParseSchedule(c.in)
		if (err != nil) != c.err {
			t.Errorf("%q: err = %v, want error %v", c.in, err, c.err)
			continue
		}
		if err == nil && (s != c.sched || ch != c.chunk) {
			t.Errorf("%q: got %v,%d want %v,%d", c.in, s, ch, c.sched, c.chunk)
		}
	}
}

// TestAllSchedulesCoverageMatrix is the exactly-once contract for every
// schedule policy in both execution modes: for each (schedule, chunk,
// workers, range) cell, real-mode ParallelFor (workers draining the
// region's queue concurrently) and simulated-mode ParallelFor (replay
// of the same queue) must execute every iteration in [lo,hi] exactly
// once.
func TestAllSchedulesCoverageMatrix(t *testing.T) {
	ranges := []struct{ lo, hi int64 }{
		{0, 0},    // single iteration
		{0, 99},   // plain range
		{-7, 23},  // negative lower bound
		{50, 307}, // offset range larger than any chunk
	}
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		for _, chunk := range []int{0, 1, 7, 64} {
			for _, workers := range []int{1, 3, 8} {
				for _, r := range ranges {
					coverage(t, NewTeam(workers), sched, chunk, r.lo, r.hi)
					coverage(t, NewSimTeam(workers), sched, chunk, r.lo, r.hi)
				}
			}
		}
	}
}

// Property: static partitioning is a partition for arbitrary ranges and
// team sizes.
func TestStaticPartitionProperty(t *testing.T) {
	f := func(loRaw int16, span uint8, workers uint8) bool {
		lo := int64(loRaw)
		hi := lo + int64(span)
		w := int(workers%32) + 1
		var mu sync.Mutex
		count := map[int64]int{}
		NewTeam(w).ParallelFor(lo, hi, Static, 0, func(_ int, clo, chi int64) {
			mu.Lock()
			for i := clo; i <= chi; i++ {
				count[i]++
			}
			mu.Unlock()
		})
		if int64(len(count)) != int64(span)+1 {
			return false
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGuidedChunkCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, chunk := range []int{1, 4, 50} {
			coverage(t, NewTeam(workers), Guided, chunk, 0, 200)
			coverage(t, NewSimTeam(workers), Guided, chunk, 0, 200)
		}
	}
}

func TestStaticChunkCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, chunk := range []int{1, 4, 50, 300} {
			coverage(t, NewTeam(workers), Static, chunk, 0, 200)
			coverage(t, NewSimTeam(workers), Static, chunk, 0, 200)
			coverage(t, NewTeam(workers), Static, chunk, -3, 12)
		}
	}
}

// ----------------------------------------------------------------------------
// PR 3: boundary-value scheduling, 1-worker sim accounting, reductions

// boundaryCoverage verifies exactly-once coverage without iterating
// int64 values (i++ itself would wrap at MaxInt64): chunks are recorded
// as unsigned offsets from lo.
func boundaryCoverage(t *testing.T, team *Team, sched Schedule, chunk int, lo, hi int64) {
	t.Helper()
	total := uint64(hi-lo) + 1
	var mu sync.Mutex
	type rng struct{ s, e uint64 }
	var got []rng
	done := make(chan struct{})
	go func() {
		defer close(done)
		team.ParallelFor(lo, hi, sched, chunk, func(_ int, clo, chi int64) {
			mu.Lock()
			got = append(got, rng{uint64(clo - lo), uint64(chi - lo)})
			mu.Unlock()
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%v chunk=%d [%d,%d]: schedule did not terminate (overflowed stepping?)", sched, chunk, lo, hi)
	}
	var covered uint64
	seen := make(map[uint64]bool)
	for _, r := range got {
		if r.e < r.s || r.e >= total {
			t.Fatalf("%v chunk=%d [%d,%d]: chunk offsets [%d,%d] outside space of %d", sched, chunk, lo, hi, r.s, r.e, total)
		}
		for o := r.s; ; o++ {
			if seen[o] {
				t.Fatalf("%v chunk=%d [%d,%d]: offset %d executed twice", sched, chunk, lo, hi, o)
			}
			seen[o] = true
			covered++
			if o == r.e {
				break
			}
		}
	}
	if covered != total {
		t.Fatalf("%v chunk=%d [%d,%d]: covered %d of %d iterations", sched, chunk, lo, hi, covered, total)
	}
}

func TestBoundaryRanges(t *testing.T) {
	// Ranges hugging the int64 boundaries: signed chunk stepping like
	// start+chunk-1 or next.Add(chunk) wraps here and either skips or
	// re-executes iterations.
	ranges := []struct{ lo, hi int64 }{
		{math.MaxInt64 - 10, math.MaxInt64},
		{math.MaxInt64 - 1, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64 + 7},
		{math.MinInt64, math.MinInt64},
		{-5, 6},
	}
	for _, r := range ranges {
		for _, sched := range []Schedule{Static, Dynamic, Guided} {
			// chunk 0 exercises default static (block partition) and the
			// dynamic/guided minimum-chunk clamp; 1<<30 exercises chunks
			// far larger than the range.
			for _, chunk := range []int{0, 1, 3, 1 << 30} {
				for _, workers := range []int{1, 3, 8} {
					boundaryCoverage(t, NewTeam(workers), sched, chunk, r.lo, r.hi)
					boundaryCoverage(t, NewSimTeam(workers), sched, chunk, r.lo, r.hi)
				}
			}
		}
	}
}

func TestFullInt64RangeStartsCorrectly(t *testing.T) {
	// The full int64 space has 2^64 iterations — unrunnable, but the
	// first chunks handed out must still be valid (no wrapped bounds).
	team := NewTeam(2)
	var mu sync.Mutex
	var bad []string
	n := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		team.ParallelFor(math.MinInt64, math.MaxInt64, Dynamic, 1<<20, func(_ int, clo, chi int64) {
			mu.Lock()
			if chi < clo {
				bad = append(bad, fmt.Sprintf("[%d,%d]", clo, chi))
			}
			n++
			stop := n > 64
			mu.Unlock()
			if stop {
				// Enough evidence; park this worker until the test ends.
				select {}
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bad) > 0 {
		t.Fatalf("wrapped chunk bounds: %v", bad)
	}
	if n == 0 {
		t.Fatal("no chunks executed")
	}
}

func TestSimOneWorkerAccountsRegions(t *testing.T) {
	// Regression: ParallelFor used to check n==1 before sim, so a
	// 1-worker simulated team ran inline and the simulated 1-core
	// baseline reported zero region time.
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		team := NewSimTeam(1)
		team.ParallelFor(0, 3, sched, 1, func(_ int, lo, hi int64) {
			time.Sleep(200 * time.Microsecond)
		})
		real, virt := team.TakeSim()
		if real <= 0 || virt <= 0 {
			t.Fatalf("%v: 1-worker sim team must account regions, got real=%v virt=%v", sched, real, virt)
		}
	}
}

// reduceSum runs an integer sum reduction through ParallelForReduce.
func reduceSum(team *Team, lo, hi int64, sched Schedule, chunk int) int64 {
	var out int64
	team.ParallelForReduce(lo, hi, sched, chunk,
		func(int) any { return int64(0) },
		func(_ int, clo, chi int64, acc any) any {
			s := acc.(int64)
			for i := clo; i <= chi; i++ {
				s += i
			}
			return s
		},
		func(_ int, acc any) { out += acc.(int64) })
	return out
}

func TestParallelForReduceEverySchedule(t *testing.T) {
	want := int64(500500) // sum 1..1000
	cases := []struct {
		sched Schedule
		chunk int
	}{
		{Static, 0}, {Static, 7}, {Dynamic, 1}, {Dynamic, 13}, {Guided, 1}, {Guided, 4},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 3, 8} {
			if got := reduceSum(NewTeam(workers), 1, 1000, c.sched, c.chunk); got != want {
				t.Fatalf("real %v,%d @%d workers: sum=%d want %d", c.sched, c.chunk, workers, got, want)
			}
			if got := reduceSum(NewSimTeam(workers), 1, 1000, c.sched, c.chunk); got != want {
				t.Fatalf("sim %v,%d @%d workers: sum=%d want %d", c.sched, c.chunk, workers, got, want)
			}
		}
	}
}

func TestParallelForReduceEmptyRange(t *testing.T) {
	called := false
	NewTeam(4).ParallelForReduce(5, 4, Static, 0,
		func(int) any { called = true; return nil },
		func(_ int, _, _ int64, acc any) any { called = true; return acc },
		func(int, any) { called = true })
	if called {
		t.Fatal("empty range must not call init, body or combine")
	}
}

func TestParallelForReduceCombineOrder(t *testing.T) {
	// The combine must run in worker order 0..n-1 — that fixed order is
	// the float determinism contract.
	for _, team := range []*Team{NewTeam(6), NewSimTeam(6)} {
		var order []int
		team.ParallelForReduce(0, 99, Dynamic, 1,
			func(int) any { return 0 },
			func(_ int, _, _ int64, acc any) any { return acc },
			func(w int, _ any) { order = append(order, w) })
		if len(order) != 6 {
			t.Fatalf("combine ran %d times, want 6", len(order))
		}
		for w, got := range order {
			if got != w {
				t.Fatalf("combine order %v, want 0..5", order)
			}
		}
	}
}

func TestParallelForReduceFloatDeterministic(t *testing.T) {
	// The float determinism contract: real static teams and simulated
	// teams under every schedule are reproducible run-to-run at a fixed
	// team size (real dynamic/guided assign chunks by arrival, like
	// OpenMP, and promise only integer exactness).
	run := func(team *Team, sched Schedule, chunk int) float64 {
		var out float64
		team.ParallelForReduce(0, 9999, sched, chunk,
			func(int) any { return float64(0) },
			func(_ int, clo, chi int64, acc any) any {
				s := acc.(float64)
				for i := clo; i <= chi; i++ {
					s += 1.0 / float64(i+1)
				}
				return s
			},
			func(_ int, acc any) { out += acc.(float64) })
		return out
	}
	for _, workers := range []int{2, 5, 8} {
		for _, c := range []struct {
			sched Schedule
			chunk int
			sim   bool
		}{
			{Static, 0, false}, {Static, 7, false},
			{Static, 0, true}, {Static, 7, true}, {Dynamic, 3, true}, {Guided, 2, true},
		} {
			mk := func() *Team {
				if c.sim {
					return NewSimTeam(workers)
				}
				return NewTeam(workers)
			}
			first := run(mk(), c.sched, c.chunk)
			for rep := 0; rep < 10; rep++ {
				if got := run(mk(), c.sched, c.chunk); got != first {
					t.Fatalf("@%d workers %v,%d sim=%v: run %d gave %x, first run %x",
						workers, c.sched, c.chunk, c.sim, rep, got, first)
				}
			}
		}
	}
}

func TestParallelForReduceSimChargesCombine(t *testing.T) {
	team := NewSimTeam(4)
	team.ParallelForReduce(0, 3, Static, 0,
		func(int) any { return 0 },
		func(_ int, _, _ int64, acc any) any { return acc },
		func(int, any) { time.Sleep(200 * time.Microsecond) })
	_, virt := team.TakeSim()
	// 4 combines of ~200µs run serially on the critical path.
	if virt < 500*time.Microsecond {
		t.Fatalf("combine not charged on critical path: virt=%v", virt)
	}
}

func TestParallelForReduceBoundaryRange(t *testing.T) {
	lo, hi := int64(math.MaxInt64-6), int64(math.MaxInt64)
	var count int64
	NewTeam(3).ParallelForReduce(lo, hi, Dynamic, 2,
		func(int) any { return int64(0) },
		func(_ int, clo, chi int64, acc any) any {
			return acc.(int64) + int64(uint64(chi-clo)+1)
		},
		func(_ int, acc any) { count += acc.(int64) })
	if count != 7 {
		t.Fatalf("boundary reduce covered %d iterations, want 7", count)
	}
}
