package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// everySchedule is each schedule kind, static both as blocks and as
// round-robin chunks.
var everySchedule = []struct {
	s     Schedule
	chunk int
}{{Static, 0}, {Static, 3}, {Dynamic, 1}, {Guided, 1}}

// callerHasFrame reports whether the calling goroutine's stack holds a
// frame of the function named fn.
func callerHasFrame(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if f.Function == fn {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestCallerIsWorkerZero: worker 0's chunks run on the goroutine that
// called ParallelFor, so its stack holds the caller's frames. The other
// workers hold their first chunk until worker 0 has run one, which
// leaves worker 0 a chunk under dynamic and guided schedules too.
func TestCallerIsWorkerZero(t *testing.T) {
	const self = "purec/internal/rt.TestCallerIsWorkerZero"
	for _, n := range []int{2, 3, 8} {
		for _, sc := range everySchedule {
			ran := make(chan struct{})
			var once sync.Once
			var zero, foreign atomic.Int64
			NewTeam(n).ParallelFor(0, 999, sc.s, sc.chunk, func(w int, _, _ int64) {
				if w != 0 {
					select {
					case <-ran:
					case <-time.After(5 * time.Second):
					}
					return
				}
				zero.Add(1)
				if !callerHasFrame(self) {
					foreign.Add(1)
				}
				once.Do(func() { close(ran) })
			})
			if zero.Load() == 0 || foreign.Load() != 0 {
				t.Errorf("team %d %v,%d: %d of %d worker-0 chunks ran off the calling goroutine",
					n, sc.s, sc.chunk, foreign.Load(), zero.Load())
			}
		}
	}
}

// TestWorkerZeroPanicWaitsForSiblings: a panic in worker 0, which runs
// on the calling goroutine, re-raises only after every sibling has
// drained its chunks.
func TestWorkerZeroPanicWaitsForSiblings(t *testing.T) {
	for _, chunk := range []int{0, 3} {
		var want int64 // the iterations of workers 1..3
		for i := 0; i < 400; i++ {
			owner := i / 100
			if chunk == 3 {
				owner = i / 3 % 4
			}
			if owner != 0 {
				want++
			}
		}
		var done atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			NewTeam(4).ParallelFor(0, 399, Static, chunk, func(w int, lo, hi int64) {
				if w == 0 {
					panic("trap in worker 0")
				}
				time.Sleep(100 * time.Microsecond)
				done.Add(hi - lo + 1)
			})
			return nil
		}()
		if got != "trap in worker 0" {
			t.Errorf("static,%d: recovered %v, want worker 0's panic", chunk, got)
		}
		if done.Load() != want {
			t.Errorf("static,%d: siblings ran %d iterations before the re-raise, want all %d of theirs", chunk, done.Load(), want)
		}
	}
}

// TestRegionsLeaveNoGoroutines: a region on a real team of n starts a
// goroutine only for each worker other than 0 that can receive a chunk,
// and the count returns to its baseline after the region.
func TestRegionsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the regions, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, n := range []int{2, 3, 8} {
		for _, sc := range everySchedule {
			for _, iters := range []int64{2, 100} {
				var mu sync.Mutex
				peak := 0
				NewTeam(n).ParallelFor(0, iters-1, sc.s, sc.chunk, func(_ int, _, _ int64) {
					time.Sleep(200 * time.Microsecond) // overlap the workers
					mu.Lock()
					peak = max(peak, runtime.NumGoroutine()-base)
					mu.Unlock()
				})
				if limit := min(n, int(iters)) - 1; peak > limit {
					t.Errorf("team %d %v,%d over %d iterations: %d goroutines beside the caller's, want at most %d",
						n, sc.s, sc.chunk, iters, peak, limit)
				}
				settle()
			}
		}
	}
}

// BenchmarkRegion measures the launch cost of a region on its own: an
// empty body over 64 iterations, on real teams of 2 and 4.
func BenchmarkRegion(b *testing.B) {
	for _, sc := range everySchedule {
		name := sc.s.String()
		if sc.chunk > 0 {
			name += fmt.Sprintf("-%d", sc.chunk)
		}
		for _, n := range []int{2, 4} {
			team := NewTeam(n)
			b.Run(fmt.Sprintf("%s/t%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					team.ParallelFor(0, 63, sc.s, sc.chunk, func(int, int64, int64) {})
				}
			})
		}
	}
}
