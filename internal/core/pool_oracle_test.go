package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/rt"
	"purec/internal/transform"
)

// poolOracleSrc exercises every piece of per-run state a pooled Process
// must reset: the guest PRNG (srand/rand), heap storage reached through
// a global pointer (malloc), an integer array reduction, an integer
// scalar reduction, a memoizable pure call, an element-wise float
// kernel, and printf output. Integer reductions are bit-identical under
// any bracketing, and the float array is element-wise, so every
// schedule and team size must reproduce the serial interp
// oracle exactly — run after run after run on the same reused Process.
const poolOracleSrc = `
int hist[32];
float fvec[256];
int *data;
int total;

pure int mix(int x) {
    int r = 0;
    for (int i = 0; i < 20; i++)
        r += (x * 7 + i) % 13;
    return r;
}

int main(void) {
    srand(42);
    data = (int*)malloc(256 * sizeof(int));
    for (int i = 0; i < 256; i++)
        data[i] = rand() % 32;
    for (int i = 0; i < 32; i++)
        hist[i] = 0;
    for (int i = 0; i < 256; i++)
        hist[data[i]]++;
    for (int i = 0; i < 256; i++)
        fvec[i] = sqrt((float)data[i]) * 0.5f;
    total = 0;
    for (int i = 0; i < 32; i++)
        total += mix(hist[i]);
    printf("total=%d h0=%d h31=%d\n", total, hist[0], hist[31]);
    return total % 101;
}
`

// TestPoolReuseOracle12Goroutines is the daemon's determinism gate: 12
// goroutines hammer one compiled Program through a shared ProcessPool —
// every configuration of {schedule} × gcc on the tape, plus icc and a
// memoizing build — with team sizes cycling through real and
// simulated teams, and every single run (reused Process or fresh) must
// leave the serial interp oracle's whole observable state (observe):
// return value, stdout bytes, every global and the heap behind them.
// A reset that leaked PRNG state, heap contents, globals or memo state
// between runs fails here. Run under -race in CI.
func TestPoolReuseOracle12Goroutines(t *testing.T) {
	art, err := Front(poolOracleSrc, Config{FileName: "t.c"})
	if err != nil {
		t.Fatal(err)
	}
	want := observeInterp(t, art)
	if strings.Contains(want, `stdout=""`) || !strings.Contains(want, `trap=""`) {
		t.Fatalf("oracle produced no output or trapped: %s", strings.SplitN(want, "\n", 2)[0])
	}

	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, sched := range []string{"", "static,3", "dynamic,1", "guided,2"} {
		variants = append(variants, variant{
			name: "tape/gcc/" + sched,
			cfg: Config{FileName: "t.c", Parallelize: true,
				Transform: transform.Options{Schedule: sched}},
		})
	}
	variants = append(variants,
		variant{"tape/icc/", Config{FileName: "t.c", Parallelize: true, Backend: comp.BackendICC}},
		variant{"tape/gcc/memo", Config{FileName: "t.c", Parallelize: true, Memoize: true}},
	)

	teamSizes := []int{1, 2, 3, 5, 8}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			prog, art, _, err := BuildProgram(poolOracleSrc, v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The team factory cycles sizes and alternates real and
			// simulated teams across the pool's fresh Processes.
			var teamSeq atomic.Int64
			pool := prog.NewPool(comp.PoolOptions{
				Size: 4,
				NewTeam: func() *rt.Team {
					i := teamSeq.Add(1) - 1
					size := teamSizes[i%int64(len(teamSizes))]
					if i%2 == 1 {
						return rt.NewSimTeam(size)
					}
					return rt.NewTeam(size)
				},
			})

			const goroutines = 12
			const runsEach = 3
			var wg sync.WaitGroup
			errs := make(chan error, goroutines*runsEach)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < runsEach; r++ {
						proc, err := pool.Get()
						if err != nil {
							errs <- fmt.Errorf("g%d r%d get: %v", g, r, err)
							return
						}
						got := observeRun(art.Info, proc)
						pool.Put(proc)
						if got != want {
							errs <- fmt.Errorf("g%d r%d diverged from the oracle at %s", g, r, firstDiff(got, want))
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			s := pool.Stats()
			if s.Gets != goroutines*runsEach {
				t.Errorf("pool gets = %d, want %d", s.Gets, goroutines*runsEach)
			}
			if s.Reuses == 0 {
				t.Error("pool reuse never happened — the test exercised only fresh Processes")
			}
			if v.cfg.Memoize {
				if ms := prog.MemoStats(); ms.Hits == 0 {
					t.Errorf("memoizing build recorded no memo hits across pooled runs: %+v", ms)
				}
			}
		})
	}
}

// poolTrapSrc has a clean main and three entry points that trap deep —
// boom three activations down on the root stack, boompar inside the
// workers of a parallel reduction, forever at the call-depth cap —
// leaving frames (and local-array segments) behind that nobody popped.
const poolTrapSrc = `
int sink[8];
int total;

pure int lvl3(int i) {
    int pad[3];
    pad[0] = i;
    return sink[i + pad[0]];
}
pure int lvl2(int i) {
    int k = i + 1;
    return lvl3(k) + k;
}
pure int lvl1(int i) {
    float f = 0.5f;
    return lvl2(i + 1) * 2 + (int)f;
}
int boom(void) { return lvl1(3); }
int down(int n) {
    int pad[2];
    pad[1] = n;
    return down(pad[1] + 1) + 1;
}
int forever(void) { return down(0); }
int boompar(void) {
    int s = 0;
    for (int i = 0; i < 64; i++)
        s += lvl1(i % 9);
    return s;
}
int main(void) {
    for (int i = 0; i < 8; i++)
        sink[i] = i * i;
    int s = 0;
    for (int i = 0; i < 64; i++)
        s += lvl1(i % 2);
    total = s;
    printf("total=%d\n", total);
    return total % 97;
}
`

// TestPoolCleanAfterDeepTrap: a guest trap unwinds through Go panics
// without popping the frame stack; the pooled Process must still serve
// the next request as if nothing had happened — on the root stack and
// on every worker's.
func TestPoolCleanAfterDeepTrap(t *testing.T) {
	art, err := Front(poolTrapSrc, Config{FileName: "t.c"})
	if err != nil {
		t.Fatal(err)
	}
	var wantOut bytes.Buffer
	in, err := interp.New(art.Info, &wantOut)
	if err != nil {
		t.Fatal(err)
	}
	wantRet, err := in.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{FileName: "t.c", Parallelize: true, NoCache: true,
		Transform: transform.Options{Schedule: "dynamic,1", MinParallelTrip: -1}}
	prog, _, _, err := BuildProgram(poolTrapSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := prog.NewPool(comp.PoolOptions{Size: 1, NewTeam: func() *rt.Team { return rt.NewTeam(3) }})
	for round, entry := range []string{"boom", "boompar", "forever", "boom"} {
		proc, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		_, err = proc.CallInt(entry)
		if _, isRT := err.(*comp.RuntimeError); !isRT {
			t.Fatalf("%s: err %v, want a guest trap", entry, err)
		}
		pool.Put(proc)

		again, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if again != proc {
			t.Fatal("expected the trapped Process back (size-1 pool)")
		}
		var out bytes.Buffer
		again.SetStdout(&out)
		ret, err := again.RunMain()
		if err != nil || ret != wantRet || out.String() != wantOut.String() {
			t.Errorf("round %d after %s: ret %d err %v out %q, oracle %d %q",
				round, entry, ret, err, out.String(), wantRet, wantOut.String())
		}
		pool.Put(again)
	}
}

// freshSrc writes a global of every kind — int, float, pointer, array,
// struct and array of structs, and scalars whose initializers fold
// float arithmetic and casts, convert a float constant to an int or are
// a negative zero — after printing what it found there,
// keeps a malloc'd block behind a global pointer, frees a global array a
// second global points into, and traps part-way.
const freshSrc = `
struct P { int x; float y; };
int gi = 7;
float gf = -2.5;
float gh = 3;
int *gp;
int *gq = 0;
int arr[8];
float farr[4];
struct P gs;
struct P gsa[3];
int idx = 4;
float gk = 1.0 / 4.0;
int gn = 2.5;
double gd = (float)0.1 * 3 + 1 / 2;
float gz = -0.0;

int main(void) {
    int s = 0;
    for (int i = 0; i < 8; i++)
        s += arr[i];
    float t = 0.0f;
    for (int i = 0; i < 4; i++)
        t += farr[i];
    printf("gi=%d gf=%f gh=%f s=%d t=%f gs=%d,%f gsa=%d,%f\n", gi, gf, gh, s, t, gs.x, gs.y, gsa[2].x, gsa[2].y);
    printf("gk=%f gn=%d gd=%.17g gz=%f\n", gk, gn, gd, gz);
    gk = 2.0; gn = 5; gd = 1.0; gz = 1.0;
    gi = 11;
    gf = 1.25;
    gh = 0.5;
    for (int i = 0; i < 8; i++)
        arr[i] = i * 3;
    for (int i = 0; i < 4; i++)
        farr[i] = 0.5f * i;
    gs.x = 9;
    gs.y = 4.5;
    for (int i = 0; i < 3; i++) {
        gsa[i].x = i + 1;
        gsa[i].y = 1.5 * i;
    }
    gp = (int*)malloc(4 * sizeof(int));
    gp[2] = 42;
    gq = &arr[3];
    free(arr);
    printf("gp[2]=%d\n", gp[2]);
    farr[idx] = 1.0f;
    printf("unreachable\n");
    return 0;
}
`

// TestPooledProcessStartsFresh: every run of a pooled Process whose
// previous run wrote every global, freed a global array and trapped
// must observe exactly what a fresh Process and the interp oracle do.
// The reset lays the freed array out again, zeroes the other global
// segments in place and rewrites the constant initializers.
func TestPooledProcessStartsFresh(t *testing.T) {
	for _, backend := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
		prog, art, _, err := BuildProgram(freshSrc, Config{FileName: "t.c", Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		want := observeInterp(t, art)
		if !strings.Contains(want, `trap="runtime error: index out of range [4] with length 4"`) {
			t.Fatalf("oracle did not trap part-way: %s", strings.SplitN(want, "\n", 2)[0])
		}
		fresh, err := prog.NewProcess(comp.ProcOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := observeRun(art.Info, fresh); got != want {
			t.Fatalf("%v: a fresh Process differs from the oracle at %s", backend, firstDiff(got, want))
		}
		pool := prog.NewPool(comp.PoolOptions{Size: 1})
		for run := 1; run <= 3; run++ {
			proc, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			if proc.Reused() != (run > 1) {
				t.Fatalf("%v run %d: Reused() = %v", backend, run, proc.Reused())
			}
			if got := observeRun(art.Info, proc); got != want {
				t.Fatalf("%v run %d of the pooled Process differs from the oracle at %s", backend, run, firstDiff(got, want))
			}
			pool.Put(proc)
		}
	}
}
