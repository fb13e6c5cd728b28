package comp

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"purec/internal/interp"
	"purec/internal/rt"
)

// oracleRun executes main in the interp oracle.
func oracleRun(t *testing.T, src string) (int64, string) {
	t.Helper()
	var out bytes.Buffer
	in, err := interp.New(mustCheck(t, src), &out)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := in.RunMain()
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return ret, out.String()
}

// A loop calling a pure function that is not a leaf (it has a loop of
// its own) 1000 times: the frames come off the pooled Process's stack,
// so a run allocates a constant, not one activation per call.
func TestFrameStackCallsDoNotAllocate(t *testing.T) {
	const src = `
float a[64], b[64];
float out[1000];
pure float dot(pure float* x, pure float* y, int n) {
    float res = 0.0f;
    for (int i = 0; i < n; ++i)
        res += x[i] * y[i];
    return res;
}
int main(void) {
    for (int i = 0; i < 64; i++) { a[i] = (float)(i % 7); b[i] = 0.5f; }
    for (int r = 0; r < 1000; r++)
        out[r] = dot((pure float*)a + r % 32, (pure float*)b, 16);
    return (int)out[999];
}`
	want, _ := oracleRun(t, src)
	prog := compileProgram(t, src, Options{})
	pool := prog.NewPool(PoolOptions{Size: 1})
	run := func() {
		proc, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := proc.RunMain(); err != nil || got != want {
			t.Fatalf("ret %d err %v, oracle %d", got, err, want)
		}
		pool.Put(proc)
	}
	run() // grows the stack and the arena once
	if allocs := testing.AllocsPerRun(10, run); allocs > 50 {
		t.Errorf("%.0f allocations per run of 1000 calls, want a small constant", allocs)
	}
}

// Recursion deep enough to cross several slab chunks, with frames of
// all three slot kinds, returns what the interpreter returns — and the
// chunks never move under the live frames below.
func TestFrameStackRecursionCrossesSlabs(t *testing.T) {
	const src = `
float w[4];
pure int fib(int n) {
    if (n < 2)
        return n;
    return fib(n - 1) + fib(n - 2);
}
float down(pure float* p, int n, float acc) {
    int here = n * 3;
    float keep = acc + p[n % 4];
    pure float* q = p;
    if (n == 0)
        return keep;
    float below = down(q, n - 1, keep);
    return below + (float)(here - n * 3) + (q == p ? 0.0f : 1.0f);
}
int main(void) {
    for (int i = 0; i < 4; i++) w[i] = (float)(i + 1);
    printf("%d %g\n", fib(25), down((pure float*)w, 700, 0.5f));
    return 0;
}`
	_, want := oracleRun(t, src)
	prog := compileProgram(t, src, Options{})
	var out bytes.Buffer
	proc, err := prog.NewProcess(ProcOptions{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.RunMain(); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("printed %q, oracle %q", out.String(), want)
	}
	fs := &proc.root
	if len(fs.i.chunks) < 3 || len(fs.f.chunks) < 3 || len(fs.p.chunks) < 3 {
		t.Errorf("%d/%d/%d slab chunks, the recursion was meant to cross several",
			len(fs.i.chunks), len(fs.f.chunks), len(fs.p.chunks))
	}
	if fs.depth != 1 {
		t.Errorf("%d frames left on the stack after main returned, want main's own", fs.depth)
	}
}

// Unbounded guest recursion ends in a guest trap — the same text from
// the interpreter and the tape, after the same output — instead of
// Go's unrecoverable stack overflow; the Process then runs a bounded
// recursion to just under the cap as if nothing had happened.
func TestUnboundedRecursionTraps(t *testing.T) {
	const src = `
int f(int n) {
    if (n % 2500 == 0)
        printf("depth %d\n", n);
    return f(n + 1) + 1;
}
int g(int n) { return n == 0 ? 0 : g(n - 1) + 1; }
int deep(void) { return g(9990); }
int main(void) { return f(0); }`
	var wantOut bytes.Buffer
	in, err := interp.New(mustCheck(t, src), &wantOut)
	if err != nil {
		t.Fatal(err)
	}
	_, err = in.RunMain()
	if err == nil {
		t.Fatal("interp: unbounded recursion returned")
	}
	wantTrap := strings.TrimPrefix(err.Error(), "interp ")
	if !strings.Contains(wantTrap, "stack overflow: call depth exceeds") || !strings.Contains(wantOut.String(), "depth 7500") {
		t.Fatalf("interp: trap %q after %q", wantTrap, wantOut.String())
	}
	prog := compileProgram(t, src, Options{})
	var out bytes.Buffer
	proc, err := prog.NewProcess(ProcOptions{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	_, err = proc.RunMain()
	if _, isRT := err.(*RuntimeError); !isRT || err.Error() != wantTrap || out.String() != wantOut.String() {
		t.Errorf("err %v after %q, interp %q after %q", err, out.String(), wantTrap, wantOut.String())
	}
	if got, err := proc.CallInt("deep"); err != nil || got != 9990 {
		t.Errorf("deep() after the trap = %d, %v", got, err)
	}
}

// A frame wider than a slab chunk gets a chunk of its own, also when
// the chunk in that position was allocated for a narrower frame.
func TestFrameStackOversizeFrame(t *testing.T) {
	var s slab[int64]
	small := s.take(8)
	m := s.mark()
	a := s.take(slabCells - 8 + 1) // does not fit the first chunk
	a[len(a)-1] = 7
	s.release(m)
	b := s.take(5 * slabCells) // wider than the second chunk
	b[len(b)-1] = 9
	small[0] = 1
	if len(s.chunks) != 2 || len(s.chunks[1]) != 5*slabCells || s.cur != 1 {
		t.Fatalf("chunks %d, second %d cells, cur %d", len(s.chunks), len(s.chunks[1]), s.cur)
	}
}

// A local array whose address escapes through the returned pointer
// stays readable for the rest of the run — every activation gets its
// own segment although the frames reuse the same slots — and traps as
// a freed segment once the pooled Process is reset.
func TestFrameStackLocalArrayEscape(t *testing.T) {
	const src = `
int *first, *second;
int* leak(int v) {
    int buf[4];
    buf[0] = v;
    return buf;
}
int main(void) {
    first = leak(7);
    second = leak(9);
    printf("%d %d\n", first[0], second[0]);
    return 0;
}`
	prog := compileProgram(t, src, Options{})
	pool := prog.NewPool(PoolOptions{Size: 1})
	proc, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	proc.SetStdout(&out)
	if _, err := proc.RunMain(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "7 9\n" {
		t.Errorf("printed %q", out.String())
	}
	stale, err := proc.GlobalPtr("first")
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(proc)
	if _, err := pool.Get(); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Seg.IntRange(0, 4); err == nil || !strings.Contains(err.Error(), "use of freed segment leak.buf") {
		t.Errorf("stale local array access = %v, want the use-of-freed trap", err)
	}
}

// A callee opens its own parallel region: the workers copy a frame
// that itself lives on the root stack, and call further functions on
// their own stacks. Run under -race.
func TestFrameStackRegionInsideCallee(t *testing.T) {
	const src = `
int out[256];
pure int weigh(int v, int k) {
    int r = 0;
    for (int i = 0; i < k; i++)
        r += (v + i) % 7;
    return r;
}
int fill(int base, int k) {
    int bias = base * 2;
#pragma omp parallel for schedule(dynamic,3)
    for (int i = 0; i < 256; i++)
        out[i] = weigh(i + bias, k) + bias;
    return bias;
}
int main(void) {
    int s = fill(3, 5) + fill(4, 9);
    for (int i = 0; i < 256; i++)
        s += out[i];
    return s % 1000;
}`
	want, _ := oracleRun(t, src)
	prog := compileProgram(t, src, Options{})
	for _, team := range []*rt.Team{rt.NewTeam(4), rt.NewSimTeam(3)} {
		proc, err := prog.NewProcess(ProcOptions{Team: team, Stdout: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			if got, err := proc.RunMain(); err != nil || got != want {
				t.Fatalf("team=%d sim=%v run %d: ret %d err %v, oracle %d",
					team.Size(), team.Simulated(), run, got, err, want)
			}
		}
	}
}

// schedule(dynamic,1) hands every iteration to a worker as its own
// chunk: the worker's private copy of the frame is re-filled per chunk
// in storage the Process keeps, so a region allocates per worker (the
// runtime's goroutines), not per iteration.
func TestWorkerEnvsAreReusedAcrossChunks(t *testing.T) {
	src := func(n string) string {
		return `
int out[4096];
int fill(void) {
    int bias = 3;
#pragma omp parallel for schedule(dynamic,1)
    for (int i = 0; i < ` + n + `; i++) {
        int v = i + bias;
        out[i] = v * v;
    }
    return 0;
}
int main(void) { return fill(); }`
	}
	perRun := func(n string) float64 {
		prog := compileProgram(t, src(n), Options{})
		proc, err := prog.NewProcess(ProcOptions{Team: rt.NewTeam(4)})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := proc.CallInt("fill"); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(5, run)
	}
	small, large := perRun("64"), perRun("4096")
	if large > small+16 {
		t.Errorf("%.0f allocations for 4096 chunks, %.0f for 64: must not grow with the iteration count",
			large, small)
	}
}

// Arrays of pointers get pointer cells (the layout strips one type
// level per dimension, not every pointer level), and real
// multi-dimensional arrays keep their element kind.
func TestArrayOfPointersLayout(t *testing.T) {
	const src = `
int* gkeep[2];
int main(void) {
    int a[4];
    int* keep[2];
    float m[3][4];
    a[0] = 7;
    a[1] = 9;
    keep[0] = a;
    gkeep[1] = a + 1;
    m[2][3] = 1.5f;
    m[0][0] = 0.25f;
    printf("%d\n", keep[0][0]);
    printf("%d %g %g\n", gkeep[1][0], m[2][3], m[0][0]);
    return 0;
}`
	_, want := oracleRun(t, src)
	if want != "7\n9 1.5 0.25\n" {
		t.Fatalf("interp printed %q", want)
	}
	prog := compileProgram(t, src, Options{})
	var out bytes.Buffer
	proc, err := prog.NewProcess(ProcOptions{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.RunMain(); err != nil {
		t.Fatalf("%v", err)
	}
	if out.String() != want {
		t.Errorf("printed %q, want %q", out.String(), want)
	}
}
