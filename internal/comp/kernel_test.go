package comp

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"purec/internal/interp"
	"purec/internal/mem"
	"purec/internal/rt"
)

// fuseCompare compiles src and runs it next to the interp oracle,
// requiring bit-identical return values and global array contents. It
// returns the build for extra checks.
func fuseCompare(t *testing.T, src string, arrays ...string) *Machine {
	t.Helper()
	fused := compile(t, src, Options{})
	in, err := interp.New(mustCheck(t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fused.RunMain()
	if err != nil {
		t.Fatalf("fused run: %v", err)
	}
	ro, err := in.RunMain()
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	if rf != ro {
		t.Fatalf("return values diverge: fused=%d oracle=%d", rf, ro)
	}
	for _, name := range arrays {
		fp, err := fused.GlobalPtr(name)
		if err != nil {
			t.Fatalf("global %s: %v", name, err)
		}
		op, err := in.GlobalPtr(name)
		if err != nil {
			t.Fatal(err)
		}
		if fv, ov := snapshotSeg(fp), snapshotSeg(op); fv != ov {
			t.Fatalf("%s: fused != oracle\nfused:  %s\noracle: %s", name, fv, ov)
		}
	}
	return fused
}

// snapshotSeg renders the full bit pattern of the array behind p.
func snapshotSeg(p mem.Pointer) string {
	var b strings.Builder
	switch p.Seg.Kind {
	case mem.CellFloat:
		for _, v := range p.Seg.F {
			fmt.Fprintf(&b, "%x,", math.Float64bits(v))
		}
	case mem.CellInt:
		for _, v := range p.Seg.I {
			fmt.Fprintf(&b, "%d,", v)
		}
	}
	return b.String()
}

func TestFusedShapesMatchDispatchAndOracle(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"fill_float", "y[i] = 2.5f;"},
		{"fill_int", "w[i] = 7;"},
		{"copy_float", "y[i] = x[i];"},
		{"copy_int", "w[i] = v[i];"},
		{"scale", "y[i] = a * x[i];"},
		{"scale_rhs", "y[i] = x[i] * a;"},
		{"axpy", "y[i] = a * x[i] + y[i];"},
		{"axpy_commuted", "y[i] = y[i] + x[i] * a;"},
		{"compound_add", "y[i] += x[i];"},
		{"compound_mul", "y[i] *= 1.25f;"},
		{"compound_int_xor", "w[i] ^= v[i];"},
		{"stencil", "y[i] = 0.5f * (x[i - 1] + x[i + 1]);"},
		{"offset", "y[i] = x[i + 3];"},
		{"iter_poly", "w[i] = i * i + 2 * i + 1;"},
		{"iter_float", "y[i] = x[i] * i;"},
		{"mixed_invariant", "y[i] = x[i] * (a + 1.5f) - b;"},
		{"int_div", "w[i] = v[i] / (c + 1);"},
		{"int_shift", "w[i] = v[i] << 2;"},
		{"neg", "y[i] = -x[i];"},
		{"deep", "y[i] = (x[i] + 1.0f) * (x[i] - 1.0f) / (a + 2.0f);"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(`
float x[100], y[100];
int v[100], w[100];
int main(void) {
    float a = 1.5f;
    float b = 0.25f;
    int c = 3;
    for (int i = 0; i < 100; i++) {
        x[i] = (float)((i %% 13) - 6) * 0.5f;
        v[i] = i * 7 - 50;
        y[i] = (float)(i %% 5);
        w[i] = i;
    }
    for (int i = 4; i < 96; i++) {
        %s
    }
    return (int)y[50] + w[50];
}`, c.body)
			m := fuseCompare(t, src, "x", "y", "v", "w")
			// The init loop has a multi-statement body and stays
			// dispatched; the shape under test must fuse.
			if m.Program().FusedKernels() != 1 {
				t.Errorf("expected exactly the body loop to fuse, got %d kernels",
					m.Program().FusedKernels())
			}
		})
	}
}

func TestFusedStridedRead(t *testing.T) {
	// Constant-stride subscripts (2*i) walk the raw slice with a
	// per-iteration cursor increment of 2.
	src := `
float x[100], y[50];
int main(void) {
    for (int i = 0; i < 100; i++)
        x[i] = i * 0.5f;
    for (int i = 0; i < 50; i++)
        y[i] = x[2 * i];
    return 0;
}`
	m := fuseCompare(t, src, "x", "y")
	if m.Program().FusedKernels() < 2 {
		t.Fatalf("strided read did not fuse (%d kernels)", m.Program().FusedKernels())
	}
}

func TestFusedMultiDimInnerLoop(t *testing.T) {
	// The innermost j-loop of a 2-D nest: invariant row offset i*N,
	// stride 1 — the declared-array flattening path.
	src := `
float A[20][20], B[20][20];
int main(void) {
    for (int i = 0; i < 20; i++)
        for (int j = 0; j < 20; j++)
            A[i][j] = (float)(i * 20 + j) * 0.125f;
    for (int i = 1; i < 19; i++)
        for (int j = 1; j < 19; j++)
            B[i][j] = 0.25f * (A[i - 1][j] + A[i][j - 1] + A[i][j + 1] + A[i + 1][j]);
    return 0;
}`
	m := fuseCompare(t, src, "A", "B")
	if m.Program().FusedKernels() < 1 {
		t.Fatalf("multi-dim inner loops did not fuse (%d kernels)", m.Program().FusedKernels())
	}
}

func TestFusedAliasingInPlace(t *testing.T) {
	// Serial in-place shifts propagate values iteration to iteration;
	// the fused kernel must read and write the same cells in the same
	// ascending order as dispatch (a memmove-style copy would diverge).
	for _, body := range []string{
		"x[i] = x[i - 1];",
		"x[i] = x[i - 1] + x[i];",
		"x[i] += x[i - 1];",
	} {
		src := fmt.Sprintf(`
float x[64];
int main(void) {
    for (int i = 0; i < 64; i++)
        x[i] = (float)i;
    for (int i = 1; i < 64; i++) {
        %s
    }
    return (int)x[63];
}`, body)
		fuseCompare(t, src, "x")
	}
}

func TestFusedPostLoopIteratorValue(t *testing.T) {
	// A fused loop with an outer-declared iterator must leave the
	// dispatch loop's post-loop value (first failing iteration).
	src := `
int w[10];
int main(void) {
    int i;
    for (i = 0; i < 10; i++)
        w[i] = i;
    return i;
}`
	m := fuseCompare(t, src, "w")
	if m.Program().FusedKernels() != 1 {
		t.Fatalf("loop did not fuse (%d kernels)", m.Program().FusedKernels())
	}
}

func TestFusedEmptyLoop(t *testing.T) {
	src := `
int w[4];
int main(void) {
    int i;
    int n = 0;
    for (i = 5; i < n; i++)
        w[i] = 1;
    return i;   /* 5: the loop never ran */
}`
	fuseCompare(t, src, "w")
}

func TestFusedOutOfBoundsTraps(t *testing.T) {
	// The hoisted range check must trap exactly when dispatch would:
	// the stencil reads x[96+1] for i=96, one past the array.
	src := `
float x[97], y[100];
int main(void) {
    for (int i = 0; i < 97; i++)
        x[i] = 1.0f;
    for (int i = 1; i < 97; i++)
        y[i] = x[i - 1] + x[i + 1];
    return 0;
}`
	if _, err := compile(t, src, Options{}).RunMain(); err == nil {
		t.Fatal("out-of-bounds stencil read must trap")
	}
	if _, err := oracleMachine(t, src).RunMain(); err == nil {
		t.Fatal("interp: out-of-bounds stencil read must trap")
	}
}

// oracleMachine is the interpreter over src.
func oracleMachine(t *testing.T, src string) *interp.Interp {
	t.Helper()
	in, err := interp.New(mustCheck(t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestFusedDivisionByZeroTraps(t *testing.T) {
	src := `
int v[8], w[8];
int main(void) {
    for (int i = 0; i < 8; i++)
        v[i] = i;
    int z = 0;
    for (int i = 0; i < 8; i++)
        w[i] = v[i] / z;
    return 0;
}`
	m := compile(t, src, Options{})
	if m.Program().FusedKernels() != 2 {
		t.Fatalf("want both loops fused, got %d kernels", m.Program().FusedKernels())
	}
	_, err := m.RunMain()
	if err == nil {
		t.Fatal("division by zero must trap")
	}
	_, want := oracleMachine(t, src).RunMain()
	if want == nil || "interp "+err.Error() != want.Error() {
		t.Fatalf("trap %q, interp %v", err, want)
	}
}

func TestFusedParallelForEveryScheduleAndTeam(t *testing.T) {
	// Fused kernels under #pragma omp parallel for: each worker runs
	// the kernel over its chunk bounds; every schedule, real and
	// simulated teams, must produce the dispatch/oracle result.
	for _, sched := range []string{"", " schedule(static,7)", " schedule(dynamic,3)", " schedule(guided)"} {
		src := fmt.Sprintf(`
float x[512], y[512];
int main(void) {
    float a = 0.75f;
    for (int i = 0; i < 512; i++) {
        x[i] = (float)(i %% 17) * 0.25f;
        y[i] = (float)(i %% 5);
    }
#pragma omp parallel for%s
    for (int i = 0; i < 512; i++)
        y[i] = a * x[i] + y[i];
    return 0;
}`, sched)
		// Serial oracle bits.
		in := oracleMachine(t, src)
		if _, err := in.RunMain(); err != nil {
			t.Fatal(err)
		}
		op, err := in.GlobalPtr("y")
		if err != nil {
			t.Fatal(err)
		}
		want, err := op.Seg.FloatRange(0, 512)
		if err != nil {
			t.Fatal(err)
		}
		for _, team := range reduceTeams() {
			m := compile(t, src, Options{Team: team})
			if m.Program().FusedKernels() < 1 {
				t.Fatalf("parallel axpy did not fuse")
			}
			if _, err := m.RunMain(); err != nil {
				t.Fatalf("sched %q team %d (sim=%v): %v", sched, team.Size(), team.Simulated(), err)
			}
			got := readFloatArray(t, m, "y", 512)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sched %q team %d (sim=%v): y[%d] = %v, want %v",
						sched, team.Size(), team.Simulated(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestFusedReductionThroughTeam(t *testing.T) {
	// A fused dot-product reduction dispatched through
	// rt.Team.ParallelForReduce: integer-exact against the serial
	// build at every team size; the kernel accumulates per chunk into
	// the worker's private slot.
	src := `
int v[1000], w[1000];
int out;
int main(void) {
    for (int i = 0; i < 1000; i++) {
        v[i] = i % 89;
        w[i] = i % 97;
    }
    int s = 0;
#pragma omp parallel for reduction(+:s) schedule(dynamic,13)
    for (int i = 0; i < 1000; i++)
        s += v[i] * w[i];
    out = s;
    return 0;
}`
	in := oracleMachine(t, src)
	if _, err := in.RunMain(); err != nil {
		t.Fatal(err)
	}
	out, err := in.GlobalValue("out")
	if err != nil {
		t.Fatal(err)
	}
	want := out.AsInt()
	for _, team := range reduceTeams() {
		// Vectorize extends reduction fusion beyond pure/ICC contexts.
		m := compile(t, src, Options{Team: team, Vectorize: true})
		if _, err := m.RunMain(); err != nil {
			t.Fatalf("team %d (sim=%v): %v", team.Size(), team.Simulated(), err)
		}
		got, err := m.GlobalInt("out")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("team %d (sim=%v): got %d want %d", team.Size(), team.Simulated(), got, want)
		}
	}
}

// readFloatArray reads n cells of a global float array.
func readFloatArray(t *testing.T, m *Machine, name string, n int) []float64 {
	t.Helper()
	p, err := m.GlobalPtr(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Add(int64(i)).LoadFloat()
	}
	return out
}

func TestFusedBoundsNotHoistableFallsBack(t *testing.T) {
	// An upper bound read from an array the loop may alias must not be
	// hoisted: the loop falls back to dispatch and re-reads it per
	// iteration, shrinking the trip count mid-loop.
	src := `
int n[1];
int w[16];
int main(void) {
    n[0] = 10;
    int s = 0;
    for (int i = 0; i < n[0]; i++) {
        n[0] = n[0] - 1;
        s = s + 1;
    }
    return s;   /* 5: bound shrinks as i grows */
}`
	got := runBoth(t, src)
	if got != 5 {
		t.Fatalf("got %d want 5", got)
	}
}

func TestFusedKernelsCountAndParallelComposition(t *testing.T) {
	// One program, four fusible loops — two init fills, axpy, and a map
	// through a leaf pure function, which inlines into a copy kernel —
	// plus a non-fusible loop (a call that stays a call). The counters
	// report exactly the fused loops and the inlined call site.
	src := `
float x[50], y[50];
pure float id(float v) { return v; }
pure float twice(float v) { float w = v + v; return w; }
int main(void) {
    for (int i = 0; i < 50; i++)
        x[i] = 1.0f;
    for (int i = 0; i < 50; i++)
        y[i] = 2.0f;
    for (int i = 0; i < 50; i++)
        y[i] = 0.5f * x[i] + y[i];
    for (int i = 0; i < 50; i++)
        y[i] = id(y[i]);
    for (int i = 0; i < 50; i++)
        y[i] = twice(y[i]);
    return 0;
}`
	m := compile(t, src, Options{})
	if _, err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	if got := m.Program().FusedKernels(); got != 4 {
		t.Fatalf("FusedKernels = %d, want 4", got)
	}
	if got := m.Program().InlinedCalls(); got != 1 {
		t.Fatalf("InlinedCalls = %d, want 1", got)
	}
}

func TestFusedRaceUnderRealTeams(t *testing.T) {
	// Many workers over one fused loop on a real team: the race
	// detector must stay quiet (workers share the parent env read-only
	// and write disjoint chunk slices).
	src := `
float x[4096], y[4096];
int main(void) {
    for (int i = 0; i < 4096; i++)
        x[i] = (float)(i % 31);
#pragma omp parallel for schedule(dynamic,64)
    for (int i = 0; i < 4096; i++)
        y[i] = 2.0f * x[i];
    return 0;
}`
	m := compile(t, src, Options{Team: rt.NewTeam(8)})
	if _, err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
}

func TestFusedIntSubtreeInFloatStoreNotMiscompiled(t *testing.T) {
	// i/2 is C integer division even when stored to a float array; a
	// float-tape evaluation would yield 0.5 where dispatch/oracle give
	// 0. The loop must either fuse with integer semantics or fall back
	// to dispatch — fuseCompare pins bit-equality either way.
	for _, body := range []string{
		"y[i] = i / 2;",
		"y[i] = i % 3;",
		"y[i] = x[i] + i / 2;",
	} {
		src := fmt.Sprintf(`
float x[32], y[32];
int main(void) {
    for (int i = 0; i < 32; i++)
        x[i] = i * 0.25f;
    for (int i = 0; i < 32; i++) {
        %s
    }
    return (int)(y[1] * 4.0f) + (int)(y[7] * 4.0f);
}`, body)
		fuseCompare(t, src, "y")
	}
}

func TestReductionBoundReadingAccumulatorNotHoisted(t *testing.T) {
	// for (k = 0; k < s; k++) s += x[k]: the bound reads the
	// accumulator the body mutates, so the dispatch loop self-extends.
	// The fused reduction kernel must refuse this loop rather than
	// hoist the bound.
	src := `
float x[64];
float out;
int main(void) {
    for (int i = 0; i < 64; i++)
        x[i] = i < 6 ? 1.0f : 0.0f;
    float s = 4.0f;
    for (int k = 0; k < s; k++)
        s += x[k];
    out = s;   /* dispatch: the bound grows from 4 to 10 as s grows */
    return (int)s;
}`
	want := runWithTeam(t, src, nil)
	if want != 10 {
		t.Fatalf("dispatch baseline = %d, want 10 (self-extending bound)", want)
	}
	m := compile(t, src, Options{Vectorize: true})
	got, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("vectorized build: got %d, dispatch gives %d (bound must not be hoisted)", got, want)
	}
}

func TestPointerStrideOverflowTraps(t *testing.T) {
	// p + i on a struct pointer multiplies i by the element stride
	// before the offset check; a product that wraps int64 must trap,
	// not validate a small bogus offset.
	src := `
struct pair { int a; int b; };
int main(void) {
    struct pair* p = (struct pair*)malloc(4 * sizeof(struct pair));
    long long huge = 4611686018427387905; /* 2^62 + 1: *2 wraps to 2 */
    struct pair* q = p + huge;
    q->a = 1;
    return 0;
}`
	m := compile(t, src, Options{})
	_, err := m.RunMain()
	if err == nil {
		t.Fatal("wrapped stride product must trap")
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("unexpected trap: %v", err)
	}
}

// TestFusedTapeDepthLimit pins the accept/reject boundaries of a tape
// kernel: a right-nested sum of maxTapeDepth loads needs exactly
// maxTapeDepth stack cells and fuses, one more load stays on the
// dispatch path (the builder bails at the push that overflows); a
// left-nested body of depth 2 fuses up to the frame's maxLoads operands
// and the lowering's maxNodes ops, and stays on dispatch past either.
// All of them agree with dispatch and the oracle.
func TestFusedTapeDepthLimit(t *testing.T) {
	program := func(rhs string) string {
		return fmt.Sprintf(`int x[64]; int y[64];
		int main(void) {
			for (int i = 0; i < 64; i++) x[i] = i * 3 - 40;
			for (int i = 0; i < 64; i++) y[i] = %s;
			return y[63];
		}`, rhs)
	}
	rightNested := func(loads int) string {
		return strings.Repeat("x[i] + (", loads-1) + "x[i]" + strings.Repeat(")", loads-1)
	}
	leftNested := func(loads int) string { return strings.Repeat("x[i] + ", loads-1) + "x[i]" }
	cases := []struct {
		name  string
		rhs   string
		fused int // kernels besides the fill loop
	}{
		{"at-limit", rightNested(maxTapeDepth), 1},
		{"one-past", rightNested(maxTapeDepth + 1), 0},
		{"shallow-at-load-limit", leftNested(maxLoads), 1},
		{"shallow-past-load-limit", leftNested(maxLoads + 1), 0},
		{"shallow-at-node-limit", "x[i]" + strings.Repeat(" * i + i", (maxNodes-1)/4), 1},
		{"shallow-past-node-limit", "x[i]" + strings.Repeat(" * i + i", (maxNodes-1)/4+1), 0},
	}
	for _, c := range cases {
		m := fuseCompare(t, program(c.rhs), "y")
		if got := m.Program().FusedKernels(); got != 1+c.fused {
			t.Errorf("%s: %d fused kernels, want %d", c.name, got, 1+c.fused)
		}
	}
}

// TestKernelLaunchesDoNotAllocate: the launch frame has fixed-size
// operand arrays and the strip buffer lives on the launching
// goroutine's stack, so a pooled run allocates per region and per
// worker — not per launch (one per iteration of the int loops under
// dynamic,1 and one per row of the stencil, whose rows the workers of
// the outer loop's region launch) and not per strip. Each program holds
// a 9-op int map (hist's initialisation), the integer-sum sink, a
// 4-load float stencil, a gather map, a histogram scatter, an int min
// fold and a vectorized float dot fold (its products and sums are
// exact, so any worker split prints the same), and must print what the
// interpreter prints.
func TestKernelLaunchesDoNotAllocate(t *testing.T) {
	for _, pragma := range []string{"", "#pragma omp parallel for schedule(dynamic,1)"} {
		clause := func(c string) string {
			if pragma == "" {
				return ""
			}
			return pragma + " reduction(" + c + ")"
		}
		src := fmt.Sprintf(`
int data[2000];
int idx[2000];
float gx[64], gy[2000], dx[2000], dy[2000];
float cur[64][64], next[64][64];
pure int square(int x) { return x * x; }
int main(void) {
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            cur[i][j] = (float)((i * 7 + j) %% 13) * 0.25f;
    for (int i = 0; i < 64; i++) gx[i] = 0.5f * (float)i;
    for (int i = 0; i < 2000; i++) { idx[i] = (i * 7) %% 64; dx[i] = (float)(i %% 5); dy[i] = (float)(i %% 3); }
%[1]s
    for (int i = 0; i < 2000; i++)
        data[i] = ((i + 1000003) * 1103515245 + 12345) %% 4096;
    int s = 0;
%[2]s
    for (int i = 0; i < 2000; i++)
        s += square((i + 1000003) %% 8191);
%[1]s
    for (int i = 1; i < 63; i++)
        for (int j = 1; j < 63; j++)
            next[i][j] = 0.25f * (cur[i - 1][j] + cur[i][j - 1] + cur[i][j + 1] + cur[i + 1][j]);
%[1]s
    for (int i = 0; i < 2000; i++) gy[i] = gx[idx[i]];
    int hist[64];
    for (int b = 0; b < 64; b++) hist[b] = 0;
%[3]s
    for (int i = 0; i < 2000; i++) hist[idx[i]]++;
    int m = 1 << 30;
%[4]s
    for (int i = 0; i < 2000; i++) if (data[i] < m) m = data[i];
    float d = 0.0f;
%[5]s
    for (int i = 0; i < 2000; i++) d += dx[i] * dy[i];
    printf("%%d %%d %%g %%g %%d %%d %%g\n", data[1999], s, next[31][17], gy[1234], hist[9], m, d);
    return 0;
}`, pragma, clause("+:s"), clause("+:hist[]"), clause("min:m"), clause("+:d"))
		_, want := oracleRun(t, src)
		for _, eng := range bothEngines {
			prog := compileProgram(t, src, Options{Engine: eng, Vectorize: true})
			if prog.FusedKernels() != 8 {
				t.Fatalf("engine=%v pragma=%q: %d fused kernels, want 8", eng, pragma, prog.FusedKernels())
			}
			pool := prog.NewPool(PoolOptions{Size: 1, NewTeam: func() *rt.Team { return rt.NewTeam(2) }})
			run := func() {
				proc, err := pool.Get()
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				proc.SetStdout(&out)
				if _, err := proc.RunMain(); err != nil || out.String() != want {
					t.Fatalf("engine=%v pragma=%q: printed %q err %v, oracle %q", eng, pragma, out.String(), err, want)
				}
				pool.Put(proc)
			}
			run() // grows the frame stacks, the arena and the team once
			allocs := testing.AllocsPerRun(10, run)
			t.Logf("engine=%v pragma=%q: %.0f allocations per run", eng, pragma, allocs)
			if allocs > 160 { // seven regions on two workers and the printf take 115
				t.Errorf("engine=%v pragma=%q: %.0f allocations per run of 10 000-odd launches, want a small constant", eng, pragma, allocs)
			}
		}
	}
}
