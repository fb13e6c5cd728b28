package comp

import (
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

// TestFusedGathersMatchDispatchAndOracle: ?:-clamped gathers. C tests
// a nested clamp's outer level first, so a level whose bound lies
// outside the range of the levels inside it is no min/max: it keeps
// its branches, stays on dispatch and must read what interp reads
// (x[15] for idx 20 below the upper pair, x[20] for idx 3 below the
// lower-then-upper pair). A well-formed clamp fuses.
func TestFusedGathersMatchDispatchAndOracle(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		fused int
	}{
		{"upper-then-upper", "y[i] = x[idx[i] > 15 ? 15 : (idx[i] > 10 ? 10 : idx[i])];", 0},
		{"lower-then-upper", "y[i] = x[idx[i] < 20 ? 20 : (idx[i] > 15 ? 15 : idx[i])];", 0},
		{"well-formed", "y[i] = x[idx[i] < 0 ? 0 : (idx[i] > 15 ? 15 : idx[i])];", 1},
		// Two index loads gather from one array; the kernel checks both.
		{"two-index-arrays", "y[i] = x[idx[i]] + x[jdx[i]];", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(`
float x[32], y[64];
int idx[64], jdx[64];
int main(void) {
    for (int i = 0; i < 32; i++) x[i] = (float)i * 0.5f;
    for (int i = 0; i < 64; i++) { idx[i] = i %% 3 == 0 ? 20 : (i %% 3 == 1 ? 3 : i %% 24); jdx[i] = i * 7 %% 32; }
    for (int i = 0; i < 64; i++) %s
    return (int)(y[0] + y[1] + y[2]);
}`, c.body)
			m := fuseCompare(t, src, "y")
			if got := m.Program().FusedKernels(); got != c.fused {
				t.Errorf("%d fused kernels, want %d", got, c.fused)
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

// TestFusedPostLoopIteratorValue: a launched loop whose iterator is
// declared outside it leaves the dispatch loop's post-loop value in the
// iterator, as interp does: hi+1 after a completed range, the lower
// bound after an empty one — for a map kernel, a body that stays on the
// dispatch tape and a scalar reduction, inline (a real 1-worker team),
// on real and simulated teams, and as a sequential loop.
func TestFusedPostLoopIteratorValue(t *testing.T) {
	bodies := []struct {
		name, clause, body string
		kernels            int
	}{
		{"map-kernel", "", "w[i] = i;", 1},
		{"dispatch-only", "", "{ int v = i; w[i] = v; }", 0},
		{"scalar-reduction", " reduction(+:s)", "s += w[i];", 1},
	}
	teams := []struct {
		name string
		team func() *rt.Team
	}{
		{"sequential", nil},
		{"real-1", func() *rt.Team { return rt.NewTeam(1) }},
		{"real-2", func() *rt.Team { return rt.NewTeam(2) }},
		{"sim-1", func() *rt.Team { return rt.NewSimTeam(1) }},
		{"sim-2", func() *rt.Team { return rt.NewSimTeam(2) }},
	}
	ranges := []struct{ name, lo, n string }{{"full", "0", "10"}, {"empty", "5", "0"}}
	for _, b := range bodies {
		for _, tm := range teams {
			for _, r := range ranges {
				t.Run(b.name+"/"+tm.name+"/"+r.name, func(t *testing.T) {
					pragma, opts := "", Options{}
					if tm.team != nil {
						pragma, opts.Team = "#pragma omp parallel for"+b.clause, tm.team()
					}
					src := fmt.Sprintf(`
int w[10];
int main(void) {
    int i = 77;
    int s = 3;
    int n = %s;
    for (int k = 0; k < 10; k++) w[k] = k + 1;
%s
    for (i = %s; i < n; i++)
        %s
    return i * 1000 + s;
}`, r.n, pragma, r.lo, b.body)
					m := compile(t, src, opts)
					got, err := m.RunMain()
					if err != nil {
						t.Fatal(err)
					}
					if want := runSerialOracle(t, src); got != want {
						t.Errorf("returned %d, interp %d", got, want)
					}
					if n := m.Program().FusedKernels(); n != b.kernels+1 {
						t.Errorf("%d fused kernels, want %d", n, b.kernels+1)
					}
				})
			}
		}
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

// TestFusedDivisionByZeroTraps: a fused loop traps where dispatch and
// interp do, with their text. An invariant division by a zero variable
// is no launch-time trap: next to an operand that runs off its array
// first (int x[4] from i = 5), the trap is the load's.
func TestFusedDivisionByZeroTraps(t *testing.T) {
	cases := []struct {
		name, src string
		fused     int
	}{
		{"varying-divisor", `
int v[8], w[8];
int main(void) {
    for (int i = 0; i < 8; i++)
        v[i] = i;
    int z = 0;
    for (int i = 0; i < 8; i++)
        w[i] = v[i] / z;
    return 0;
}`, 2},
		{"invariant-divisor-after-oob-load", `
int x[4], y[16];
int main(void) {
    int n = 7, d = 0;
    for (int i = 5; i < 9; i++)
        y[i] = x[i] + n / d;
    return 0;
}`, 1},
		{"invariant-modulo-in-sum-after-oob-load", `
int x[4];
int main(void) {
    int n = 7, d = 0, s = 0;
    for (int i = 5; i < 9; i++)
        s += x[i] + n % d;
    return s;
}`, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := compile(t, c.src, Options{})
			if m.Program().FusedKernels() != c.fused {
				t.Fatalf("want %d fused loops, got %d kernels", c.fused, m.Program().FusedKernels())
			}
			_, err := m.RunMain()
			if err == nil {
				t.Fatal("the loop must trap")
			}
			_, want := oracleMachine(t, c.src).RunMain()
			if want == nil || "interp "+err.Error() != want.Error() {
				t.Fatalf("trap %q, interp %v", err, want)
			}
		})
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

// TestFusedKernelLimits pins the accept/reject boundaries of the
// lifter's own bounds, each at its limit and one past it: maxLoads
// distinct strided operands (x[i], x[i + i], …: no invariant offsets),
// maxInvs launch invariants (the bases of x and y and one constant per
// addend), maxRegs strip columns (the powers i, i*i, … of a
// right-nested sum all stay live until its innermost addition) and
// maxNodes lifted values (the bases of x and y, the iterator, the load,
// then two per level of (… * i + i)). A loop past any bound stays on
// the dispatch path; all of them agree with dispatch and the oracle.
func TestFusedKernelLimits(t *testing.T) {
	program := func(rhs string) string {
		return fmt.Sprintf(`int x[1100]; int y[64];
		int main(void) {
			for (int i = 0; i < 1100; i++) x[i] = i * 3 - 40;
			for (int i = 0; i < 64; i++) y[i] = %s;
			return y[63];
		}`, rhs)
	}
	sum := func(n int, term func(k int) string) string {
		terms := make([]string, n)
		for k := range terms {
			terms[k] = term(k + 1)
		}
		return strings.Join(terms, " + ")
	}
	strided := func(n int) string {
		return sum(n, func(k int) string { return "x[i" + strings.Repeat(" + i", k-1) + "]" })
	}
	constants := func(n int) string { return "x[i] + " + sum(n, func(k int) string { return fmt.Sprint(k) }) }
	powers := func(n int) string {
		rhs := "i"
		for k := 2; k <= n; k++ {
			rhs = strings.Repeat("i * ", k-1) + "i + (" + rhs + ")"
		}
		return rhs
	}
	nodes := func(n int) string { return strings.Repeat("(", n) + "x[i]" + strings.Repeat(" * i + i)", n) }
	cases := []struct {
		name  string
		rhs   string
		fused int // kernels besides the fill loop
	}{
		{"loads-at-limit", strided(maxLoads), 1},
		{"loads-one-past", strided(maxLoads + 1), 0},
		{"invs-at-limit", constants(maxInvs - 2), 1},
		{"invs-one-past", constants(maxInvs - 1), 0},
		{"regs-at-limit", powers(maxRegs), 1},
		{"regs-one-past", powers(maxRegs + 1), 0},
		{"nodes-at-limit", nodes((maxNodes - 4) / 2), 1},
		{"nodes-one-past", nodes((maxNodes-4)/2 + 1), 0},
	}
	for _, c := range cases {
		m := fuseCompare(t, program(c.rhs), "y")
		if got := m.Program().FusedKernels(); got != 1+c.fused {
			t.Errorf("%s: %d fused kernels, want %d", c.name, got, 1+c.fused)
		}
	}
}

// TestLifterRefusals: bodies whose tape the lifter does not read stay
// on the dispatch path and agree with the oracle — a call that does
// not inline, printf, a store to a global scalar, a pointer store, a
// store through a pointer loaded every iteration, and a value that can
// trap but that no sink reads (a division by zero, a load off its
// array), which the kernel would drop where the dispatch body traps.
func TestLifterRefusals(t *testing.T) {
	for _, c := range []struct {
		name, body string
		trap       bool
	}{
		{"call", "y[i] = twice(x[i]);", false},
		{"printf", `{ y[i] = x[i]; printf(""); }`, false},
		{"global-scalar-store", "g = x[i];", false},
		{"pointer-store", "ptrs[i] = x;", false},
		{"store-through-loaded-pointer", "*ptrs[i] = x[i];", false},
		{"unread-division-by-zero", "{ a / z; y[i] = x[i]; }", true},
		{"unread-load-off-its-array", "{ x[i + n]; y[i] = x[i]; }", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(`int x[64]; int y[64]; int g; int *ptrs[64];
			pure int twice(int v) { int w = v + v; return w; }
			int main(void) {
				int a = 7, z = 0, n = 64;
				for (int i = 0; i < 64; i++) { x[i] = i * 3 - 40; ptrs[i] = &y[i]; }
				for (int i = 0; i < 64; i++) %s
				return y[63] + g;
			}`, c.body)
			var m *Machine
			if c.trap {
				m = compile(t, src, Options{})
				_, err := m.RunMain()
				_, want := oracleMachine(t, src).RunMain()
				if err == nil || want == nil || "interp "+err.Error() != want.Error() {
					t.Fatalf("trap %v, interp %v", err, want)
				}
			} else {
				m = fuseCompare(t, src, "y")
			}
			if got := m.Program().FusedKernels(); got != 0 {
				t.Errorf("%d fused kernels, want the loop on dispatch", got)
			}
		})
	}
}
