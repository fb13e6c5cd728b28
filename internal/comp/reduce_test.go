package comp

import (
	"fmt"
	"strings"
	"testing"

	"purec/internal/interp"
	"purec/internal/parser"
	"purec/internal/rt"
	"purec/internal/sema"
)

// reduceTeams is the team matrix reduction loops are exercised on: real
// and simulated, 1 worker through oversubscribed.
func reduceTeams() []*rt.Team {
	var out []*rt.Team
	for _, n := range []int{1, 2, 3, 8} {
		out = append(out, rt.NewTeam(n), rt.NewSimTeam(n))
	}
	return out
}

func runWithTeam(t *testing.T, src string, team *rt.Team) int64 {
	t.Helper()
	m := compile(t, src, Options{Team: team})
	got, err := m.RunMain()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

// runSerialOracle executes main under the interp oracle alone.
func runSerialOracle(t *testing.T, src string) int64 {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	in, err := interp.New(info, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	got, err := in.RunMain()
	if err != nil {
		t.Fatalf("interp run: %v", err)
	}
	return got
}

func TestReductionPragmaEveryOp(t *testing.T) {
	cases := []struct {
		op   string
		init string
		want int64
	}{
		// s starts nonzero so the combine must fold the initial value in.
		{"+", "5", 5 + 4950},          // sum 0..99
		{"*", "2", 2 * 1 * 2 * 3 * 4}, // product of i+1 over 0..3
		{"&", "255", 255 & 254 & 253}, // and over 254,253
		{"|", "1", 1 | 8 | 9},         // or
		{"^", "7", 7 ^ 10 ^ 11 ^ 12},  // xor
	}
	bounds := map[string]int{"+": 100, "*": 4, "&": 2, "|": 2, "^": 3}
	for _, c := range cases {
		var src string
		switch c.op {
		case "+":
			src = fmt.Sprintf(`
int main(void) {
    int s = %s;
#pragma omp parallel for reduction(+:s)
    for (int i = 0; i < %d; i++)
        s += i;
    return s;
}`, c.init, bounds[c.op])
		case "*":
			src = fmt.Sprintf(`
int main(void) {
    int s = %s;
#pragma omp parallel for reduction(*:s)
    for (int i = 0; i < %d; i++)
        s *= i + 1;
    return s;
}`, c.init, bounds[c.op])
		case "&":
			src = fmt.Sprintf(`
int main(void) {
    int s = %s;
#pragma omp parallel for reduction(&:s)
    for (int i = 0; i < %d; i++)
        s &= 254 - i;
    return s;
}`, c.init, bounds[c.op])
		case "|":
			src = fmt.Sprintf(`
int main(void) {
    int s = %s;
#pragma omp parallel for reduction(|:s)
    for (int i = 0; i < %d; i++)
        s |= 8 + i;
    return s;
}`, c.init, bounds[c.op])
		case "^":
			src = fmt.Sprintf(`
int main(void) {
    int s = %s;
#pragma omp parallel for reduction(^:s)
    for (int i = 0; i < %d; i++)
        s ^= 10 + i;
    return s;
}`, c.init, bounds[c.op])
		}
		for _, team := range reduceTeams() {
			got := runWithTeam(t, src, team)
			if got != c.want {
				t.Errorf("op %s on %d workers (sim=%v): got %d want %d",
					c.op, team.Size(), team.Simulated(), got, c.want)
			}
		}
	}
}

func TestReductionPragmaEverySchedule(t *testing.T) {
	// sum 1..10000 = 50005000 under every schedule clause, on real and
	// simulated teams.
	for _, sched := range []string{"", "static", "static,7", "dynamic", "dynamic,13", "guided", "guided,4"} {
		clause := ""
		if sched != "" {
			clause = fmt.Sprintf(" schedule(%s)", sched)
		}
		src := fmt.Sprintf(`
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(+:s)%s
    for (int i = 1; i <= 10000; i++)
        s += i;
    return s == 50005000;
}`, clause)
		for _, team := range reduceTeams() {
			if got := runWithTeam(t, src, team); got != 1 {
				t.Errorf("schedule %q on %d workers (sim=%v): wrong sum", sched, team.Size(), team.Simulated())
			}
		}
	}
}

func TestReductionPragmaMultipleAccumulators(t *testing.T) {
	src := `
int main(void) {
    int s = 0;
    int p = 1;
#pragma omp parallel for reduction(+:s) reduction(*:p)
    for (int i = 1; i <= 6; i++) {
        s += i;
        p *= i;
    }
    return s * 1000 + p;   /* 21 and 720 */
}`
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != 21720 {
			t.Errorf("%d workers (sim=%v): got %d want 21720", team.Size(), team.Simulated(), got)
		}
	}
}

func TestReductionPragmaFloatDeterministicAtFixedSimTeam(t *testing.T) {
	// Float reductions: reproducible run-to-run at a fixed simulated
	// team size (fixed chunk order + worker-ordered combine), and exact
	// against the interp oracle when the initial value is the identity
	// at 1 worker.
	src := `
float out;
int main(void) {
    float s = 0.0f;
#pragma omp parallel for reduction(+:s) schedule(dynamic,3)
    for (int i = 0; i < 5000; i++)
        s += 1.0f / (float)(i + 1);
    out = s;
    return 0;
}`
	read := func(team *rt.Team) float64 {
		m := compile(t, src, Options{Team: team})
		if _, err := m.RunMain(); err != nil {
			t.Fatalf("run: %v", err)
		}
		v, err := m.GlobalFloat("out")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, n := range []int{2, 4, 8} {
		first := read(rt.NewSimTeam(n))
		for rep := 0; rep < 5; rep++ {
			if got := read(rt.NewSimTeam(n)); got != first {
				t.Fatalf("sim %d workers: run %d gave %x, first %x", n, rep, got, first)
			}
		}
	}
}

func TestReductionGlobalAccumulatorFallsBackSerial(t *testing.T) {
	// A reduction clause naming a global cannot be privatized through
	// the frame clone; the compiled loop must fall back to serial
	// execution and still produce the exact result.
	src := `
int g;
int main(void) {
    g = 3;
#pragma omp parallel for reduction(+:g)
    for (int i = 0; i < 100; i++)
        g += i;
    return g;
}`
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != 3+4950 {
			t.Errorf("%d workers (sim=%v): got %d want %d", team.Size(), team.Simulated(), got, 3+4950)
		}
	}
}

func TestReductionMatchesInterpOracle(t *testing.T) {
	// Integer reductions are bit-identical to the sequential interp
	// oracle on every backend and team size.
	src := `
pure int square(int x) { return x * x; }
int main(void) {
    int s = 17;
#pragma omp parallel for reduction(+:s) schedule(dynamic,5)
    for (int i = 0; i < 200; i++)
        s += square(i);
    return s;
}`
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	in, err := interp.New(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := in.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendGCC, BackendICC} {
		for _, team := range reduceTeams() {
			m := compile(t, src, Options{Backend: backend, Team: team})
			got, err := m.RunMain()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%v on %d workers (sim=%v): got %d, oracle %d",
					backend, team.Size(), team.Simulated(), got, want)
			}
		}
	}
}

func TestSimOneWorkerMachineAccountsRegions(t *testing.T) {
	// Regression through the whole execution path: a 1-worker simulated
	// team must accumulate region time for pragma-annotated loops (both
	// plain parallel-for and reductions).
	srcs := map[string]string{
		"plain": `
int a[256];
int main(void) {
#pragma omp parallel for
    for (int i = 0; i < 256; i++)
        a[i] = i * i;
    return 0;
}`,
		"reduction": `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(+:s)
    for (int i = 0; i < 256; i++)
        s += i * i;
    return 0;
}`,
	}
	for name, src := range srcs {
		team := rt.NewSimTeam(1)
		m := compile(t, src, Options{Team: team})
		if _, err := m.RunMain(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		real, virt := team.TakeSim()
		if real <= 0 || virt <= 0 {
			t.Errorf("%s: 1-worker sim team reported zero region time (real=%v virt=%v)", name, real, virt)
		}
	}
}

func TestReductionInterpRejectsMalformedPragma(t *testing.T) {
	// The oracle validates reduction clauses instead of silently
	// ignoring them: the clause is refused when the program loads.
	info := mustCheck(t, `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(+:nosuch)
    for (int i = 0; i < 10; i++)
        s += i;
    return s;
}`)
	if _, err := interp.New(info, nil); err == nil {
		t.Fatal("interp must reject a reduction clause with no matching accumulator")
	}
}

func TestReductionUnsupportedOperatorRunsSerial(t *testing.T) {
	// reduction(/:s) is valid OpenMP syntax but outside purec's
	// parallelizable operator set: the loop must run serially and still
	// produce the exact result (never silently drop the accumulator
	// updates).
	src := `
int main(void) {
    int s = 1000000;
#pragma omp parallel for reduction(/:s)
    for (int i = 1; i <= 3; i++)
        s /= 2;
    return s;
}`
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != 125000 {
			t.Errorf("%d workers (sim=%v): got %d want 125000", team.Size(), team.Simulated(), got)
		}
	}
}

func TestReductionSubCompoundParallelizes(t *testing.T) {
	// reduction(-:s) reduces by negation onto "+": zero-seeded privates
	// accumulate the subtractions and the partials fold back with
	// addition. Integer results are exact at every team size.
	src := `
int main(void) {
    int s = 1000;
#pragma omp parallel for reduction(-:s)
    for (int i = 1; i <= 10; i++)
        s -= i;
    return s;
}`
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != 1000-55 {
			t.Errorf("%d workers (sim=%v): got %d want %d", team.Size(), team.Simulated(), got, 1000-55)
		}
	}
}

func TestReductionSubPlainFormParallelizes(t *testing.T) {
	// The plain-assignment form s = s - e binds a "-" clause exactly
	// like the compound form.
	src := `
int main(void) {
    int s = 500;
#pragma omp parallel for reduction(-:s)
    for (int i = 0; i < 100; i++)
        s = s - i;
    return s;
}`
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != 500-4950 {
			t.Errorf("%d workers (sim=%v): got %d want %d", team.Size(), team.Simulated(), got, 500-4950)
		}
	}
}

func TestReductionSubFloatOracleExact(t *testing.T) {
	// Float "-" reductions: the serial oracle and the inline/1-worker
	// compiled runs share the sequential accumulation order, so they
	// agree bit-exactly (scaled into an int return).
	src := `
int main(void) {
    double s = 1000.0;
#pragma omp parallel for reduction(-:s)
    for (int i = 1; i <= 50; i++)
        s -= i * 0.5;
    return (int)(s * 4.0);
}`
	want := int64((1000.0 - 0.5*(50*51/2)) * 4.0)
	if got := runBoth(t, src); got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestReductionSubArrayParallelizes(t *testing.T) {
	// hist[a[i]] -= e binds a reduction(-:hist[]) clause; the fused
	// gather-update kernel already handles the SUB update, so the
	// parallel result is exact at every team size.
	src := `
int main(void) {
    int hist[8];
    int data[64];
    for (int i = 0; i < 8; i++) hist[i] = 100;
    for (int i = 0; i < 64; i++) data[i] = (i * 5) % 8;
#pragma omp parallel for reduction(-:hist[])
    for (int i = 0; i < 64; i++)
        hist[data[i]] -= 2;
    int s = 0;
    for (int i = 0; i < 8; i++) s = s + hist[i] * (i + 1);
    return s;
}`
	for _, team := range reduceTeams() {
		m := compile(t, src, Options{Team: team})
		got, err := m.RunMain()
		if err != nil {
			t.Fatal(err)
		}
		want := runSerialOracle(t, src)
		if got != want {
			t.Errorf("%d workers (sim=%v): got %d want %d", team.Size(), team.Simulated(), got, want)
		}
	}
}

func TestReductionNonCanonicalLoopIsCompileError(t *testing.T) {
	// parallelFor diagnoses non-canonical annotated loops; adding a
	// reduction clause must not suppress that diagnostic.
	src := `
int main(void) {
    int s = 0;
    int i;
#pragma omp parallel for reduction(+:s)
    for (i = 0; i < 10; i += 2)
        s += i;
    return s;
}`
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(info, Options{}); err == nil {
		t.Fatal("non-canonical reduction loop must fail compilation")
	}
}

func TestReductionMissingAccumulatorIsCompileError(t *testing.T) {
	// A clause naming no matching update is a malformed pragma: both the
	// compiler and the oracle must reject it (not one of them).
	rejectedByBoth(t, `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(+:nosuch)
    for (int i = 0; i < 10; i++)
        s += i;
    return s;
}`)
}

func TestNonParallelForPragmaWithReductionIgnoredByOracle(t *testing.T) {
	// The compiler ignores pragmas that are not omp parallel for; the
	// oracle must not validate (and reject) their reduction clauses.
	src := `
int main(void) {
    int s = 0;
#pragma omp simd reduction(+:s)
    for (int i = 0; i < 10; i++)
        s = s + i;
    return s;
}`
	if got := runBoth(t, src); got != 45 {
		t.Fatalf("got %d want 45", got)
	}
}

func TestReductionShadowedAccumulatorBindsEnclosingScope(t *testing.T) {
	// An inner-scope `int s` shadowing the accumulator is automatically
	// private; the clause must bind the enclosing s, and its updates
	// must survive at every team size.
	src := `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(+:s)
    for (int i = 0; i < 100; i++) {
        if (i > 1000) {
            int s = 0;
            s += 1;
        }
        s += i;
    }
    return s;
}`
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != 4950 {
			t.Errorf("%d workers (sim=%v): got %d want 4950", team.Size(), team.Simulated(), got)
		}
	}
}

func TestReductionOnlyShadowedUpdateIsCompileError(t *testing.T) {
	// When every matching update targets a loop-local shadow, the clause
	// names no enclosing accumulator: both compiler and oracle reject.
	rejectedByBoth(t, `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(+:s)
    for (int i = 0; i < 10; i++) {
        int s = 0;
        s += i;
    }
    return s;
}`)
}

func TestReductionUnsupportedOpAcceptedByBothBackendAndOracle(t *testing.T) {
	// Clauses outside the parallelized operator set run serially in the
	// compiler and are skipped by the oracle's validation — the two must
	// agree the program is valid (even with a bogus variable name).
	src := `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(/:nosuch)
    for (int i = 0; i < 10; i++)
        s = s + i;
    return s;
}`
	if got := runBoth(t, src); got != 45 {
		t.Fatalf("got %d want 45", got)
	}
}

func TestReductionPointerAccumulatorRejectedByBoth(t *testing.T) {
	rejectedByBoth(t, `
int main(void) {
    int a[4];
    int* p = a;
#pragma omp parallel for reduction(+:p)
    for (int i = 0; i < 4; i++)
        p += 1;
    return 0;
}`)
}

// rejectedByBoth asserts that the compiler refuses src and that the
// interp oracle refuses to load it, with the same diagnostic.
func rejectedByBoth(t *testing.T, src string) {
	t.Helper()
	info := mustCheck(t, src)
	_, cerr := Compile(info, Options{})
	_, ierr := interp.New(info, nil)
	if cerr == nil || ierr == nil || !strings.HasSuffix(cerr.Error(), ": "+ierr.Error()) {
		t.Fatalf("compile error %v, oracle error %v: want one rejection from both", cerr, ierr)
	}
}

func TestReductionMinMaxPragma(t *testing.T) {
	// Guarded min/max updates run through ParallelForReduce with the
	// comparison's absorbing identity; every team produces the serial
	// result. Both the if-pattern and the ?: form, both directions.
	cases := []struct {
		name string
		src  string
		want int64
	}{
		{"min_if", `
int a[200];
int main(void) {
    for (int i = 0; i < 200; i++)
        a[i] = (i * 37) % 151 + 10;
    a[123] = 3;
    int m = 1000000;
#pragma omp parallel for reduction(min:m) schedule(dynamic,7)
    for (int i = 0; i < 200; i++)
        if (a[i] < m) m = a[i];
    return m;
}`, 3},
		{"max_if", `
int a[200];
int main(void) {
    for (int i = 0; i < 200; i++)
        a[i] = (i * 37) % 151;
    a[77] = 9999;
    int m = -1000000;
#pragma omp parallel for reduction(max:m)
    for (int i = 0; i < 200; i++)
        if (a[i] > m) m = a[i];
    return m;
}`, 9999},
		{"min_ternary", `
int a[100];
int main(void) {
    for (int i = 0; i < 100; i++)
        a[i] = 500 - i * 3;
    int m = 1 << 30;
#pragma omp parallel for reduction(min:m) schedule(static,9)
    for (int i = 0; i < 100; i++)
        m = a[i] < m ? a[i] : m;
    return m;
}`, 500 - 99*3},
		{"max_reversed_cond", `
int a[100];
int main(void) {
    for (int i = 0; i < 100; i++)
        a[i] = (i * 13) % 89;
    int m = -1;
#pragma omp parallel for reduction(max:m)
    for (int i = 0; i < 100; i++)
        if (m < a[i]) m = a[i];
    return m;
}`, 88},
	}
	for _, c := range cases {
		for _, team := range reduceTeams() {
			got := runWithTeam(t, c.src, team)
			if got != c.want {
				t.Errorf("%s on %d workers (sim=%v): got %d want %d",
					c.name, team.Size(), team.Simulated(), got, c.want)
			}
		}
	}
}

func TestReductionMinMaxFloat(t *testing.T) {
	// Float min: comparisons pick among stored (already rounded)
	// values, so the parallel result is bit-identical to serial at
	// every team size — no regrouping sensitivity.
	src := `
float a[500];
float out;
int main(void) {
    for (int i = 0; i < 500; i++)
        a[i] = (float)((i * 29) % 211) * 0.5f + 1.0f;
    a[321] = 0.125f;
    float m = 1000000.0f;
#pragma omp parallel for reduction(min:m) schedule(dynamic,11)
    for (int i = 0; i < 500; i++)
        if (a[i] < m) m = a[i];
    out = m;
    return 0;
}`
	read := func(team *rt.Team) float64 {
		m := compile(t, src, Options{Team: team})
		if _, err := m.RunMain(); err != nil {
			t.Fatal(err)
		}
		v, err := m.GlobalFloat("out")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := read(rt.NewTeam(1))
	if want != 0.125 {
		t.Fatalf("serial min = %v, want 0.125", want)
	}
	for _, team := range reduceTeams() {
		if got := read(team); got != want {
			t.Errorf("%d workers (sim=%v): got %v want %v", team.Size(), team.Simulated(), got, want)
		}
	}
}

func TestReductionMinMaxEmptyRangeKeepsInitial(t *testing.T) {
	// An empty iteration range must leave the accumulator untouched
	// (the identity never leaks out of the private clones).
	src := `
int a[4];
int main(void) {
    int m = 42;
    int n = 0;
#pragma omp parallel for reduction(min:m)
    for (int i = 0; i < n; i++)
        if (a[i] < m) m = a[i];
    return m;
}`
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != 42 {
			t.Errorf("%d workers (sim=%v): got %d want 42", team.Size(), team.Simulated(), got)
		}
	}
}

func TestReductionMinMaxNonPatternRunsSerial(t *testing.T) {
	// A plain assignment that is not a guarded min/max update keeps
	// the loop serial (wrong-direction pattern): the result must be
	// the sequential one at every team size, never a min-combine of
	// partials.
	src := `
int a[50];
int main(void) {
    for (int i = 0; i < 50; i++)
        a[i] = i;
    int m = 0;
#pragma omp parallel for reduction(min:m)
    for (int i = 0; i < 50; i++)
        if (a[i] > m) m = a[i];   /* max pattern under a min clause */
    return m;
}`
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != 49 {
			t.Errorf("%d workers (sim=%v): got %d want 49 (serial fallback)", team.Size(), team.Simulated(), got)
		}
	}
}
