package comp

import (
	"fmt"
	"testing"

	"purec/internal/rt"
)

// histProgram builds a histogram program whose hot loop carries an
// explicit array-reduction pragma with the given update and clause.
func histProgram(clause, update string) string {
	return fmt.Sprintf(`
int data[300];
int out[16];
int main(void) {
    for (int i = 0; i < 300; i++)
        data[i] = (i * 17 + 5) %% 16;
    int hist[16];
    for (int b = 0; b < 16; b++)
        hist[b] = 1;
#pragma omp parallel for %s
    for (int i = 0; i < 300; i++)
        %s
    int sum = 0;
    for (int b = 0; b < 16; b++)
        sum += hist[b] * (b + 1);
    out[0] = sum;
    return sum;
}`, clause, update)
}

// serialResult runs the program on a 1-worker real team (inline,
// bit-identical to the sequential build).
func serialResult(t *testing.T, src string) int64 {
	t.Helper()
	return runWithTeam(t, src, rt.NewTeam(1))
}

func TestArrayReductionPragmaEveryOp(t *testing.T) {
	cases := []struct {
		name   string
		clause string
		update string
	}{
		{"increment", "reduction(+:hist[])", "hist[data[i]]++;"},
		{"decrement", "reduction(+:hist[])", "hist[data[i]]--;"},
		{"compound_add", "reduction(+:hist[])", "hist[data[i]] += 3;"},
		{"compound_mul", "reduction(*:hist[])", "hist[data[i]] *= 2;"},
		{"compound_and", "reduction(&:hist[])", "hist[data[i]] &= 6;"},
		{"compound_or", "reduction(|:hist[])", "hist[data[i]] |= 8;"},
		{"compound_xor", "reduction(^:hist[])", "hist[data[i]] ^= 5;"},
	}
	for _, c := range cases {
		src := histProgram(c.clause, c.update)
		want := serialResult(t, src)
		for _, team := range reduceTeams() {
			if got := runWithTeam(t, src, team); got != want {
				t.Errorf("%s on %d workers (sim=%v): got %d want %d",
					c.name, team.Size(), team.Simulated(), got, want)
			}
		}
	}
}

func TestArrayReductionEverySchedule(t *testing.T) {
	for _, sched := range []string{"", "static", "static,7", "dynamic", "dynamic,13", "guided", "guided,4"} {
		clause := "reduction(+:hist[])"
		if sched != "" {
			clause += fmt.Sprintf(" schedule(%s)", sched)
		}
		src := histProgram(clause, "hist[data[i]]++;")
		want := serialResult(t, src)
		for _, team := range reduceTeams() {
			if got := runWithTeam(t, src, team); got != want {
				t.Errorf("schedule %q on %d workers (sim=%v): got %d want %d",
					sched, team.Size(), team.Simulated(), got, want)
			}
		}
	}
}

func TestArrayReductionFuseMatchesDispatch(t *testing.T) {
	// The fused gather-update kernel must be bit-identical to the
	// interpreter's dispatch on every team.
	src := histProgram("reduction(+:hist[])", "hist[data[i]] += 2;")
	want := runSerialOracle(t, src)
	for _, team := range reduceTeams() {
		m := compile(t, src, Options{Team: team})
		if m.Program().FusedKernels() == 0 {
			t.Fatal("the gather-update loop did not fuse")
		}
		got, err := m.RunMain()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%d workers (sim=%v): got %d want %d",
				team.Size(), team.Simulated(), got, want)
		}
	}
}

func TestArrayReductionGlobalArrayFallsBackSerial(t *testing.T) {
	// A clause naming a global array cannot privatize through the
	// frame clone: the loop runs serially and stays exact.
	src := `
int hist[8];
int main(void) {
    for (int b = 0; b < 8; b++)
        hist[b] = b;
#pragma omp parallel for reduction(+:hist[])
    for (int i = 0; i < 100; i++)
        hist[i % 8]++;
    int sum = 0;
    for (int b = 0; b < 8; b++)
        sum += hist[b];
    return sum;
}`
	want := int64(0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 100)
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != want {
			t.Errorf("%d workers (sim=%v): got %d want %d", team.Size(), team.Simulated(), got, want)
		}
	}
}

func TestArrayReductionPointerBaseFallsBackSerial(t *testing.T) {
	// A pointer base may alias anything and its extent is unknown:
	// serial fallback, exact result.
	src := `
int main(void) {
    int* hist = (int*)malloc(8 * sizeof(int));
    for (int b = 0; b < 8; b++)
        hist[b] = 0;
#pragma omp parallel for reduction(+:hist[])
    for (int i = 0; i < 100; i++)
        hist[i % 8]++;
    int sum = 0;
    for (int b = 0; b < 8; b++)
        sum += hist[b] * (b + 1);
    free(hist);
    return sum;
}`
	want := serialResult(t, src)
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != want {
			t.Errorf("%d workers (sim=%v): got %d want %d", team.Size(), team.Simulated(), got, want)
		}
	}
}

func TestArrayReductionMinMax(t *testing.T) {
	src := `
int data[200], bin[200];
int main(void) {
    for (int i = 0; i < 200; i++) {
        data[i] = (i * 37) % 151;
        bin[i] = i % 8;
    }
    data[77] = -5;
    int lo[8];
    for (int b = 0; b < 8; b++)
        lo[b] = 1000000;
#pragma omp parallel for reduction(min:lo[]) schedule(dynamic,7)
    for (int i = 0; i < 200; i++)
        if (data[i] < lo[bin[i]]) lo[bin[i]] = data[i];
    int sum = 0;
    for (int b = 0; b < 8; b++)
        sum += lo[b];
    return sum;
}`
	want := serialResult(t, src)
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != want {
			t.Errorf("%d workers (sim=%v): got %d want %d", team.Size(), team.Simulated(), got, want)
		}
	}
}

func TestArrayReductionMinMaxTernary(t *testing.T) {
	src := `
int data[100], bin[100];
int main(void) {
    for (int i = 0; i < 100; i++) {
        data[i] = 500 - i * 3;
        bin[i] = i % 4;
    }
    int hi[4];
    for (int b = 0; b < 4; b++)
        hi[b] = -1000000;
#pragma omp parallel for reduction(max:hi[])
    for (int i = 0; i < 100; i++)
        hi[bin[i]] = data[i] > hi[bin[i]] ? data[i] : hi[bin[i]];
    int sum = 0;
    for (int b = 0; b < 4; b++)
        sum += hi[b];
    return sum;
}`
	want := serialResult(t, src)
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != want {
			t.Errorf("%d workers (sim=%v): got %d want %d", team.Size(), team.Simulated(), got, want)
		}
	}
}

func TestArrayReductionEmptyRangeKeepsValues(t *testing.T) {
	// An empty iteration range must leave the array untouched — the
	// identity never leaks out of the private copies.
	src := `
int data[4];
int main(void) {
    int hist[4];
    for (int b = 0; b < 4; b++)
        hist[b] = 7;
    int n = 0;
#pragma omp parallel for reduction(*:hist[])
    for (int i = 0; i < n; i++)
        hist[data[i]] *= 2;
    return hist[0] + hist[1] + hist[2] + hist[3];
}`
	for _, team := range reduceTeams() {
		if got := runWithTeam(t, src, team); got != 28 {
			t.Errorf("%d workers (sim=%v): got %d want 28", team.Size(), team.Simulated(), got)
		}
	}
}

func TestArrayReductionFloatDeterministicAtFixedSimTeam(t *testing.T) {
	// Float array reductions follow the scalar determinism contract:
	// reproducible run-to-run at a fixed simulated team size under any
	// schedule (round-robin accumulator assignment + worker-ordered
	// combine).
	src := `
int bin[5000];
float acc[4];
float out;
int main(void) {
    for (int i = 0; i < 5000; i++)
        bin[i] = i % 4;
    float a[4];
    for (int b = 0; b < 4; b++)
        a[b] = 0.0f;
#pragma omp parallel for reduction(+:a[]) schedule(dynamic,3)
    for (int i = 0; i < 5000; i++)
        a[bin[i]] += 0.125f;
    out = a[0] + a[1] * 2.0f + a[2] * 3.0f + a[3] * 4.0f;
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

func TestArrayReductionOutOfRangeBinTraps(t *testing.T) {
	// A bin outside the array must trap as a runtime error on every
	// team, serial and parallel.
	src := `
int data[10];
int main(void) {
    for (int i = 0; i < 10; i++)
        data[i] = i;
    data[7] = 99;
    int hist[8];
    for (int b = 0; b < 8; b++)
        hist[b] = 0;
#pragma omp parallel for reduction(+:hist[])
    for (int i = 0; i < 10; i++)
        hist[data[i]]++;
    return hist[0];
}`
	for _, team := range []*rt.Team{rt.NewTeam(1), rt.NewTeam(4), rt.NewSimTeam(4)} {
		m := compile(t, src, Options{Team: team})
		if _, err := m.RunMain(); err == nil {
			t.Errorf("team=%d sim=%v: out-of-range bin must trap", team.Size(), team.Simulated())
		}
	}
}

func TestArrayReductionSerialLoopFusesHistKernel(t *testing.T) {
	// The gather-update kernel also serves plain sequential loops: the
	// program (no pragma) must report a fused kernel and match the
	// interpreter.
	src := `
int data[300];
int hist[16];
int main(void) {
    for (int i = 0; i < 300; i++)
        data[i] = (i * 11 + 2) % 16;
    for (int b = 0; b < 16; b++)
        hist[b] = 0;
    for (int i = 0; i < 300; i++)
        hist[data[i]]++;
    int sum = 0;
    for (int b = 0; b < 16; b++)
        sum += hist[b] * (b + 1);
    return sum;
}`
	fused := compile(t, src, Options{})
	got, err := fused.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if fused.Program().FusedKernels() == 0 {
		t.Error("sequential histogram loop did not fuse")
	}
	if want := runSerialOracle(t, src); got != want {
		t.Errorf("fused %d != interp %d", got, want)
	}
}
