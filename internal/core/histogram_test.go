package core

import (
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/rt"
)

// TestArrayReductionOracle12Processes is the array-reduction
// equivalence proof: the histogram workload runs through the full
// pipeline — scop recognition, the reduction(+:hist[]) pragma,
// privatized per-worker copies — and through the oracle matrix, and so
// does its serial build. Every build must also fuse the scatter and
// compute the arithmetic reference: integer array reductions are exact
// by contract regardless of grouping.
func TestArrayReductionOracle12Processes(t *testing.T) {
	const n, bins = 6000, 32
	defs := apps.HistogramDefines(n, bins)
	ref := apps.HistogramRef(n, bins)
	check := func(t *testing.T, b oracleBuild) {
		if b.prog.FusedKernels() == 0 {
			t.Errorf("%v: build reports zero fused kernels", b)
		}
		proc, err := b.prog.NewProcess(comp.ProcOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proc.RunMain(); err != nil {
			t.Fatal(err)
		}
		out, err := proc.GlobalPtr("out")
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range ref {
			if got := out.Add(int64(i)).LoadInt(); got != want {
				t.Fatalf("%v: bin %d holds %d, reference %d", b, i, got, want)
			}
		}
	}
	runOracleMatrix(t, false, []oracleRow{
		{name: "parallel", src: apps.HistogramSrc, defines: defs, base: Config{Parallelize: true}, check: check},
		{name: "serial", src: apps.HistogramSrc, defines: defs, check: check},
	})
}

// TestHistogramPipelineEmitsArrayClause pins the end-to-end plumbing:
// the transformed source of the histogram workload must carry the
// array-reduction pragma and the report must show the parallel level.
func TestHistogramPipelineEmitsArrayClause(t *testing.T) {
	res, err := Build(apps.HistogramSrc, Config{Parallelize: true,
		Defines: apps.HistogramDefines(1000, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stages.Transformed, "reduction(+:hist[])") {
		t.Errorf("transformed source lacks reduction(+:hist[]):\n%s", res.Stages.Transformed)
	}
	found := false
	for _, lr := range res.Report.Loops {
		for _, r := range lr.Reductions {
			if r == "+:hist[]" && lr.ParallelLevel == 0 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("report lacks a parallel +:hist[] nest: %+v", res.Report.Loops)
	}
}

// TestArrayReductionSelfReadStaysSerial is the regression test for
// the recognition soundness fix: a compound update whose right-hand
// side reads the accumulator array through another subscript
// (hist[a[i]] += hist[b[i]]) must NOT be parallelized — each worker
// would read its identity-filled private copy where the serial loop
// reads the evolving shared array, silently changing the result. The
// pipeline must keep the nest serial and match the oracle at every
// team size.
func TestArrayReductionSelfReadStaysSerial(t *testing.T) {
	src := `
int a[100], b[100];
int out;
int main(void) {
    int hist[16];
    for (int i = 0; i < 100; i++) {
        a[i] = i % 16;
        b[i] = (i * 3) % 16;
    }
    for (int i = 0; i < 16; i++) hist[i] = 1;
    for (int i = 0; i < 100; i++)
        hist[a[i]] += hist[b[i]];
    int s = 0;
    for (int i = 0; i < 16; i++) s += hist[i] % 1000;
    out = s;
    return 0;
}`
	art, err := Front(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := interp.New(art.Info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.RunMain(); err != nil {
		t.Fatal(err)
	}
	wantV, err := in.GlobalValue("out")
	if err != nil {
		t.Fatal(err)
	}
	want := wantV.I
	res, err := Build(src, Config{Parallelize: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.Report.Loops {
		for _, r := range lr.Reductions {
			if strings.Contains(r, "hist[]") {
				t.Fatalf("self-reading update wrongly recognized as array reduction: %+v", res.Report.Loops)
			}
		}
	}
	for _, teamSize := range []int{1, 4, 8} {
		for _, sim := range []bool{false, true} {
			team := rt.NewTeam(teamSize)
			if sim {
				team = rt.NewSimTeam(teamSize)
			}
			proc, err := res.Program.NewProcess(comp.ProcOptions{Team: team})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := proc.RunMain(); err != nil {
				t.Fatal(err)
			}
			got, err := proc.GlobalInt("out")
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("team=%d sim=%v: got %d, oracle %d", teamSize, sim, got, want)
			}
		}
	}
}
