package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/mem"
	"purec/internal/rt"
	"purec/internal/transform"
)

// snapshotIntVec renders the bit pattern of an int vector global.
func snapshotIntVec(p mem.Pointer, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,", p.Add(int64(i)).LoadInt())
	}
	return b.String()
}

// TestArrayReductionOracle12Processes is the array-reduction
// equivalence proof (run under -race in CI): the histogram workload
// runs through the full pipeline — scop recognition, the
// reduction(+:hist[]) pragma, privatized per-worker copies — on 12
// concurrent Processes mixing real and simulated teams, every
// schedule clause, and every output must be
// bit-identical to the sequential interp oracle. Integer array
// reductions are exact by contract regardless of grouping.
func TestArrayReductionOracle12Processes(t *testing.T) {
	const n, bins = 6000, 32
	defs := apps.HistogramDefines(n, bins)

	// Sequential interp oracle.
	art, err := Front(apps.HistogramSrc, Config{Defines: defs})
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
	op, err := in.GlobalPtr("out")
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotIntVec(op, bins)

	// The oracle must agree with the arithmetic reference.
	ref := apps.HistogramRef(n, bins)
	var refSnap strings.Builder
	for _, v := range ref {
		fmt.Fprintf(&refSnap, "%d,", v)
	}
	if want != refSnap.String() {
		t.Fatalf("oracle %s != reference %s", want, refSnap.String())
	}

	teamSizes := []int{1, 2, 3, 5, 8, 16}
	for _, sched := range []string{"", "static,5", "dynamic,1", "guided,2"} {
		cfg := Config{Parallelize: true, Defines: defs,
			Transform: transform.Options{Schedule: sched}}
		prog, _, _, err := BuildProgram(apps.HistogramSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prog.FusedKernels() == 0 {
			t.Fatal("build reports zero fused kernels")
		}
		const procs = 12
		var wg sync.WaitGroup
		errs := make(chan error, procs)
		for p := 0; p < procs; p++ {
			team := rt.NewTeam(teamSizes[p%len(teamSizes)])
			if p%2 == 1 {
				team = rt.NewSimTeam(teamSizes[p%len(teamSizes)])
			}
			wg.Add(1)
			go func(team *rt.Team) {
				defer wg.Done()
				proc, err := prog.NewProcess(comp.ProcOptions{Team: team})
				if err != nil {
					errs <- err
					return
				}
				if _, err := proc.RunMain(); err != nil {
					errs <- fmt.Errorf("sched=%q: %v", sched, err)
					return
				}
				gp, err := proc.GlobalPtr("out")
				if err != nil {
					errs <- err
					return
				}
				if got := snapshotIntVec(gp, bins); got != want {
					errs <- fmt.Errorf("sched=%q team=%d sim=%v: output differs from oracle",
						sched, team.Size(), team.Simulated())
				}
			}(team)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	// Serial build (no parallelization) also matches.
	seq, err := Build(apps.HistogramSrc, Config{Defines: defs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Machine.RunMain(); err != nil {
		t.Fatal(err)
	}
	gp, err := seq.Machine.GlobalPtr("out")
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotIntVec(gp, bins); got != want {
		t.Error("serial build differs from oracle")
	}
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
