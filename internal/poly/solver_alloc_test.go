//go:build !race

// Race mode instruments allocations differently; the counts below are
// those of an ordinary build.

package poly

import "testing"

// TestWarmedSolverAllocatesOnlyItsAnswer: a DepSolver that has seen the
// nests keeps its column map, names, lowered accesses and rows, so
// analysing them again allocates only what it returns: the []*Dep, one
// array of Deps and one of their distance vectors per nest with
// dependences, nothing for a nest without.
func TestWarmedSolverAllocatesOnlyItsAnswer(t *testing.T) {
	nests := sampleNests()
	var ds DepSolver
	want := 0.0
	for _, c := range nests {
		deps := ds.Analyze(c.nest)
		if len(deps) > 0 {
			want += 3
		}
		if got, fresh := len(deps), len(AnalyzeDeps(c.nest)); got != fresh {
			t.Fatalf("%s: %d dependences from the solver, %d from a fresh one", c.name, got, fresh)
		}
	}
	got := testing.AllocsPerRun(20, func() {
		for _, c := range nests {
			ds.Analyze(c.nest)
		}
	})
	t.Logf("%d nests: %.0f allocations per round, bound %.0f", len(nests), got, want)
	if got > want {
		t.Errorf("a warmed solver allocates %.0f times over %d nests, want at most %.0f", got, len(nests), want)
	}
}
