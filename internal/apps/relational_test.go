package apps

import (
	"strings"
	"testing"

	"purec/internal/core"
)

// relDefs sizes the relational workloads small enough for tests but
// large enough to clear no thresholds (MinParallelTrip is disabled in
// build()).
func relDefs() map[string]string { return RelationalDefines(96, 112, 16, 2) }

// TestDerivedSubscriptParallelizesAndElides pins the derived-iterator
// acceptance shape: j = i + K proves through the affine relation and
// the nest parallelizes.
func TestDerivedSubscriptParallelizesAndElides(t *testing.T) {
	res := build(t, DerivedSrc, relDefs(), core.Config{Parallelize: true, TeamSize: 3})
	assertParallel(t, res, "run")
}

// TestClampGatherParallelizesAndElides pins the ?:-clamp acceptance
// shape: the clamped index proves via path-sensitive refinement, the
// star read upgrades to Bounded and the nest parallelizes.
func TestClampGatherParallelizesAndElides(t *testing.T) {
	res := build(t, ClampGatherSrc, relDefs(), core.Config{Parallelize: true, TeamSize: 3})
	assertParallel(t, res, "run")
}

// TestPtrScaleParallelizesWithAliasProof pins the no-alias acceptance
// shape: p and q resolve to disjoint regions, the nest parallelizes,
// and the report carries the resolution notes.
func TestPtrScaleParallelizesWithAliasProof(t *testing.T) {
	res := build(t, PtrScaleSrc, relDefs(), core.Config{Parallelize: true, TeamSize: 3})
	assertParallel(t, res, "run")
	rep := res.Report.String()
	if !strings.Contains(rep, "alias: p -> x") {
		t.Errorf("report must name the alias resolution:\n%s", rep)
	}
}

// TestAliasedPairStaysSerial pins the soundness edge: overlapping
// pointers into one array must serialize — the alias resolution renames
// both to x and the dependence analysis finds the carried dependence.
func TestAliasedPairStaysSerial(t *testing.T) {
	res := build(t, AliasedPairSrc, relDefs(), core.Config{Parallelize: true, TeamSize: 3})
	for _, l := range res.Report.Loops {
		if l.Func != "run" {
			continue
		}
		if l.ParallelLevel >= 0 {
			t.Fatalf("aliased pair must stay serial: %+v", l)
		}
		if l.SerialReason == "" {
			t.Error("serial nest must carry a reason")
		}
	}
}

func assertParallel(t *testing.T, res *core.Result, fn string) {
	t.Helper()
	for _, l := range res.Report.Loops {
		if l.Func == fn && l.ParallelLevel >= 0 {
			return
		}
	}
	t.Fatalf("no parallel nest in %s: %+v", fn, res.Report.Loops)
}
