package core

import (
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/transform"
)

func aliasDefs() map[string]string { return apps.RelationalDefines(512, 544, 16, 2) }

// TestAliasOracle12Processes is the relational-proof equivalence suite:
// the derived-iterator subscript (forward-substituted, proven via the
// affine relation), the ?:-clamped gather (proven via path-sensitive
// refinement), the no-alias pointer loop (parallelized via points-to
// resolution) and the overlapping pointer pair (must stay serial) run
// through the oracle matrix with alias analysis on and off. The
// proof-driven parallelization changes only where loops run, never what
// they compute — and the aliased pair proves
// the other direction: its overlapping pointers serialize under every
// configuration, so the suite would race (and -race would catch it) if
// pointer names were ever again mistaken for distinct arrays.
func TestAliasOracle12Processes(t *testing.T) {
	base := Config{Parallelize: true, Transform: transform.Options{MinParallelTrip: -1}}
	runOracleMatrix(t, true, []oracleRow{
		{name: "derived", src: apps.DerivedSrc, defines: aliasDefs(), base: base},
		{name: "clamp-gather", src: apps.ClampGatherSrc, defines: aliasDefs(), base: base},
		{name: "ptr-scale", src: apps.PtrScaleSrc, defines: aliasDefs(), base: base},
		{name: "aliased-pair", src: apps.AliasedPairSrc, defines: aliasDefs(), base: base},
	})
}

// TestAliasProofEdges pins both sides of the alias boundary. The
// disjoint pointer pair must parallelize with the resolution named in
// the report; the overlapping pair must serialize whether the analysis
// resolves it (carried dependence on the renamed array) or is disabled
// (unresolved pointer).
func TestAliasProofEdges(t *testing.T) {
	t.Run("disjoint-parallel", func(t *testing.T) {
		cfg := withDefs(Config{Parallelize: true, NoCache: true}, aliasDefs())
		cfg.Transform.MinParallelTrip = -1
		_, art, _, err := BuildProgram(apps.PtrScaleSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		parallel := false
		for _, l := range art.Report.Loops {
			if l.Func == "run" && l.ParallelLevel >= 0 {
				parallel = true
				if len(l.AliasNotes) == 0 {
					t.Error("parallel pointer nest must carry alias notes")
				}
			}
		}
		if !parallel {
			t.Fatalf("disjoint pointer nest must parallelize:\n%s", art.Report)
		}
	})

	t.Run("overlap-serial-resolved", func(t *testing.T) {
		cfg := withDefs(Config{Parallelize: true, NoCache: true}, aliasDefs())
		cfg.Transform.MinParallelTrip = -1
		_, art, _, err := BuildProgram(apps.AliasedPairSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range art.Report.Loops {
			if l.Func != "run" {
				continue
			}
			if l.ParallelLevel >= 0 {
				t.Fatalf("overlapping pointers must serialize: %+v", l)
			}
			if !strings.Contains(l.SerialReason, "dependences on x") {
				t.Errorf("resolved overlap must name the renamed array: %q", l.SerialReason)
			}
		}
	})

	t.Run("overlap-serial-disabled", func(t *testing.T) {
		cfg := withDefs(Config{Parallelize: true, NoCache: true, NoAlias: true}, aliasDefs())
		cfg.Transform.MinParallelTrip = -1
		_, art, _, err := BuildProgram(apps.AliasedPairSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range art.Report.Loops {
			if l.Func != "run" {
				continue
			}
			if l.ParallelLevel >= 0 {
				t.Fatalf("-noalias must serialize every pointer nest: %+v", l)
			}
			if !strings.Contains(l.SerialReason, "unresolved pointer") {
				t.Errorf("disabled analysis must report the unresolved pointer: %q", l.SerialReason)
			}
		}
	})
}
