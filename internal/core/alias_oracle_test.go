package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/rt"
	"purec/internal/transform"
)

// aliasWorkloads are the relational-analysis equivalence programs: the
// derived-iterator subscript (forward-substituted, proven via the
// affine relation), the ?:-clamped gather (proven via path-sensitive
// refinement), the no-alias pointer loop (parallelized via points-to
// resolution) and the overlapping pointer pair (must stay serial —
// the alias resolution exposes the carried dependence).
func aliasWorkloads() []struct {
	name string
	src  string
	out  string
	n    int
} {
	return []struct {
		name string
		src  string
		out  string
		n    int
	}{
		{"derived", apps.DerivedSrc, "y", 512},
		{"clamp-gather", apps.ClampGatherSrc, "y", 512},
		{"ptr-scale", apps.PtrScaleSrc, "y", 512},
		{"aliased-pair", apps.AliasedPairSrc, "x", 544},
	}
}

func aliasDefs() map[string]string { return apps.RelationalDefines(512, 544, 16, 2) }

// TestAliasOracle12Processes is the relational-proof equivalence suite:
// every workload runs on 12 concurrent Processes (alias analysis on and
// off, both compiler backends, all loop
// schedules, mixed real and simulated teams) and every output must be
// bit-identical to the sequential interp oracle. The alias-driven
// parallelization and the relation-driven check elision remove only
// work that could never fire — and the aliased pair proves the other
// direction: its overlapping pointers serialize under every
// configuration, so the suite would race (and -race would catch it) if
// pointer names were ever again mistaken for distinct arrays. Run
// under -race in CI.
func TestAliasOracle12Processes(t *testing.T) {
	teamSizes := []int{1, 2, 3, 5, 8, 16}
	schedules := []string{"", "static,3", "dynamic,1"}
	builds := []struct {
		noAlias bool
		backend comp.Backend
	}{
		{false, comp.BackendGCC},
		{true, comp.BackendGCC},
		{false, comp.BackendICC},
		{true, comp.BackendICC},
	}
	for _, w := range aliasWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			first, err := Build(w.src, withDefs(Config{Parallelize: true}, aliasDefs()))
			if err != nil {
				t.Fatal(err)
			}
			in, err := interp.New(first.Info, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.RunMain(); err != nil {
				t.Fatal(err)
			}
			op, err := in.GlobalPtr(w.out)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotVec(op, w.out, w.n)

			var wg sync.WaitGroup
			errs := make(chan error, len(builds)*len(schedules))
			idx := 0
			for _, b := range builds {
				for _, sched := range schedules {
					cfg := withDefs(Config{Parallelize: true}, aliasDefs())
					cfg.NoAlias = b.noAlias
					cfg.Backend = b.backend
					cfg.Transform = transform.Options{Schedule: sched, MinParallelTrip: -1}
					prog, _, _, err := BuildProgram(w.src, cfg)
					if err != nil {
						t.Fatal(err)
					}
					team := rt.NewTeam(teamSizes[idx%len(teamSizes)])
					if idx%2 == 1 {
						team = rt.NewSimTeam(teamSizes[idx%len(teamSizes)])
					}
					idx++
					wg.Add(1)
					go func(prog *comp.Program, team *rt.Team, noAlias bool, sched string) {
						defer wg.Done()
						proc, err := prog.NewProcess(comp.ProcOptions{Team: team})
						if err != nil {
							errs <- err
							return
						}
						if _, err := proc.RunMain(); err != nil {
							errs <- fmt.Errorf("NoAlias=%v sched=%q: %v", noAlias, sched, err)
							return
						}
						p, err := proc.GlobalPtr(w.out)
						if err != nil {
							errs <- err
							return
						}
						if got := snapshotVec(p, w.out, w.n); got != want {
							errs <- fmt.Errorf("NoAlias=%v sched=%q team=%d sim=%v: output differs from oracle",
								noAlias, sched, team.Size(), team.Simulated())
						}
					}(prog, team, b.noAlias, sched)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
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
		prog, art, _, err := BuildProgram(apps.PtrScaleSrc, cfg)
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
		if prog.ElidedChecks() == 0 {
			t.Error("resolved pointer build elided no checks")
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
