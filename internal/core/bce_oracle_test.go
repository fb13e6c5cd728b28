package core

import (
	"fmt"
	"sync"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/rt"
	"purec/internal/transform"
)

// bceWorkloads are the check-elision equivalence programs: the proven
// gather (elided per-element test, parallelized nest), the opaque
// gather (checked, force-serialized) and axpy (elided launch checks).
func bceWorkloads() []struct {
	name string
	src  string
	defs map[string]string
	out  string
	n    int
} {
	return []struct {
		name string
		src  string
		defs map[string]string
		out  string
		n    int
	}{
		{"gather-proven", apps.GatherSrc, apps.GatherDefines(512, 128, 2), "y", 512},
		{"gather-opaque", apps.GatherOpaqueSrc, apps.GatherDefines(512, 128, 2), "y", 512},
		{"axpy", apps.AxpySrc, apps.KernDefines(512, 2), "y", 512},
	}
}

// TestBCEOracle12Processes is the check-elision equivalence proof:
// every workload runs on 12 concurrent Processes (both compiler
// backends, all loop schedules, each on a real
// and a simulated team) and every output must be
// bit-identical to the sequential interp oracle — elision removes only
// checks that could never fire, never a computation. Run under -race
// in CI.
func TestBCEOracle12Processes(t *testing.T) {
	teamSizes := []int{1, 2, 3, 5, 8, 16}
	schedules := []string{"", "static,3", "dynamic,1"}
	builds := []struct {
		backend comp.Backend
	}{
		{comp.BackendGCC},
		{comp.BackendICC},
	}
	for _, w := range bceWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			first, err := Build(w.src, withDefs(Config{Parallelize: true}, w.defs))
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
			errs := make(chan error, 2*len(builds)*len(schedules))
			idx := 0
			for _, b := range builds {
				for _, sched := range schedules {
					cfg := withDefs(Config{Parallelize: true}, w.defs)
					cfg.Backend = b.backend
					cfg.Transform = transform.Options{Schedule: sched}
					prog, _, _, err := BuildProgram(w.src, cfg)
					if err != nil {
						t.Fatal(err)
					}
					size := teamSizes[idx%len(teamSizes)]
					idx++
					for _, team := range []*rt.Team{rt.NewTeam(size), rt.NewSimTeam(size)} {
						wg.Add(1)
						go func(prog *comp.Program, team *rt.Team, sched string) {
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
							p, err := proc.GlobalPtr(w.out)
							if err != nil {
								errs <- err
								return
							}
							if got := snapshotVec(p, w.out, w.n); got != want {
								errs <- fmt.Errorf("sched=%q team=%d sim=%v: output differs from oracle",
									sched, team.Size(), team.Simulated())
							}
						}(prog, team, sched)
					}
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

// proofMarginSrc is the exactly-one-element margin: with SLACK=0 the
// index contents reach M-1 — the last in-bounds cell — and the proof
// holds by nothing to spare; with SLACK=1 the modulus admits M, one
// past the end, the proof fails and the kept check must trap.
const proofMarginSrc = `
int idx[N];
float x[M];
float y[N];

void fill() {
    for (int i = 0; i < M; i++) { x[i] = (float)(i % 5) * 0.5f; }
    for (int i = 0; i < N; i++) { idx[i] = i % (M + SLACK); }
}

void gather() {
    for (int i = 0; i < N; i++) { y[i] = x[idx[i]]; }
}

int main() { fill(); gather(); return 0; }
`

func marginDefines(n, m, slack int) map[string]string {
	return map[string]string{
		"N":     fmt.Sprintf("%d", n),
		"M":     fmt.Sprintf("%d", m),
		"SLACK": fmt.Sprintf("%d", slack),
	}
}

// TestBCEProofMargin pins both edges of the proof boundary. The
// zero-slack build is proven with exactly one element of margin: it
// must parallelize, elide, run clean and match the oracle. The
// one-slack build is unprovable by exactly one element: the check
// stays even with BCE on, and the program traps identically on the tape
// and in the interp oracle — never a silent wrong answer.
func TestBCEProofMargin(t *testing.T) {
	n, m := 256, 64

	t.Run("proven-edge", func(t *testing.T) {
		defs := marginDefines(n, m, 0)
		prog, art, _, err := BuildProgram(proofMarginSrc, withDefs(Config{Parallelize: true, NoCache: true}, defs))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range art.Report.Loops {
			if l.Func == "gather" && l.ParallelLevel < 0 {
				t.Errorf("proven-edge gather serialized: %s", l.SerialReason)
			}
		}
		if prog.ElidedChecks() == 0 {
			t.Error("proven-edge build elided no checks")
		}
		proc, err := prog.NewProcess(comp.ProcOptions{Team: rt.NewTeam(4)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proc.RunMain(); err != nil {
			t.Fatalf("proven-edge run: %v", err)
		}
		first, err := Build(proofMarginSrc, withDefs(Config{}, defs))
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
		op, err := in.GlobalPtr("y")
		if err != nil {
			t.Fatal(err)
		}
		pp, err := proc.GlobalPtr("y")
		if err != nil {
			t.Fatal(err)
		}
		if snapshotVec(pp, "y", n) != snapshotVec(op, "y", n) {
			t.Error("proven-edge output differs from oracle")
		}
	})

	t.Run("unprovable-by-one", func(t *testing.T) {
		defs := marginDefines(n, m, 1)
		prog, art, _, err := BuildProgram(proofMarginSrc,
			withDefs(Config{Parallelize: true, NoCache: true}, defs))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range art.Report.Loops {
			if l.Func == "gather" && l.ParallelLevel >= 0 {
				t.Error("unprovable gather must stay serial")
			}
		}
		proc, err := prog.NewProcess(comp.ProcOptions{Team: rt.NewTeam(2)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proc.RunMain(); err == nil {
			t.Fatal("unprovable access must trap with BCE on")
		} else if _, isRT := err.(*comp.RuntimeError); !isRT {
			t.Fatalf("want RuntimeError, got %T %v", err, err)
		}
		art, err = Front(proofMarginSrc, withDefs(Config{}, defs))
		if err != nil {
			t.Fatal(err)
		}
		in, err := interp.New(art.Info, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.RunMain(); err == nil {
			t.Fatal("interp oracle must also trap")
		}
	})
}

// sumMarginSrc is the proof-margin pair for a reduce kernel, whose
// operands are ordinary kAccesses and so honour value-range proofs like
// map operands do: with SLACK=0 the sum reads x[0..N-1], the proof
// holds with nothing to spare and the launch check is elided; with
// SLACK=1 the last subscript is N, one past the end, the proof fails
// and the kept check must trap.
const sumMarginSrc = `
float x[N];
float total[1];

void fill() {
    for (int i = 0; i < N; i++) { x[i] = (float)(i % 7) * 0.25f; }
}

void sum() {
    float s = 0.0f;
    for (int k = 0; k < N; k++) { s += x[k + SLACK]; }
    total[0] = s;
}

int main() { fill(); sum(); return 0; }
`

// TestBCEProofMarginSumKernel pins both edges of the proof boundary for
// the sum kernel, against the interp oracle.
func TestBCEProofMarginSumKernel(t *testing.T) {
	n := 256
	oracle := func(defs map[string]string) (*interp.Interp, error) {
		art, err := Front(sumMarginSrc, withDefs(Config{}, defs))
		if err != nil {
			t.Fatal(err)
		}
		in, err := interp.New(art.Info, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = in.RunMain()
		return in, err
	}

	t.Run("proven-edge", func(t *testing.T) {
		defs := marginDefines(n, n, 0)
		in, err := oracle(defs)
		if err != nil {
			t.Fatal(err)
		}
		op, err := in.GlobalPtr("total")
		if err != nil {
			t.Fatal(err)
		}
		cfg := withDefs(Config{Vectorize: true, NoCache: true}, defs)
		prog, _, _, err := BuildProgram(sumMarginSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The fill casts and takes a modulus, so only the sum fuses.
		if prog.FusedKernels() != 1 {
			t.Errorf("%d fused kernels, want the sum", prog.FusedKernels())
		}
		if got := prog.ElidedChecks(); got != 1 {
			t.Errorf("BCE elided %d checks, want the sum operand's", got)
		}
		proc, err := prog.NewProcess(comp.ProcOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proc.RunMain(); err != nil {
			t.Fatalf("proven-edge run: %v", err)
		}
		pp, err := proc.GlobalPtr("total")
		if err != nil {
			t.Fatal(err)
		}
		if snapshotVec(pp, "total", 1) != snapshotVec(op, "total", 1) {
			t.Error("proven-edge sum differs from oracle")
		}
	})

	t.Run("unprovable-by-one", func(t *testing.T) {
		defs := marginDefines(n, n, 1)
		prog, _, _, err := BuildProgram(sumMarginSrc,
			withDefs(Config{Vectorize: true, NoCache: true}, defs))
		if err != nil {
			t.Fatal(err)
		}
		if prog.FusedKernels() != 1 || prog.ElidedChecks() != 0 {
			t.Errorf("%d fused kernels and %d elided checks, want the sum fused with its check kept",
				prog.FusedKernels(), prog.ElidedChecks())
		}
		proc, err := prog.NewProcess(comp.ProcOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proc.RunMain(); err == nil {
			t.Fatal("unprovable sum operand must trap with BCE on")
		} else if _, isRT := err.(*comp.RuntimeError); !isRT {
			t.Fatalf("want RuntimeError, got %T %v", err, err)
		}
		if _, err := oracle(defs); err == nil {
			t.Fatal("interp oracle must also trap")
		}
	})
}
