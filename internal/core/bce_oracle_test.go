package core

import (
	"fmt"
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/rt"
)

// TestBCEOracle12Processes runs the bounds-proof builds through the
// oracle matrix: the proven gather (parallelized nest), the opaque
// gather (force-serialized) and axpy (fused, launch checks in place).
// A proof decides only where a loop runs in parallel, never what it
// computes.
func TestBCEOracle12Processes(t *testing.T) {
	gd, par := apps.GatherDefines(512, 128, 2), Config{Parallelize: true}
	runOracleMatrix(t, false, []oracleRow{
		{name: "gather-proven", src: apps.GatherSrc, defines: gd, base: par},
		{name: "gather-opaque", src: apps.GatherOpaqueSrc, defines: gd, base: par},
		{name: "axpy", src: apps.AxpySrc, defines: apps.KernDefines(512, 2), base: par},
	})
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
// must parallelize, run clean and match the oracle. The one-slack build
// is unprovable by exactly one element: it stays serial, and the
// program traps identically on the tape and in the interp oracle —
// never a silent wrong answer.
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
		proc, err := prog.NewProcess(comp.ProcOptions{Team: rt.NewTeam(4)})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Front(proofMarginSrc, withDefs(Config{}, defs))
		if err != nil {
			t.Fatal(err)
		}
		got, want := observeRun(art.Info, proc), observeInterp(t, oracle)
		if got != want || !strings.Contains(got, `trap=""`) {
			t.Errorf("proven-edge run must be clean and match the oracle; first difference at %s", firstDiff(got, want))
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
			t.Fatal("unprovable access must trap")
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
// operands are ordinary kAccesses with one range check per launch: with
// SLACK=0 the sum reads x[0..N-1], inside with nothing to spare; with
// SLACK=1 the last subscript is N, one past the end, and the launch
// check must trap.
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
	oracle := func(defs map[string]string) string {
		art, err := Front(sumMarginSrc, withDefs(Config{}, defs))
		if err != nil {
			t.Fatal(err)
		}
		return observeInterp(t, art)
	}

	t.Run("proven-edge", func(t *testing.T) {
		defs := marginDefines(n, n, 0)
		cfg := withDefs(Config{Vectorize: true, NoCache: true}, defs)
		prog, art, _, err := BuildProgram(sumMarginSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The fill casts and takes a modulus, so only the sum fuses.
		if prog.FusedKernels() != 1 {
			t.Errorf("%d fused kernels, want the sum", prog.FusedKernels())
		}
		proc, err := prog.NewProcess(comp.ProcOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, want := observeRun(art.Info, proc), oracle(defs)
		if got != want || !strings.Contains(got, `trap=""`) {
			t.Errorf("proven-edge sum must be clean and match the oracle; first difference at %s", firstDiff(got, want))
		}
	})

	t.Run("unprovable-by-one", func(t *testing.T) {
		defs := marginDefines(n, n, 1)
		prog, _, _, err := BuildProgram(sumMarginSrc,
			withDefs(Config{Vectorize: true, NoCache: true}, defs))
		if err != nil {
			t.Fatal(err)
		}
		if prog.FusedKernels() != 1 {
			t.Errorf("%d fused kernels, want the sum", prog.FusedKernels())
		}
		proc, err := prog.NewProcess(comp.ProcOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proc.RunMain(); err == nil {
			t.Fatal("unprovable sum operand must trap")
		} else if _, isRT := err.(*comp.RuntimeError); !isRT {
			t.Fatalf("want RuntimeError, got %T %v", err, err)
		}
		if strings.Contains(oracle(defs), `trap=""`) {
			t.Fatal("interp oracle must also trap")
		}
	})
}
