package core

import (
	"strings"
	"testing"

	"purec/internal/comp"
)

// gatherProvenSrc fills idx with (i*7+13) % M, so the value-range
// analysis proves every idx cell inside x's extent M and the gather
// nest parallelizes.
const gatherProvenSrc = `
#define N 4096
#define M 2048
int idx[N];
float x[M];
float y[N];

void fill() {
    for (int i = 0; i < M; i++) { x[i] = (float)i * 0.5f; }
    for (int i = 0; i < N; i++) { idx[i] = (i * 7 + 13) % M; }
}

void gather() {
    for (int i = 0; i < N; i++) { y[i] = x[idx[i]]; }
}

int main() { fill(); gather(); return (int)y[5]; }
`

// gatherOpaqueSrc routes the modulus through a global scalar assigned
// in another function, so idx's contents stay unbounded and the nest
// must serialize for trap parity.
const gatherOpaqueSrc = `
#define N 4096
int idx[N];
float x[2048];
float y[N];
int m;

void setm(int v) { m = v; }

void fill() {
    setm(2048);
    for (int i = 0; i < N; i++) { idx[i] = (i * 7 + 13) % m; }
}

void gather() {
    for (int i = 0; i < N; i++) { y[i] = x[idx[i]]; }
}

int main() { fill(); gather(); return (int)y[5]; }
`

// TestGatherParallelization checks the vra→scop→transform chain: a
// proven gather nest parallelizes, an opaque one serializes with a
// diagnostic naming the index array.
func TestGatherParallelization(t *testing.T) {
	prog, art, _, err := BuildProgram(gatherProvenSrc, Config{Parallelize: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range art.Report.Loops {
		if l.ParallelLevel < 0 {
			t.Errorf("nest in %s stayed serial: %s", l.Func, l.SerialReason)
		}
	}
	if len(art.VRA.Findings) != 0 {
		t.Errorf("unexpected findings: %v", art.VRA.Findings)
	}
	proc, err := prog.NewProcess(comp.ProcOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.RunMain(); err != nil {
		t.Fatalf("run: %v", err)
	}

	prog2, art2, _, err := BuildProgram(gatherOpaqueSrc, Config{Parallelize: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	var reason string
	for _, l := range art2.Report.Loops {
		if l.Func == "gather" {
			if l.ParallelLevel >= 0 {
				t.Errorf("opaque gather nest parallelized")
			}
			reason = l.SerialReason
		}
	}
	if !strings.Contains(reason, "serialized by read x[idx[i]]") ||
		!strings.Contains(reason, "idx") {
		t.Errorf("serial reason does not name the gather read: %q", reason)
	}
	proc2, err := prog2.NewProcess(comp.ProcOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc2.RunMain(); err != nil {
		t.Fatalf("opaque run: %v", err)
	}
}
