//go:build !race

package comp

// The allocation counts read heap counters, and the race detector
// randomizes sync.Pool (see tape_budget_test.go).

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/preproc"
	"purec/internal/rt"
)

// TestKernelLaunchesDoNotAllocate: the launch frame has fixed-size
// operand arrays and the strip buffer lives on the launching
// goroutine's stack, so a pooled run allocates per region and per
// worker — not per launch (one per iteration of the int loops under
// dynamic,1 and one per row of the stencil, whose rows the workers of
// the outer loop's region launch) and not per strip. Each program holds
// a 9-op int map (hist's initialisation), the integer-sum sink, a
// 4-load float stencil, a gather map, a histogram scatter, an int min
// fold and a float dot fold (its products and sums are
// exact, so any worker split prints the same), and must print what the
// interpreter prints; so must matmul, whose fused dot every iteration
// of a parallel region launches.
func TestKernelLaunchesDoNotAllocate(t *testing.T) {
	for _, c := range []struct {
		pragma string
		bound  float64
	}{
		// The counts of today's launch records: a launch that allocated
		// would add thousands.
		{"", 16},
		{"#pragma omp parallel for schedule(dynamic,1)", 56},
	} {
		pragma := c.pragma
		clause := func(c string) string {
			if pragma == "" {
				return ""
			}
			return pragma + " reduction(" + c + ")"
		}
		src := fmt.Sprintf(`
int data[2000];
int idx[2000];
float gx[64], gy[2000], dx[2000], dy[2000];
float cur[64][64], next[64][64];
pure int square(int x) { return x * x; }
int main(void) {
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            cur[i][j] = (float)((i * 7 + j) %% 13) * 0.25f;
    for (int i = 0; i < 64; i++) gx[i] = 0.5f * (float)i;
    for (int i = 0; i < 2000; i++) { idx[i] = (i * 7) %% 64; dx[i] = (float)(i %% 5); dy[i] = (float)(i %% 3); }
%[1]s
    for (int i = 0; i < 2000; i++)
        data[i] = ((i + 1000003) * 1103515245 + 12345) %% 4096;
    int s = 0;
%[2]s
    for (int i = 0; i < 2000; i++)
        s += square((i + 1000003) %% 8191);
%[1]s
    for (int i = 1; i < 63; i++)
        for (int j = 1; j < 63; j++)
            next[i][j] = 0.25f * (cur[i - 1][j] + cur[i][j - 1] + cur[i][j + 1] + cur[i + 1][j]);
%[1]s
    for (int i = 0; i < 2000; i++) gy[i] = gx[idx[i]];
    int hist[64];
    for (int b = 0; b < 64; b++) hist[b] = 0;
%[3]s
    for (int i = 0; i < 2000; i++) hist[idx[i]]++;
    int m = 1 << 30;
%[4]s
    for (int i = 0; i < 2000; i++) if (data[i] < m) m = data[i];
    float d = 0.0f;
%[5]s
    for (int i = 0; i < 2000; i++) d += dx[i] * dy[i];
    printf("%%d %%d %%g %%g %%d %%d %%g\n", data[1999], s, next[31][17], gy[1234], hist[9], m, d);
    return 0;
}`, pragma, clause("+:s"), clause("+:hist[]"), clause("min:m"), clause("+:d"))
		launchAllocs(t, fmt.Sprintf("pragma=%q", pragma), src, 8, c.bound)
	}
	// Matmul (Listing 7 with the pragmas the front end writes): the
	// fused dot launched inline from a pure call in each of 4 096
	// iterations of a parallel region, under its own count.
	launchAllocs(t, "matmul", `
float A[64][64], Bt[64][64], C[64][64];
pure float mult(float a, float b) { return a * b; }
pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
#pragma omp parallel for reduction(+:res)
    for (int i = 0; i <= size - 1; i++)
        res += mult(a[i], b[i]);
    return res;
}
int main(void) {
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++) {
            A[i][j] = (float)((i + j) % 13) * 0.25f;
            Bt[i][j] = (float)((i - j) % 7) * 0.5f;
        }
#pragma omp parallel for
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], 64);
    printf("%g %g %g\n", C[0][0], C[17][42], C[63][63]);
    return 0;
}`, 1, 13)
	// Satellite's retrieval (Sect. 4.3) over 200 pixels, printing a
	// checksum: the pure retrieve launches its 12-band err fold — a
	// select of a rounded body local, folded in float32 — thousands of
	// times per run, under the count the run had while that loop ran on
	// the tape (its mallocs: the cube's rows).
	sat, err := preproc.Expand("#define NPIX 200\n#define BANDS 12\n#define MAXITERS 24\n" +
		strings.Replace(apps.SatelliteSrc, "return run();",
			`run(); float s = 0.0f; for (int p = 0; p < NPIX; p++) s += aod[p]; printf("%g\n", s); return 0;`, 1))
	if err != nil {
		t.Fatal(err)
	}
	launchAllocs(t, "satellite", sat, 3, 218)
}

// launchAllocs runs src from a pool of processes on 2-worker teams,
// checks that it fuses the kernels it should and prints what the
// interpreter prints, and bounds its allocations per pooled run.
func launchAllocs(t *testing.T, name, src string, kernels int, bound float64) {
	t.Helper()
	_, want := oracleRun(t, src)
	prog := compileProgram(t, src, Options{})
	if prog.FusedKernels() != kernels {
		t.Fatalf("%s: %d fused kernels, want %d", name, prog.FusedKernels(), kernels)
	}
	pool := prog.NewPool(PoolOptions{Size: 1, NewTeam: func() *rt.Team { return rt.NewTeam(2) }})
	run := func() {
		proc, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		proc.SetStdout(&out)
		if _, err := proc.RunMain(); err != nil || out.String() != want {
			t.Fatalf("%s: printed %q err %v, oracle %q", name, out.String(), err, want)
		}
		pool.Put(proc)
	}
	run() // grows the frame stacks, the arena and the team once
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("%s: %.0f allocations per run", name, allocs)
	if allocs > bound {
		t.Errorf("%s: %.0f allocations per run of thousands of launches, want a small constant", name, allocs)
	}
}
