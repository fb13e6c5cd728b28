//go:build !race

package comp

// The allocation counts read heap counters, and the race detector
// randomizes sync.Pool (see tape_budget_test.go).

import (
	"bytes"
	"fmt"
	"testing"

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
// fold and a vectorized float dot fold (its products and sums are
// exact, so any worker split prints the same), and must print what the
// interpreter prints.
func TestKernelLaunchesDoNotAllocate(t *testing.T) {
	for _, c := range []struct {
		pragma string
		bound  float64
	}{
		// The counts of today's launch records: a launch that allocated
		// would add thousands.
		{"", 16},
		{"#pragma omp parallel for schedule(dynamic,1)", 95},
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
		_, want := oracleRun(t, src)
		prog := compileProgram(t, src, Options{Vectorize: true})
		if prog.FusedKernels() != 8 {
			t.Fatalf("pragma=%q: %d fused kernels, want 8", pragma, prog.FusedKernels())
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
				t.Fatalf("pragma=%q: printed %q err %v, oracle %q", pragma, out.String(), err, want)
			}
			pool.Put(proc)
		}
		run() // grows the frame stacks, the arena and the team once
		allocs := testing.AllocsPerRun(10, run)
		t.Logf("pragma=%q: %.0f allocations per run", pragma, allocs)
		if allocs > c.bound {
			t.Errorf("pragma=%q: %.0f allocations per run of 10 000-odd launches, want a small constant", pragma, allocs)
		}
	}
}
