package comp

import (
	"fmt"
	"testing"

	"purec/internal/rt"
)

// BenchmarkLaunch times many short launches of each kind — a
// sequential kernel, a parallel map kernel, a plain region (a body that
// stays on the dispatch tape), a scalar and an array reduction — on
// real teams of 1 (inline) and 2 workers, and reports ns per launch:
//
//	go test ./internal/comp -run xxx -bench BenchmarkLaunch -benchtime 2000x
//
// Each run is launchRounds launches of a 16-iteration loop, so the
// figure is the launch's own overhead plus 16 short iterations.
func BenchmarkLaunch(b *testing.B) {
	const launchRounds = 64
	kinds := []struct {
		name, pragma, decl, body, ret string
		kernels                       int // setup's loop fuses too
	}{
		{"seq-kernel", "", "", "w[i] = v[i] + r;", "w[3]", 2},
		{"map-kernel", "#pragma omp parallel for", "", "w[i] = v[i] + r;", "w[3]", 2},
		{"plain-region", "#pragma omp parallel for", "", "{ int t = v[i] + r; w[i] = t; }", "w[3]", 1},
		{"scalar-reduction", "#pragma omp parallel for reduction(+:s)", "", "s += v[i];", "s", 2},
		{"array-reduction", "#pragma omp parallel for reduction(+:h[])", "int h[8]; for (int k = 0; k < 8; k++) h[k] = 0;", "h[v[i]]++;", "h[1] + s", 3},
	}
	for _, k := range kinds {
		src := fmt.Sprintf(`
int v[16], w[16];
void setup(void) {
    for (int i = 0; i < 16; i++) v[i] = i %% 8;
}
int run(void) {
    int s = 0;
    %s
    for (int r = 0; r < %d; r++) {
%s
        for (int i = 0; i < 16; i++)
            %s
    }
    return %s;
}
int main(void) { setup(); return run(); }
`, k.decl, launchRounds, k.pragma, k.body, k.ret)
		for _, workers := range []int{1, 2} {
			if k.pragma == "" && workers == 2 {
				continue
			}
			b.Run(fmt.Sprintf("%s/t%d", k.name, workers), func(b *testing.B) {
				m := benchProgram(b, src, Options{Team: rt.NewTeam(workers)})
				if fused := m.Program().FusedKernels(); fused != k.kernels {
					b.Fatalf("%d fused kernels, want %d", fused, k.kernels)
				}
				benchEntry(b, m)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*launchRounds), "ns/launch")
			})
		}
	}
}
