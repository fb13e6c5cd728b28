package comp

import (
	"fmt"
	"testing"

	"purec/internal/rt"
)

// BenchmarkLaunch times many short launches of each kind — a
// sequential kernel, a parallel map kernel, a plain region (a body that
// stores twice, so it stays on the dispatch tape), a scalar and an array
// reduction, and a 12-element float fold shaped like satellite's err
// loop with 11 launch invariants — on real teams of 1 (inline) and 2
// workers, and reports ns per launch:
//
//	go test ./internal/comp -run xxx -bench BenchmarkLaunch -benchtime 2000x
//
// Each run is launchRounds launches of a short loop (16 iterations,
// 12 for the fold), so the figure is the launch's own overhead plus the
// short iterations.
func BenchmarkLaunch(b *testing.B) {
	const launchRounds = 64
	kinds := []struct {
		name, pragma, decl, pre, body, ret string
		trip, kernels                      int // setup's first loop fuses too
	}{
		{"seq-kernel", "", "", "", "w[i] = v[i] + r;", "w[3]", 16, 2},
		{"map-kernel", "#pragma omp parallel for", "", "", "w[i] = v[i] + r;", "w[3]", 16, 2},
		{"plain-region", "#pragma omp parallel for", "", "", "{ w[i] = r; w[i] = w[i] + v[i]; }", "w[3]", 16, 1},
		{"scalar-reduction", "#pragma omp parallel for reduction(+:s)", "", "", "s += v[i];", "s", 16, 2},
		{"array-reduction", "#pragma omp parallel for reduction(+:h[])", "int h[8]; for (int k = 0; k < 8; k++) h[k] = 0;", "", "h[v[i]]++;", "h[1] + s", 16, 3},
		{"many-invariants", "", "float err = 0.0f;", "float tau = 0.001f * (float)r; float g = 0.5f + tau;",
			"{ float model = tau * tb[i] + (1.0f - tau) * 0.2f + g * 0.25f; float d = px[i] - model; if (d < 0.0f) d = -d; err += d; }",
			"(int)err", 12, 2},
	}
	for _, k := range kinds {
		src := fmt.Sprintf(`
int v[16], w[16];
float px[16], tb[16];
void setup(void) {
    for (int i = 0; i < 16; i++) v[i] = i %% 8;
    for (int i = 0; i < 16; i++) { px[i] = 0.05f * (float)i; tb[i] = 0.3f + 0.01f * (float)i; }
}
int run(void) {
    int s = 0;
    %s
    for (int r = 0; r < %d; r++) {
        %s
%s
        for (int i = 0; i < %d; i++)
            %s
    }
    return %s;
}
int main(void) { setup(); return run(); }
`, k.decl, launchRounds, k.pre, k.pragma, k.trip, k.body, k.ret)
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
