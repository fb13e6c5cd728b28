// Benchmarks regenerating the paper's evaluation, one per figure
// (the paper's evaluation has no numbered tables; Figs. 3–11 carry all
// results and Fig. 2 is the tiling-legality example). Each benchmark
// exercises the same code path as cmd/purebench with small workloads;
// run `go run ./cmd/purebench` for the full paper-shaped sweeps.
package purec

import (
	"fmt"
	"io"
	"testing"
	"time"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/poly"
	"purec/internal/rt"
	"purec/internal/transform"
)

// benchCores are the worker counts exercised per variant (the paper's
// 1..64 axis, abbreviated to keep `go test -bench=.` affordable).
var benchCores = []int{1, 8, 64}

// buildFor compiles one variant once for benchmarking.
func buildFor(b *testing.B, src string, defs map[string]string, cfg core.Config) *core.Result {
	b.Helper()
	cfg.Defines = defs
	cfg.Stdout = io.Discard
	res, err := core.Build(src, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// runMachine benchmarks repeated executions of entry (after untimed
// init) on a simulated team of the given size. ns/op reports the real
// work performed (simulated teams execute chunks sequentially); the
// additional sim-ns/op metric reports the simulated wall time at the
// requested core count — the number the paper's figures correspond to
// (see cmd/purebench for the full tables).
func runMachine(b *testing.B, res *core.Result, cores int, init, entry string) {
	b.Helper()
	team := rt.NewSimTeam(cores)
	res.Machine.SetTeam(team)
	var simTotal, realTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.Machine.ResetGlobals(); err != nil {
			b.Fatal(err)
		}
		if init != "" {
			if _, err := res.Machine.CallInt(init); err != nil {
				b.Fatal(err)
			}
		}
		team.TakeSim()
		start := time.Now()
		if _, err := res.Machine.CallInt(entry); err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start)
		real, virt := team.TakeSim()
		simTotal += wall - real + virt
		realTotal += wall
	}
	if b.N > 0 {
		b.ReportMetric(float64(simTotal.Nanoseconds())/float64(b.N), "sim-ns/op")
	}
}

// BenchmarkFig2TilingLegality measures the polyhedral analysis of the
// paper's Fig. 2 example: dependence computation, legality test, skewing
// and the post-skew permutability proof.
func BenchmarkFig2TilingLegality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := &poly.Nest{Iters: []string{"i", "j"}}
		s := poly.NewSystem()
		s.AddLowerBound("i", poly.NewAffine(1))
		s.AddUpperBound("i", poly.NewAffine(62))
		s.AddLowerBound("j", poly.NewAffine(1))
		s.AddUpperBound("j", poly.NewAffine(62))
		n.Domain = s
		st := &poly.Statement{ID: 0}
		st.Writes = []poly.Access{{Array: "A", Write: true, Subs: []poly.Affine{poly.Var("i"), poly.Var("j")}}}
		st.Reads = []poly.Access{
			{Array: "A", Subs: []poly.Affine{poly.Var("i").Sub(poly.NewAffine(1)), poly.Var("j")}},
			{Array: "A", Subs: []poly.Affine{poly.Var("i"), poly.Var("j").Sub(poly.NewAffine(1))}},
			{Array: "A", Subs: []poly.Affine{poly.Var("i").Sub(poly.NewAffine(1)), poly.Var("j").Add(poly.NewAffine(1))}},
		}
		n.Stmts = []*poly.Statement{st}
		deps := poly.AnalyzeDeps(n)
		if poly.Permutable(n, deps) {
			b.Fatal("must not be permutable before skewing")
		}
		f, ok := poly.LegalSkew(deps, 0)
		if !ok || f != 1 {
			b.Fatal("bad skew factor")
		}
		skewed := poly.ApplySkew(n, 0, f)
		if !poly.Permutable(skewed, poly.AnalyzeDeps(skewed)) {
			b.Fatal("must be permutable after skewing")
		}
	}
}

const benchMatmulN = 64

// BenchmarkFig3MatmulGCC times the GCC-backend matmul variants of Fig. 3.
func BenchmarkFig3MatmulGCC(b *testing.B) {
	defs := apps.MatmulDefines(benchMatmulN)
	variants := []struct {
		name string
		src  string
		cfg  core.Config
	}{
		{"seq", apps.MatmulSrc, core.Config{}},
		{"PluTo", apps.MatmulInlinedSrc, core.Config{Parallelize: true, Mode: core.ModePluTo}},
		{"PluTo-SICA", apps.MatmulInlinedSrc, core.Config{Parallelize: true, Mode: core.ModePluTo, Vectorize: true}},
		{"pure", apps.MatmulSrc, core.Config{Parallelize: true}},
		{"pure-no-init-par", apps.MatmulNoInitParSrc, core.Config{Parallelize: true}},
	}
	for _, v := range variants {
		res := buildFor(b, v.src, defs, v.cfg)
		for _, c := range benchCores {
			if v.name == "seq" && c > 1 {
				continue
			}
			b.Run(fmt.Sprintf("%s/cores=%d", v.name, c), func(b *testing.B) {
				runMachine(b, res, c, "", "main")
			})
		}
	}
	b.Run("MKL/cores=8", func(b *testing.B) {
		a, bt := apps.MatmulInputs(benchMatmulN)
		team := rt.NewSimTeam(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apps.MatmulMKL(a, bt, team)
		}
	})
}

// BenchmarkFig4MatmulICC times the ICC-backend matmul variants of Fig. 4.
func BenchmarkFig4MatmulICC(b *testing.B) {
	defs := apps.MatmulDefines(benchMatmulN)
	variants := []struct {
		name string
		src  string
		cfg  core.Config
	}{
		{"PluTo", apps.MatmulInlinedSrc, core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendICC}},
		{"PluTo-SICA", apps.MatmulInlinedSrc, core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendICC, Vectorize: true}},
		{"pure", apps.MatmulSrc, core.Config{Parallelize: true, Backend: comp.BackendICC}},
	}
	for _, v := range variants {
		res := buildFor(b, v.src, defs, v.cfg)
		for _, c := range benchCores {
			b.Run(fmt.Sprintf("%s/cores=%d", v.name, c), func(b *testing.B) {
				runMachine(b, res, c, "", "main")
			})
		}
	}
}

// BenchmarkFig5MatmulSpeedup sweeps the pure variant across the core
// axis; speedup is this series against the seq entry of Fig. 3.
func BenchmarkFig5MatmulSpeedup(b *testing.B) {
	res := buildFor(b, apps.MatmulSrc, apps.MatmulDefines(benchMatmulN), core.Config{Parallelize: true})
	for _, c := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("pure/cores=%d", c), func(b *testing.B) {
			runMachine(b, res, c, "", "main")
		})
	}
}

const (
	benchHeatN     = 64
	benchHeatSteps = 10
)

// BenchmarkFig6Heat times the heat variants of Fig. 6.
func BenchmarkFig6Heat(b *testing.B) {
	defs := apps.HeatDefines(benchHeatN, benchHeatSteps)
	variants := []struct {
		name string
		src  string
		cfg  core.Config
	}{
		{"seq", apps.HeatSrc, core.Config{}},
		{"PluTo-SICA-gcc", apps.HeatInlinedSrc, core.Config{Parallelize: true, Mode: core.ModePluTo, Vectorize: true}},
		{"PluTo-SICA-icc", apps.HeatInlinedSrc, core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendICC, Vectorize: true}},
		{"pure-gcc", apps.HeatSrc, core.Config{Parallelize: true}},
		{"pure-icc", apps.HeatSrc, core.Config{Parallelize: true, Backend: comp.BackendICC}},
	}
	for _, v := range variants {
		res := buildFor(b, v.src, defs, v.cfg)
		for _, c := range benchCores {
			if v.name == "seq" && c > 1 {
				continue
			}
			b.Run(fmt.Sprintf("%s/cores=%d", v.name, c), func(b *testing.B) {
				runMachine(b, res, c, "", "main")
			})
		}
	}
}

// BenchmarkFig7HeatSpeedup sweeps the pure heat build across cores.
func BenchmarkFig7HeatSpeedup(b *testing.B) {
	res := buildFor(b, apps.HeatSrc, apps.HeatDefines(benchHeatN, benchHeatSteps), core.Config{Parallelize: true})
	for _, c := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("pure/cores=%d", c), func(b *testing.B) {
			runMachine(b, res, c, "", "main")
		})
	}
}

const (
	benchSatPix   = 400
	benchSatBands = 8
	benchSatIters = 24
)

// BenchmarkFig8Satellite times the AOD retrieval variants of Fig. 8
// (compute phase only, matching the paper's kernel timing).
func BenchmarkFig8Satellite(b *testing.B) {
	defs := apps.SatelliteDefines(benchSatPix, benchSatBands, benchSatIters)
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"auto-static-gcc", core.Config{Parallelize: true}},
		{"auto-static-icc", core.Config{Parallelize: true, Backend: comp.BackendICC}},
		{"manual-dynamic-gcc", core.Config{Parallelize: true, Transform: transform.Options{Schedule: "dynamic,1"}}},
		{"manual-dynamic-icc", core.Config{Parallelize: true, Backend: comp.BackendICC, Transform: transform.Options{Schedule: "dynamic,1"}}},
	}
	for _, v := range variants {
		res := buildFor(b, apps.SatelliteSrc, defs, v.cfg)
		for _, c := range benchCores {
			b.Run(fmt.Sprintf("%s/cores=%d", v.name, c), func(b *testing.B) {
				runMachine(b, res, c, "initcube", "run")
			})
		}
	}
}

// BenchmarkFig9SatelliteSpeedup sweeps the static and dynamic builds
// across cores; their divergence at high core counts is the paper's
// load-imbalance result.
func BenchmarkFig9SatelliteSpeedup(b *testing.B) {
	defs := apps.SatelliteDefines(benchSatPix, benchSatBands, benchSatIters)
	static := buildFor(b, apps.SatelliteSrc, defs, core.Config{Parallelize: true})
	dynamic := buildFor(b, apps.SatelliteSrc, defs, core.Config{Parallelize: true,
		Transform: transform.Options{Schedule: "dynamic,1"}})
	for _, c := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("static/cores=%d", c), func(b *testing.B) {
			runMachine(b, static, c, "initcube", "run")
		})
		b.Run(fmt.Sprintf("dynamic/cores=%d", c), func(b *testing.B) {
			runMachine(b, dynamic, c, "initcube", "run")
		})
	}
}

const (
	benchLamaRows = 2000
	benchLamaNNZ  = 10
)

// BenchmarkFig10Lama times the ELL SpMV variants of Fig. 10.
func BenchmarkFig10Lama(b *testing.B) {
	defs := apps.LamaDefines(benchLamaRows, benchLamaNNZ)
	variants := []struct {
		name string
		src  string
		cfg  core.Config
	}{
		{"auto-gcc", apps.LamaSrc, core.Config{Parallelize: true}},
		{"auto-icc", apps.LamaSrc, core.Config{Parallelize: true, Backend: comp.BackendICC}},
		{"manual-gcc", apps.LamaManualSrc, core.Config{}},
		{"manual-icc", apps.LamaManualSrc, core.Config{Backend: comp.BackendICC, Vectorize: true}},
	}
	for _, v := range variants {
		res := buildFor(b, v.src, defs, v.cfg)
		for _, c := range benchCores {
			b.Run(fmt.Sprintf("%s/cores=%d", v.name, c), func(b *testing.B) {
				runMachine(b, res, c, "initell", "run")
			})
		}
	}
}

// BenchmarkFig11LamaSpeedup sweeps the automatically parallelized ELL
// SpMV across the core axis.
func BenchmarkFig11LamaSpeedup(b *testing.B) {
	res := buildFor(b, apps.LamaSrc, apps.LamaDefines(benchLamaRows, benchLamaNNZ), core.Config{Parallelize: true})
	for _, c := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("auto/cores=%d", c), func(b *testing.B) {
			runMachine(b, res, c, "initell", "run")
		})
	}
}

// --- Ablations for the design choices ARCHITECTURE.md describes ---

// BenchmarkAblationTiling isolates the effect of PluTo-SICA-style
// rectangular tiling on the inlined matmul nest (cache effects are not
// the dominant term in the execution model, so tiling mostly shows its
// loop-overhead cost — kept as an honest ablation).
func BenchmarkAblationTiling(b *testing.B) {
	defs := apps.MatmulDefines(benchMatmulN)
	for _, tile := range []bool{false, true} {
		cfg := core.Config{Parallelize: true, Mode: core.ModePluTo}
		name := "untiled"
		if tile {
			cfg.Transform = transform.Options{Tile: true, TileSizes: []int{32, 32, 0}}
			name = "tiled32"
		}
		res := buildFor(b, apps.MatmulInlinedSrc, defs, cfg)
		b.Run(name+"/cores=8", func(b *testing.B) {
			runMachine(b, res, 8, "", "main")
		})
	}
}

// BenchmarkAblationVectorize isolates the fused-kernel compilation (the
// SICA/ICC SIMD analog) on the inlined matmul.
func BenchmarkAblationVectorize(b *testing.B) {
	defs := apps.MatmulDefines(benchMatmulN)
	for _, vec := range []bool{false, true} {
		cfg := core.Config{Parallelize: true, Mode: core.ModePluTo, Vectorize: vec}
		name := "scalar"
		if vec {
			name = "vectorized"
		}
		res := buildFor(b, apps.MatmulInlinedSrc, defs, cfg)
		b.Run(name+"/cores=1", func(b *testing.B) {
			runMachine(b, res, 1, "", "main")
		})
	}
}

// BenchmarkAblationInlining isolates the trivial-pure-function inliner
// (the -O2 analog) by comparing the GCC backend (inlining active) on the
// pure matmul against the same program with mult made non-inlinable
// (pointer parameter).
func BenchmarkAblationInlining(b *testing.B) {
	inlinable := apps.MatmulSrc
	res1 := buildFor(b, inlinable, apps.MatmulDefines(benchMatmulN), core.Config{Parallelize: true})
	b.Run("mult-inlined/cores=1", func(b *testing.B) {
		runMachine(b, res1, 1, "", "main")
	})
	// A variant whose helper takes pointer parameters and therefore
	// stays a call (like heat's avg).
	blocked := `
float **A, **Bt, **C;

pure float multAt(pure float* a, pure float* b, int i) {
    return a[i] * b[i];
}

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += multAt(a, b, i);
    return res;
}

void initmat(void) {
    A = (float**)malloc(N * sizeof(float*));
    Bt = (float**)malloc(N * sizeof(float*));
    C = (float**)malloc(N * sizeof(float*));
    for (int i = 0; i < N; i++) {
        A[i] = (float*)malloc(N * sizeof(float));
        Bt[i] = (float*)malloc(N * sizeof(float));
        C[i] = (float*)malloc(N * sizeof(float));
    }
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {
            A[i][j] = (float)((i + j) % 13) * 0.25f;
            Bt[i][j] = (float)((i - j) % 7) * 0.5f;
        }
}

int main(void) {
    initmat();
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], N);
    return 0;
}
`
	res2 := buildFor(b, blocked, apps.MatmulDefines(benchMatmulN), core.Config{Parallelize: true})
	b.Run("mult-not-inlinable/cores=1", func(b *testing.B) {
		runMachine(b, res2, 1, "", "main")
	})
}

// BenchmarkAblationSchedule sweeps dynamic chunk sizes on the imbalanced
// satellite workload (the paper picked dynamic,1).
func BenchmarkAblationSchedule(b *testing.B) {
	defs := apps.SatelliteDefines(benchSatPix, benchSatBands, benchSatIters)
	for _, sched := range []string{"static", "dynamic,1", "dynamic,8", "guided"} {
		cfg := core.Config{Parallelize: true}
		if sched != "static" {
			cfg.Transform = transform.Options{Schedule: sched}
		}
		res := buildFor(b, apps.SatelliteSrc, defs, cfg)
		b.Run(sched+"/cores=16", func(b *testing.B) {
			runMachine(b, res, 16, "initcube", "run")
		})
	}
}

// BenchmarkAblationSkew measures the shearing transformation: the
// in-place wavefront stencil is serial without skewing and gains inner
// parallelism with it (the Fig. 2 transformation applied end to end).
func BenchmarkAblationSkew(b *testing.B) {
	src := `
int n;
float **A;

void initw(void) {
    n = 128;
    A = (float**)malloc(n * sizeof(float*));
    for (int i = 0; i < n; i++)
        A[i] = (float*)malloc(n * sizeof(float));
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            A[i][j] = (float)(i + j);
}

int run(void) {
    for (int i = 1; i < n; ++i)
        for (int j = 1; j < n - 1; ++j)
            A[i][j] = A[i - 1][j] + A[i][j - 1] + A[i - 1][j + 1];
    return 0;
}

int main(void) {
    initw();
    return run();
}
`
	for _, skew := range []bool{false, true} {
		cfg := core.Config{Parallelize: true,
			Transform: transform.Options{Skew: skew, MinParallelTrip: -1}}
		name := "no-skew(serial)"
		if skew {
			name = "skewed(parallel-inner)"
		}
		res := buildFor(b, src, nil, cfg)
		b.Run(name+"/cores=8", func(b *testing.B) {
			runMachine(b, res, 8, "initw", "run")
		})
	}
}

// BenchmarkPurityChecker measures the verification pass itself on the
// four applications (compile-time cost of the paper's contribution).
func BenchmarkPurityChecker(b *testing.B) {
	srcs := map[string]string{
		"matmul":    apps.MatmulSrc,
		"heat":      apps.HeatSrc,
		"satellite": apps.SatelliteSrc,
		"lama":      apps.LamaSrc,
	}
	defs := map[string]map[string]string{
		"matmul":    apps.MatmulDefines(64),
		"heat":      apps.HeatDefines(64, 4),
		"satellite": apps.SatelliteDefines(64, 4, 8),
		"lama":      apps.LamaDefines(64, 4),
	}
	for name, src := range srcs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Defines: defs[name], Stdout: io.Discard}
				if _, err := core.Build(src, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompilerChain measures the tool-chain itself (preprocess,
// parse, purity check, polyhedral transform, compile) on the matmul
// program — the compile-time cost of the paper's approach. NoCache
// keeps the program cache from answering every build after the first.
func BenchmarkCompilerChain(b *testing.B) {
	defs := apps.MatmulDefines(64)
	b.Run("pure-full-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(apps.MatmulSrc, core.Config{
				Parallelize: true, Defines: defs, Stdout: io.Discard, NoCache: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seq-no-polyhedral", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(apps.MatmulSrc, core.Config{
				Defines: defs, Stdout: io.Discard, NoCache: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
