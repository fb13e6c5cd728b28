package apps

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/interp"
	"purec/internal/mem"
	"purec/internal/rt"
	"purec/internal/transform"
)

// build runs the full pipeline and executes main.
func build(t *testing.T, src string, defines map[string]string, cfg core.Config) *core.Result {
	t.Helper()
	cfg.Defines = defines
	if cfg.Transform.MinParallelTrip == 0 {
		// Test workloads are tiny; disable the profitability threshold.
		cfg.Transform.MinParallelTrip = -1
	}
	res, err := core.Build(src, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := res.Machine.RunMain(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func maxRelDiff(a, b []float32) float64 {
	var worst float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		scale := math.Max(math.Abs(float64(a[i])), 1)
		if r := d / scale; r > worst {
			worst = r
		}
	}
	return worst
}

func flat(m [][]float32) []float32 {
	var out []float32
	for _, r := range m {
		out = append(out, r...)
	}
	return out
}

const tol = 1e-4

// --- Matrix multiplication ---

func TestMatmulPureMatchesReference(t *testing.T) {
	n := 20
	res := build(t, MatmulSrc, MatmulDefines(n), core.Config{Parallelize: true, TeamSize: 3})
	ptr, err := res.Machine.GlobalPtr("C")
	if err != nil {
		t.Fatal(err)
	}
	got := ReadMatrix(ptr, n)
	want := MatmulRef(n)
	if d := maxRelDiff(flat(got), flat(want)); d > tol {
		t.Fatalf("matmul diff %g", d)
	}
}

func TestMatmulPureIsParallelized(t *testing.T) {
	res := build(t, MatmulSrc, MatmulDefines(12), core.Config{Parallelize: true, TeamSize: 2})
	foundMain := false
	for _, l := range res.Report.Loops {
		if l.Func == "main" && l.ParallelLevel == 0 {
			foundMain = true
		}
	}
	if !foundMain {
		t.Fatalf("main nest must be parallel:\n%s", res.Report)
	}
}

func TestMatmulInlinedMatchesReference(t *testing.T) {
	n := 20
	res := build(t, MatmulInlinedSrc, MatmulDefines(n), core.Config{
		Parallelize: true, TeamSize: 3, Mode: core.ModePluTo,
	})
	ptr, err := res.Machine.GlobalPtr("C")
	if err != nil {
		t.Fatal(err)
	}
	got := ReadMatrix(ptr, n)
	want := MatmulRef(n)
	if d := maxRelDiff(flat(got), flat(want)); d > tol {
		t.Fatalf("inlined matmul diff %g", d)
	}
}

func TestMatmulPureVariantsBitIdenticalAcrossBackends(t *testing.T) {
	n := 16
	g := build(t, MatmulSrc, MatmulDefines(n), core.Config{Parallelize: true, TeamSize: 2, Backend: comp.BackendGCC})
	i := build(t, MatmulSrc, MatmulDefines(n), core.Config{Parallelize: true, TeamSize: 2, Backend: comp.BackendICC})
	pg, _ := g.Machine.GlobalPtr("C")
	pi, _ := i.Machine.GlobalPtr("C")
	mg := flat(ReadMatrix(pg, n))
	mi := flat(ReadMatrix(pi, n))
	for k := range mg {
		if mg[k] != mi[k] {
			t.Fatalf("element %d: gcc %v icc %v (kernels must be bit-identical)", k, mg[k], mi[k])
		}
	}
}

func TestMatmulNoInitVariantStillCorrect(t *testing.T) {
	n := 16
	res := build(t, MatmulNoInitParSrc, MatmulDefines(n), core.Config{Parallelize: true, TeamSize: 2})
	// The malloc loop (the only depth-1 nest in initmat) must stay
	// serial in this variant; the element-init nest may parallelize.
	for _, l := range res.Report.Loops {
		if l.Func == "initmat" && l.Depth == 1 {
			t.Fatalf("malloc loop must not be a SCoP in the no-init variant: %+v", l)
		}
	}
	ptr, _ := res.Machine.GlobalPtr("C")
	if d := maxRelDiff(flat(ReadMatrix(ptr, n)), flat(MatmulRef(n))); d > tol {
		t.Fatalf("diff %g", d)
	}
}

func TestMatmulMallocLoopParallelizedOnlyWithPure(t *testing.T) {
	pure := build(t, MatmulSrc, MatmulDefines(12), core.Config{Parallelize: true, TeamSize: 2})
	initPar := false
	for _, l := range pure.Report.Loops {
		if l.Func == "initmat" && l.Depth == 1 && l.ParallelLevel >= 0 {
			initPar = true
		}
	}
	if !initPar {
		t.Errorf("pure chain must parallelize the malloc loop (Fig. 3):\n%s", pure.Report)
	}
	pluto := build(t, MatmulInlinedSrc, MatmulDefines(12), core.Config{
		Parallelize: true, TeamSize: 2, Mode: core.ModePluTo,
	})
	for _, l := range pluto.Report.Loops {
		if l.Func == "initmat" && l.Depth == 1 {
			t.Errorf("classic PluTo must NOT touch the malloc loop: %+v", l)
		}
	}
}

func TestMatmulMKLMatchesReference(t *testing.T) {
	n := 24
	a, bt := MatmulInputs(n)
	got := MatmulMKL(a, bt, rt.NewTeam(4))
	want := MatmulRef(n)
	if d := maxRelDiff(flat(got), flat(want)); d > tol {
		t.Fatalf("MKL-analog diff %g", d)
	}
}

// --- Heat ---

func TestHeatPureMatchesReference(t *testing.T) {
	n, steps := 18, 7
	res := build(t, HeatSrc, HeatDefines(n, steps), core.Config{Parallelize: true, TeamSize: 3})
	ptr, err := res.Machine.GlobalPtr("cur")
	if err != nil {
		t.Fatal(err)
	}
	got := ReadMatrix(ptr, n)
	want := HeatRef(n, steps)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("cell (%d,%d): got %v want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestHeatInlinedMatchesPure(t *testing.T) {
	n, steps := 18, 7
	p := build(t, HeatSrc, HeatDefines(n, steps), core.Config{Parallelize: true, TeamSize: 2})
	q := build(t, HeatInlinedSrc, HeatDefines(n, steps), core.Config{
		Parallelize: true, TeamSize: 2, Mode: core.ModePluTo,
	})
	pp, _ := p.Machine.GlobalPtr("cur")
	pq, _ := q.Machine.GlobalPtr("cur")
	a, b := flat(ReadMatrix(pp, n)), flat(ReadMatrix(pq, n))
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("heat variants diverge at %d: %v vs %v", k, a[k], b[k])
		}
	}
}

func TestHeatBothNestsParallelized(t *testing.T) {
	res := build(t, HeatSrc, HeatDefines(12, 2), core.Config{Parallelize: true, TeamSize: 2})
	count := 0
	for _, l := range res.Report.Loops {
		if l.Func == "main" && l.ParallelLevel == 0 {
			count++
		}
	}
	if count < 2 {
		t.Fatalf("stencil and copy-back nests must both be parallel:\n%s", res.Report)
	}
}

// --- Satellite ---

func TestSatelliteMatchesReference(t *testing.T) {
	npix, bands, iters := 60, 12, 40
	res := build(t, SatelliteSrc, SatelliteDefines(npix, bands, iters),
		core.Config{Parallelize: true, TeamSize: 3})
	ptr, err := res.Machine.GlobalPtr("aod")
	if err != nil {
		t.Fatal(err)
	}
	got := ReadFloats(ptr, npix)
	want := SatelliteRef(npix, bands, iters)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pixel %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestSatelliteDynamicScheduleCorrect(t *testing.T) {
	npix, bands, iters := 60, 12, 40
	res := build(t, SatelliteSrc, SatelliteDefines(npix, bands, iters), core.Config{
		Parallelize: true, TeamSize: 4,
		Transform: transform.Options{Schedule: "dynamic,1"},
	})
	ptr, _ := res.Machine.GlobalPtr("aod")
	got := ReadFloats(ptr, npix)
	want := SatelliteRef(npix, bands, iters)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pixel %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestSatelliteOnlyParallelizableWithPure(t *testing.T) {
	res := build(t, SatelliteSrc, SatelliteDefines(20, 4, 10), core.Config{
		Parallelize: true, TeamSize: 2, Mode: core.ModePluTo,
	})
	for _, l := range res.Report.Loops {
		if l.Func == "run" || l.Func == "main" {
			t.Fatalf("classic polyhedral mode must reject the filter loop: %+v", l)
		}
	}
}

// --- LAMA ---

func TestLamaMatchesReference(t *testing.T) {
	rows, nnz := 64, 6
	res := build(t, LamaSrc, LamaDefines(rows, nnz), core.Config{Parallelize: true, TeamSize: 3})
	ptr, err := res.Machine.GlobalPtr("y")
	if err != nil {
		t.Fatal(err)
	}
	got := ReadFloats(ptr, rows)
	want := LamaRef(rows, nnz)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestLamaManualMatchesAuto(t *testing.T) {
	rows, nnz := 64, 6
	auto := build(t, LamaSrc, LamaDefines(rows, nnz), core.Config{Parallelize: true, TeamSize: 4})
	man := build(t, LamaManualSrc, LamaDefines(rows, nnz), core.Config{TeamSize: 4})
	pa, _ := auto.Machine.GlobalPtr("y")
	pm, _ := man.Machine.GlobalPtr("y")
	a, b := ReadFloats(pa, rows), ReadFloats(pm, rows)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: auto %v manual %v", i, a[i], b[i])
		}
	}
}

func TestLamaRowLoopParallelized(t *testing.T) {
	res := build(t, LamaSrc, LamaDefines(32, 4), core.Config{Parallelize: true, TeamSize: 2})
	found := false
	for _, l := range res.Report.Loops {
		if l.Func == "run" && l.ParallelLevel == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("row loop must be parallel:\n%s", res.Report)
	}
}

func TestLamaICCGatherKernelBitIdentical(t *testing.T) {
	rows, nnz := 48, 5
	g := build(t, LamaSrc, LamaDefines(rows, nnz), core.Config{Parallelize: true, TeamSize: 2, Backend: comp.BackendGCC})
	i := build(t, LamaSrc, LamaDefines(rows, nnz), core.Config{Parallelize: true, TeamSize: 2, Backend: comp.BackendICC})
	pg, _ := g.Machine.GlobalPtr("y")
	pi, _ := i.Machine.GlobalPtr("y")
	a, b := ReadFloats(pg, rows), ReadFloats(pi, rows)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("row %d: gcc %v icc %v", k, a[k], b[k])
		}
	}
}

// --- Program/Process concurrency through the full pipeline ---

// TestMatmulConcurrentProcesses compiles the matmul app once through the
// complete chain and serves 8 concurrent runs from the one immutable
// Program, each in its own Process. Every run is checked against the
// tree-walking interpreter oracle on the same checked final source.
func TestMatmulConcurrentProcesses(t *testing.T) {
	n := 16
	cfg := core.Config{Parallelize: true, Defines: MatmulDefines(n)}
	cfg.Transform.MinParallelTrip = -1
	prog, art, _, err := core.BuildProgram(MatmulSrc, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	in, err := interp.New(art.Info, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if _, err := in.RunMain(); err != nil {
		t.Fatalf("interp run: %v", err)
	}
	oraclePtr, err := in.GlobalPtr("C")
	if err != nil {
		t.Fatal(err)
	}
	want := ReadMatrix(oraclePtr, n)

	const procs = 8
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc, err := prog.NewProcess(comp.ProcOptions{Team: rt.NewTeam(1 + i%3), Stdout: io.Discard})
			if err != nil {
				errs <- fmt.Errorf("process %d: %v", i, err)
				return
			}
			if _, err := proc.RunMain(); err != nil {
				errs <- fmt.Errorf("process %d: run: %v", i, err)
				return
			}
			ptr, err := proc.GlobalPtr("C")
			if err != nil {
				errs <- fmt.Errorf("process %d: %v", i, err)
				return
			}
			got := ReadMatrix(ptr, n)
			if d := maxRelDiff(flat(got), flat(want)); d > 0 {
				errs <- fmt.Errorf("process %d: differs from oracle by %g", i, d)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// --- Reduction kernels ---

func TestReduceSumParallelizesAndMatchesRef(t *testing.T) {
	n := 5000
	res := build(t, ReduceSumSrc, ReduceDefines(n), core.Config{Parallelize: true, TeamSize: 4})
	if !strings.Contains(res.Stages.Transformed, "reduction(+:s)") {
		t.Fatalf("sum kernel not recognized as reduction:\n%s", res.Stages.Transformed)
	}
	got, err := res.Machine.GlobalInt("result")
	if err != nil {
		t.Fatal(err)
	}
	if want := ReduceSumRef(n); got != want {
		t.Fatalf("parallel sum %d, reference %d", got, want)
	}
}

func TestReduceSumBitIdenticalAcrossTeamSizes(t *testing.T) {
	// Integer reductions are exact: every team size and both modes give
	// the reference value.
	n := 3000
	want := ReduceSumRef(n)
	for _, cores := range []int{1, 2, 8} {
		res := build(t, ReduceSumSrc, ReduceDefines(n), core.Config{Parallelize: true, TeamSize: cores})
		got, err := res.Machine.GlobalInt("result")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%d cores: sum %d, reference %d", cores, got, want)
		}
	}
}

func TestReduceDotParallelizesAndMatchesSerial(t *testing.T) {
	n := 4000
	par := build(t, ReduceDotSrc, ReduceDefines(n), core.Config{Parallelize: true, TeamSize: 4})
	if !strings.Contains(par.Stages.Transformed, "reduction(+:res)") {
		t.Fatalf("dot kernel not recognized as reduction:\n%s", par.Stages.Transformed)
	}
	pv, err := par.Machine.GlobalFloat("result")
	if err != nil {
		t.Fatal(err)
	}
	seq := build(t, ReduceDotSrc, ReduceDefines(n), core.Config{})
	sv, err := seq.Machine.GlobalFloat("result")
	if err != nil {
		t.Fatal(err)
	}
	// Float reduction: parallel combine order differs from the serial
	// chain, so compare within float tolerance (and exercise the
	// determinism contract separately at the comp level).
	if d := math.Abs(pv-sv) / math.Max(math.Abs(sv), 1); d > tol {
		t.Fatalf("parallel dot %v vs serial %v (rel diff %g)", pv, sv, d)
	}
}

// --- Kernel workloads ---

// readFVec reads n float cells of a malloc'd global vector.
func readFVec(t *testing.T, res *core.Result, name string, n int) []float32 {
	t.Helper()
	p, err := res.Machine.GlobalPtr(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(p.Add(int64(i)).LoadFloat())
	}
	return out
}

// interpGlobal runs res's program in the interpreter — statement
// dispatch, no kernels — and returns the named global.
func interpGlobal(t *testing.T, res *core.Result, name string) mem.Pointer {
	t.Helper()
	in, err := interp.New(res.Info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.RunMain(); err != nil {
		t.Fatal(err)
	}
	p, err := in.GlobalPtr(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkFVec requires the fused build's vector and the interpreter's to
// equal want bit for bit.
func checkFVec(t *testing.T, res *core.Result, name string, want []float32) {
	t.Helper()
	if res.Program.FusedKernels() == 0 {
		t.Fatal("the kernel did not fuse")
	}
	got := readFVec(t, res, name, len(want))
	ip := interpGlobal(t, res, name)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fused: %s[%d] = %v, want %v (must be bit-identical)", name, i, got[i], want[i])
		}
		if v := float32(ip.Add(int64(i)).LoadFloat()); v != want[i] {
			t.Fatalf("interp: %s[%d] = %v, want %v (must be bit-identical)", name, i, v, want[i])
		}
	}
}

func TestAxpyKernelMatchesReferenceFusedAndDispatch(t *testing.T) {
	const n, reps = 256, 3
	checkFVec(t, build(t, AxpySrc, KernDefines(n, reps), core.Config{}), "y", KernRefAxpy(n, reps))
}

func TestStencilKernelMatchesReferenceFusedAndDispatch(t *testing.T) {
	const n, reps = 128, 2
	checkFVec(t, build(t, StencilSrc, KernDefines(n, reps), core.Config{}), "y", KernRefStencil(n))
}

func TestMatmulKernMatchesReference(t *testing.T) {
	const n = 24
	want := flat(MatmulRef(n))
	res := build(t, MatmulKernSrc, MatmulDefines(n), core.Config{Backend: comp.BackendICC})
	ptr, err := res.Machine.GlobalPtr("C")
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]float32{flat(ReadMatrix(ptr, n)), flat(ReadMatrix(interpGlobal(t, res, "C"), n))} {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("C[%d] = %v, want %v (must be bit-identical)", i, got[i], want[i])
			}
		}
	}
}

// --- Histogram (array reduction) ---

func TestHistogramMatchesReference(t *testing.T) {
	const n, bins = 3000, 24
	res := build(t, HistogramSrc, HistogramDefines(n, bins),
		core.Config{Parallelize: true, TeamSize: 8})
	ref := HistogramRef(n, bins)
	p, err := res.Machine.GlobalPtr("out")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < bins; b++ {
		if got := p.Add(int64(b)).LoadInt(); got != ref[b] {
			t.Errorf("bin %d: got %d want %d", b, got, ref[b])
		}
	}
}

func TestHistogramHotLoopParallelized(t *testing.T) {
	res := build(t, HistogramSrc, HistogramDefines(1000, 16),
		core.Config{Parallelize: true})
	found := false
	for _, lr := range res.Report.Loops {
		for _, r := range lr.Reductions {
			if r == "+:hist[]" && lr.ParallelLevel == 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("histogram hot loop not parallelized as an array reduction: %+v", res.Report.Loops)
	}
}

// --- Gather workload ---

func TestGatherMatchesReferenceSerialAndParallel(t *testing.T) {
	const n, m, reps = 256, 64, 3
	defs := GatherDefines(n, m, reps)
	want := GatherRef(n, m)
	for _, par := range []bool{false, true} {
		res := build(t, GatherSrc, defs, core.Config{Parallelize: par})
		got := readFVec(t, res, "y", n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Parallelize=%v: y[%d] = %v, want %v (must be bit-identical)", par, i, got[i], want[i])
			}
		}
	}
}
