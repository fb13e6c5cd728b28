package bench

import (
	"fmt"
	"strings"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/poly"
	"purec/internal/rt"
	"purec/internal/transform"
)

// MatmulData carries every measured matmul configuration; Figs. 3–5 are
// views of it.
type MatmulData struct {
	P      Params
	SeqGCC float64
	GCC    []Series // PluTo, PluTo-SICA, pure, pure(no-init), MKL
	ICC    []Series // PluTo, PluTo-SICA, pure, MKL
}

// CollectMatmul measures all matrix-multiplication variants.
func CollectMatmul(p Params) (*MatmulData, error) {
	d := &MatmulData{P: p}
	defs := apps.MatmulDefines(p.MatmulN)
	seq, err := measureSeq(variant{
		name: "seq gcc", src: apps.MatmulSrc, defs: defs,
		cfg: core.Config{Backend: comp.BackendGCC},
	}, p.Reps)
	if err != nil {
		return nil, err
	}
	d.SeqGCC = seq

	gccVariants := []variant{
		{name: "PluTo (gcc)", src: apps.MatmulInlinedSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendGCC}},
		{name: "PluTo-SICA (gcc)", src: apps.MatmulInlinedSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendGCC, Vectorize: true}},
		{name: "pure (gcc)", src: apps.MatmulSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC}},
		{name: "pure no-init-par (gcc)", src: apps.MatmulNoInitParSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC}},
		mklVariant(p, "MKL (hand-tuned)"),
	}
	for _, v := range gccVariants {
		s, err := measure(v, p.Cores, p.Reps)
		if err != nil {
			return nil, err
		}
		d.GCC = append(d.GCC, s)
	}
	iccVariants := []variant{
		{name: "PluTo (icc)", src: apps.MatmulInlinedSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendICC}},
		{name: "PluTo-SICA (icc)", src: apps.MatmulInlinedSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendICC, Vectorize: true}},
		{name: "pure (icc)", src: apps.MatmulSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Backend: comp.BackendICC}},
		mklVariant(p, "MKL (hand-tuned)"),
	}
	for _, v := range iccVariants {
		s, err := measure(v, p.Cores, p.Reps)
		if err != nil {
			return nil, err
		}
		d.ICC = append(d.ICC, s)
	}
	return d, nil
}

func mklVariant(p Params, name string) variant {
	return variant{name: name, native: func(team *rt.Team) {
		a, bt := apps.MatmulInputs(p.MatmulN)
		apps.MatmulMKL(a, bt, team)
	}}
}

// Fig3 renders the GCC execution times (paper Fig. 3).
func (d *MatmulData) Fig3() *Figure {
	return &Figure{
		ID:    "Fig 3",
		Title: fmt.Sprintf("matrix-matrix multiplication, execution time, GCC backend (N=%d)", d.P.MatmulN),
		Kind:  "time", Cores: sortedCores(d.P.Cores),
		Series: d.GCC, Baseline: d.SeqGCC, BaseName: "gcc -O2 analog",
		Notes: []string{
			"pure beats PluTo because the malloc loop is parallelized (malloc is in the pure hashset)",
			"pure no-init-par excludes the allocation loop and lands near PluTo",
		},
	}
}

// Fig4 renders the ICC execution times (paper Fig. 4).
func (d *MatmulData) Fig4() *Figure {
	return &Figure{
		ID:    "Fig 4",
		Title: fmt.Sprintf("matrix-matrix multiplication, execution time, ICC backend (N=%d)", d.P.MatmulN),
		Kind:  "time", Cores: sortedCores(d.P.Cores),
		Series: d.ICC, Baseline: d.SeqGCC, BaseName: "gcc -O2 analog",
		Notes: []string{
			"ICC vectorizes the extracted pure dot function; the PluTo-inlined loop does not benefit",
		},
	}
}

// Fig5 renders the speedups of all variants (paper Fig. 5).
func (d *MatmulData) Fig5() *Figure {
	f := &Figure{
		ID:    "Fig 5",
		Title: "matrix-matrix multiplication, speedup vs sequential GCC",
		Kind:  "speedup", Cores: sortedCores(d.P.Cores),
		Baseline: d.SeqGCC, BaseName: "gcc -O2 analog",
	}
	for _, s := range append(append([]Series{}, d.GCC...), d.ICC...) {
		ns := Series{Name: s.Name, Times: map[int]float64{}}
		for c, t := range s.Times {
			if t > 0 {
				ns.Times[c] = d.SeqGCC / t
			}
		}
		f.Series = append(f.Series, ns)
	}
	return f
}

// HeatData carries the heat-distribution measurements (Figs. 6 and 7).
type HeatData struct {
	P      Params
	SeqGCC float64
	SeqICC float64
	Series []Series
}

// CollectHeat measures the heat variants.
func CollectHeat(p Params) (*HeatData, error) {
	d := &HeatData{P: p}
	defs := apps.HeatDefines(p.HeatN, p.HeatSteps)
	var err error
	d.SeqGCC, err = measureSeq(variant{name: "seq gcc", src: apps.HeatSrc, defs: defs,
		cfg: core.Config{Backend: comp.BackendGCC}}, p.Reps)
	if err != nil {
		return nil, err
	}
	d.SeqICC, err = measureSeq(variant{name: "seq icc", src: apps.HeatSrc, defs: defs,
		cfg: core.Config{Backend: comp.BackendICC}}, p.Reps)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{name: "PluTo-SICA (gcc)", src: apps.HeatInlinedSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendGCC, Vectorize: true}},
		{name: "PluTo-SICA (icc)", src: apps.HeatInlinedSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendICC, Vectorize: true}},
		{name: "pure (gcc)", src: apps.HeatSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC}},
		{name: "pure (icc)", src: apps.HeatSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Backend: comp.BackendICC}},
	}
	for _, v := range variants {
		s, err := measure(v, p.Cores, p.Reps)
		if err != nil {
			return nil, err
		}
		d.Series = append(d.Series, s)
	}
	return d, nil
}

// Fig6 renders the heat execution times (paper Fig. 6).
func (d *HeatData) Fig6() *Figure {
	return &Figure{
		ID:    "Fig 6",
		Title: fmt.Sprintf("heat distribution, execution time (N=%d, %d steps)", d.P.HeatN, d.P.HeatSteps),
		Kind:  "time", Cores: sortedCores(d.P.Cores),
		Series: d.Series, Baseline: d.SeqGCC, BaseName: "gcc -O2 analog",
		Notes: []string{
			fmt.Sprintf("sequential icc analog: %.4f s", d.SeqICC),
			"the paper's inlined PluTo version avoids one call per cell (47.5 vs 87.8 G instructions, Sect. 4.3.2); comp inlines the leaf stencil call itself, so here both sources run the same kernels",
		},
	}
}

// Fig7 renders the heat speedups (paper Fig. 7).
func (d *HeatData) Fig7() *Figure {
	return d.Fig6().Speedup("Fig 7", "heat distribution, speedup vs sequential GCC")
}

// SatData carries the satellite measurements (Figs. 8 and 9).
type SatData struct {
	P      Params
	SeqGCC float64
	Series []Series
}

// CollectSatellite measures the AOD retrieval variants.
func CollectSatellite(p Params) (*SatData, error) {
	d := &SatData{P: p}
	defs := apps.SatelliteDefines(p.SatPix, p.SatBands, p.SatIters)
	var err error
	d.SeqGCC, err = measureSeq(variant{name: "seq gcc", src: apps.SatelliteSrc, defs: defs,
		init: "initcube", entry: "run",
		cfg: core.Config{Backend: comp.BackendGCC}}, p.Reps)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{name: "pure auto (gcc)", src: apps.SatelliteSrc, defs: defs,
			init: "initcube", entry: "run",
			cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC}},
		{name: "pure auto (icc)", src: apps.SatelliteSrc, defs: defs,
			init: "initcube", entry: "run",
			cfg: core.Config{Parallelize: true, Backend: comp.BackendICC}},
		{name: "manual dynamic,1 (gcc)", src: apps.SatelliteSrc, defs: defs,
			init: "initcube", entry: "run",
			cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC,
				Transform: transform.Options{Schedule: "dynamic,1"}}},
		{name: "manual dynamic,1 (icc)", src: apps.SatelliteSrc, defs: defs,
			init: "initcube", entry: "run",
			cfg: core.Config{Parallelize: true, Backend: comp.BackendICC,
				Transform: transform.Options{Schedule: "dynamic,1"}}},
	}
	for _, v := range variants {
		s, err := measure(v, p.Cores, p.Reps)
		if err != nil {
			return nil, err
		}
		d.Series = append(d.Series, s)
	}
	return d, nil
}

// Fig8 renders the satellite execution times (paper Fig. 8).
func (d *SatData) Fig8() *Figure {
	return &Figure{
		ID:    "Fig 8",
		Title: fmt.Sprintf("satellite AOD retrieval, execution time (%d pixels, %d bands)", d.P.SatPix, d.P.SatBands),
		Kind:  "time", Cores: sortedCores(d.P.Cores),
		Series: d.Series, Baseline: d.SeqGCC, BaseName: "gcc -O2 analog",
		Notes: []string{
			"only the pure chain can parallelize this loop at all (complex filter, dynamic branches)",
			"schedule(dynamic,1) absorbs the pixel-dependent load imbalance (Sect. 4.3.3)",
		},
	}
}

// Fig9 renders the satellite speedups (paper Fig. 9).
func (d *SatData) Fig9() *Figure {
	return d.Fig8().Speedup("Fig 9", "satellite AOD retrieval, speedup vs sequential GCC")
}

// MemoData carries the pure-call memoization scenario: the quantized
// satellite retrieval measured with and without the memo table.
type MemoData struct {
	P      Params
	SeqGCC float64
	Series []Series
	// HitRate is the shared-table hit fraction accumulated over the
	// memoizing measurements.
	HitRate float64
}

// CollectMemo measures the quantized AOD retrieval (SatPix pixels in
// MemoClasses distinct argument classes) as a plain parallel build and
// as a memoizing build whose table is shared by every measured Process.
func CollectMemo(p Params) (*MemoData, error) {
	d := &MemoData{P: p}
	defs := apps.MemoSatDefines(p.SatPix, p.MemoClasses, p.SatBands, p.SatIters)
	// An isolated program cache pins the memoizing Program for the whole
	// collection, so the hit-rate snapshot below reads the very table
	// the measured Processes shared (the global DefaultCache could evict
	// the entry mid-sweep and hand back a fresh, zero-stats Program).
	cache := core.NewProgramCache(8)
	var err error
	d.SeqGCC, err = measureSeq(variant{name: "seq gcc", src: apps.MemoSatSrc, defs: defs,
		init: "initmemo", entry: "run",
		cfg: core.Config{Backend: comp.BackendGCC, Cache: cache}}, p.Reps)
	if err != nil {
		return nil, err
	}
	memoCfg := core.Config{Parallelize: true, Backend: comp.BackendGCC, Memoize: true, Cache: cache}
	memoCfg.Defines = defs
	memoProg, _, _, err := core.BuildProgram(apps.MemoSatSrc, memoCfg)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{name: "pure auto (gcc)", src: apps.MemoSatSrc, defs: defs,
			init: "initmemo", entry: "run",
			cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC, Cache: cache}},
		{name: "pure auto + memo (gcc)", src: apps.MemoSatSrc, defs: defs,
			init: "initmemo", entry: "run",
			cfg: memoCfg},
	}
	for _, v := range variants {
		s, err := measure(v, p.Cores, p.Reps)
		if err != nil {
			return nil, err
		}
		d.Series = append(d.Series, s)
	}
	// Every measured Process of the memoizing variant came from
	// memoProg (same cache, same key) and shared its table.
	d.HitRate = memoProg.MemoStats().HitRate()
	return d, nil
}

// FigMemo renders the memoization scenario times. It extends the
// paper's evaluation (no memoization there): the point is the
// hit-rate-driven drop of the memoizing curve once each argument class
// has been computed once.
func (d *MemoData) FigMemo() *Figure {
	return &Figure{
		ID: "Fig M1",
		Title: fmt.Sprintf("memoized AOD retrieval, execution time (%d pixels, %d classes, %d bands)",
			d.P.SatPix, d.P.MemoClasses, d.P.SatBands),
		Kind: "time", Cores: sortedCores(d.P.Cores),
		Series: d.Series, Baseline: d.SeqGCC, BaseName: "gcc -O2 analog",
		Notes: []string{
			"pure calls are referentially transparent, so memoized results are bit-identical",
			fmt.Sprintf("shared memo table across all measured Processes: %.1f%% hit rate", 100*d.HitRate),
		},
	}
}

// FigMemoSpeedup derives the memoization speedup view.
func (d *MemoData) FigMemoSpeedup() *Figure {
	return d.FigMemo().Speedup("Fig M2", "memoized AOD retrieval, speedup vs sequential GCC")
}

// ReduceData carries the reduction scenario (Fig. R1): the README
// quickstart sum and the extracted dot kernel, each measured as a
// sequential build and as a parallel-reduction build, plus real-team
// (wall-clock goroutine) scaling points of both kernels.
type ReduceData struct {
	P       Params
	SumSeq  float64
	DotSeq  float64
	Sum     Series
	Dot     Series
	SumReal Series
	DotReal Series
}

// CollectReduction measures serial vs parallel-reduction builds of the
// two kernels. The kernels are chosen so the new reduction runtime is
// the only parallelism: the quickstart sum reduces at the top level of
// run(), and the dot kernel calls the extracted pure dot exactly once.
// The real-team rows rerun both kernels on actual goroutine teams over
// P.RealCores — wall clock, no simulation — so the figure carries a
// ground-truth scaling point next to the simulated curves.
func CollectReduction(p Params) (*ReduceData, error) {
	d := &ReduceData{P: p}
	defs := apps.ReduceDefines(p.ReduceN)
	var err error
	d.SumSeq, err = measureSeq(variant{name: "sum seq gcc", src: apps.ReduceSumSrc, defs: defs,
		entry: "run",
		cfg:   core.Config{Backend: comp.BackendGCC}}, p.Reps)
	if err != nil {
		return nil, err
	}
	d.DotSeq, err = measureSeq(variant{name: "dot seq gcc", src: apps.ReduceDotSrc, defs: defs,
		init: "initvec", entry: "run",
		cfg: core.Config{Backend: comp.BackendGCC}}, p.Reps)
	if err != nil {
		return nil, err
	}
	sumVar := variant{name: "sum reduction (gcc)", src: apps.ReduceSumSrc, defs: defs,
		entry: "run",
		cfg:   core.Config{Parallelize: true, Backend: comp.BackendGCC}}
	dotVar := variant{name: "dot reduction (gcc)", src: apps.ReduceDotSrc, defs: defs,
		init: "initvec", entry: "run",
		cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC}}
	d.Sum, err = measure(sumVar, p.Cores, p.Reps)
	if err != nil {
		return nil, err
	}
	d.Dot, err = measure(dotVar, p.Cores, p.Reps)
	if err != nil {
		return nil, err
	}
	sumVar.name, sumVar.real = "sum reduction real (gcc)", true
	d.SumReal, err = measure(sumVar, p.RealCores, p.Reps)
	if err != nil {
		return nil, err
	}
	dotVar.name, dotVar.real = "dot reduction real (gcc)", true
	d.DotReal, err = measure(dotVar, p.RealCores, p.Reps)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// FigR1 renders the serial-vs-reduction speedups: each kernel's curve
// is normalized to its own sequential baseline.
func (d *ReduceData) FigR1() *Figure {
	f := &Figure{
		ID:    "Fig R1",
		Title: fmt.Sprintf("parallel scalar reductions, speedup vs sequential GCC (N=%d)", d.P.ReduceN),
		Kind:  "speedup", Cores: sortedCores(d.P.Cores),
		Notes: []string{
			fmt.Sprintf("sequential baselines: sum %.4f s, dot %.4f s", d.SumSeq, d.DotSeq),
			"the quickstart loop (s += square(i)) compiles to #pragma omp parallel for reduction(+:s)",
			"integer sums are bit-identical at every team size; float dot follows the fixed-combine-order determinism contract",
			"the sum loop is the integer-sum kernel in the sequential build and, chunk by chunk, in the reduction build, so its curve starts at 1 and shows the reduction runtime alone",
			"the dot curve's speedup above the core count reflects the execution model: GCC does not vectorize the float reduction, so parallel chunks iterate natively while the sequential baseline pays the interpreted loop head per iteration (same effect as the other figures' 1-core points)",
			"the real rows run actual goroutine teams in wall clock (no simulation); their axis stays within a laptop's physical cores",
		},
	}
	for _, pair := range []struct {
		s    Series
		base float64
	}{{d.Sum, d.SumSeq}, {d.Dot, d.DotSeq}, {d.SumReal, d.SumSeq}, {d.DotReal, d.DotSeq}} {
		ns := Series{Name: pair.s.Name, Times: map[int]float64{}, Real: pair.s.Real}
		for c, t := range pair.s.Times {
			if t > 0 && pair.base > 0 {
				ns.Times[c] = pair.base / t
			}
		}
		f.Series = append(f.Series, ns)
	}
	return f
}

// HistData carries the array-reduction scenario (Fig A1): the
// bin-count workload measured serially and as a privatized parallel
// reduction, per bin count.
type HistData struct {
	P Params
	// Seq maps bin count to the sequential baseline seconds.
	Seq map[int]float64
	// Par holds one privatized-reduction curve per bin count, in
	// P.HistBins order.
	Par []Series
	// Real is the real-team (wall-clock goroutine) curve at the first
	// bin count, over P.RealCores.
	Real Series
}

// CollectHistogram measures the bin-count workload across the bin
// sweep: for each bin count, a sequential build and a parallel build
// whose hot loop runs through reduction(+:hist[]) — per-worker private
// copies plus a worker-ordered element-wise combine. The combine and
// the private-copy allocation are O(bins · active workers) on the
// simulated critical path, so large bin counts show the privatization
// overhead overtaking the parallel win.
func CollectHistogram(p Params) (*HistData, error) {
	d := &HistData{P: p, Seq: map[int]float64{}}
	for _, bins := range p.HistBins {
		defs := apps.HistogramDefines(p.HistN, bins)
		seq, err := measureSeq(variant{
			name: fmt.Sprintf("hist seq (%d bins)", bins), src: apps.HistogramSrc, defs: defs,
			init: "initdata", entry: "run",
			cfg: core.Config{Backend: comp.BackendGCC}}, p.Reps)
		if err != nil {
			return nil, err
		}
		d.Seq[bins] = seq
		s, err := measure(variant{
			name: fmt.Sprintf("hist[] reduction (%d bins)", bins), src: apps.HistogramSrc, defs: defs,
			init: "initdata", entry: "run",
			cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC}}, p.Cores, p.Reps)
		if err != nil {
			return nil, err
		}
		d.Par = append(d.Par, s)
	}
	// Ground-truth scaling: the first bin count rerun on actual
	// goroutine teams in wall clock over the small real-core axis.
	if len(p.HistBins) > 0 {
		bins := p.HistBins[0]
		var err error
		d.Real, err = measure(variant{
			name: fmt.Sprintf("hist[] reduction real (%d bins)", bins), src: apps.HistogramSrc,
			defs: apps.HistogramDefines(p.HistN, bins),
			init: "initdata", entry: "run", real: true,
			cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC}}, p.RealCores, p.Reps)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// FigA1 renders the privatized-vs-serial speedups, one curve per bin
// count, each normalized to its own sequential baseline.
func (d *HistData) FigA1() *Figure {
	f := &Figure{
		ID:    "Fig A1",
		Title: fmt.Sprintf("array reduction (hist[data[i]]++), speedup vs sequential GCC (N=%d)", d.P.HistN),
		Kind:  "speedup", Cores: sortedCores(d.P.Cores),
		Notes: []string{
			"the hot loop compiles to #pragma omp parallel for reduction(+:hist[]): per-worker private copies, worker-ordered element-wise combine",
			"integer array reductions are bit-identical to serial at every team size and schedule",
			"the combine pass is O(bins x active workers) on the critical path: large bin counts with many workers pay more in combine than they win in parallel updates",
		},
	}
	for i, bins := range d.P.HistBins {
		base := d.Seq[bins]
		ns := Series{Name: d.Par[i].Name, Times: map[int]float64{}}
		for c, t := range d.Par[i].Times {
			if t > 0 && base > 0 {
				ns.Times[c] = base / t
			}
		}
		f.Series = append(f.Series, ns)
	}
	if len(d.P.HistBins) > 0 && d.Real.Times != nil {
		base := d.Seq[d.P.HistBins[0]]
		ns := Series{Name: d.Real.Name, Times: map[int]float64{}, Real: true}
		for c, t := range d.Real.Times {
			if t > 0 && base > 0 {
				ns.Times[c] = base / t
			}
		}
		f.Series = append(f.Series, ns)
		f.Notes = append(f.Notes, "the real row runs actual goroutine teams in wall clock (no simulation)")
	}
	for _, bins := range sortedCores(append([]int{}, d.P.HistBins...)) {
		f.Notes = append(f.Notes, fmt.Sprintf("sequential baseline at %d bins: %.4f s", bins, d.Seq[bins]))
	}
	return f
}

// TapeResult is one Fig T1 workload: the same program measured on the
// closure engine and the tape engine with fusion off (pure dispatch
// cost), plus the default fused build as the reference point.
type TapeResult struct {
	Name    string
	Closure float64 // seconds, EngineClosure + NoFuse
	Tape    float64 // seconds, EngineTape + NoFuse
	Fused   float64 // seconds, default build (tape engine, fusion on)
}

// Speedup is the closure/tape throughput ratio on the unfused builds.
func (r TapeResult) Speedup() float64 {
	if r.Tape <= 0 {
		return 0
	}
	return r.Closure / r.Tape
}

// TapeData carries the statement-engine A/B measurements (Fig T1).
type TapeData struct {
	P         Params
	Workloads []TapeResult
}

// CollectTape measures the Fig T1 workloads — the element-wise
// kernels axpy, copy and a 1-D stencil plus the deliberately non-canonical branchy body — on both
// statement engines with fusion disabled, isolating exactly the
// dispatch cost the tape removes, and on the default fused build for
// scale. Results are bit-identical across all three builds by the
// engine contract; the non-canonical body never fuses, so its fused
// column equals tape dispatch and the tape is the only win available
// to it.
func CollectTape(p Params) (*TapeData, error) {
	d := &TapeData{P: p}
	kd := apps.KernDefines(p.KernN, p.KernReps)
	workloads := []struct {
		name string
		src  string
	}{
		{"axpy", apps.AxpySrc},
		{"copy", apps.CopySrc},
		{"stencil", apps.StencilSrc},
		{"noncanon", apps.NoncanonSrc},
	}
	for _, w := range workloads {
		r := TapeResult{Name: w.name}
		var err error
		r.Closure, err = measureSeq(variant{
			name: w.name + " closure", src: w.src, defs: kd,
			init: "initvec", entry: "run",
			cfg: core.Config{NoFuse: true, Engine: comp.EngineClosure},
		}, p.Reps)
		if err != nil {
			return nil, err
		}
		r.Tape, err = measureSeq(variant{
			name: w.name + " tape", src: w.src, defs: kd,
			init: "initvec", entry: "run",
			cfg: core.Config{NoFuse: true, Engine: comp.EngineTape},
		}, p.Reps)
		if err != nil {
			return nil, err
		}
		r.Fused, err = measureSeq(variant{
			name: w.name + " fused", src: w.src, defs: kd,
			init: "initvec", entry: "run",
			cfg: core.Config{},
		}, p.Reps)
		if err != nil {
			return nil, err
		}
		d.Workloads = append(d.Workloads, r)
	}
	return d, nil
}

// FigT1 renders the closure-vs-tape-vs-fused table.
func (d *TapeData) FigT1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig T1 — statement engines: closure dispatch vs linearized tape (N=%d, %d sweeps)\n",
		d.P.KernN, d.P.KernReps)
	b.WriteString("[seconds per run, fusion off in the closure and tape columns; speedup = closure/tape]\n")
	fmt.Fprintf(&b, "%-12s%14s%14s%14s%10s\n", "workload", "closure", "tape", "fused", "speedup")
	for _, r := range d.Workloads {
		fmt.Fprintf(&b, "%-12s%14.4f%14.4f%14.4f%9.1fx\n", r.Name, r.Closure, r.Tape, r.Fused, r.Speedup())
	}
	b.WriteString("note: all three builds produce bit-identical outputs (engine contract)\n")
	b.WriteString("note: the non-canonical branchy body cannot fuse — the tape engine is its only dispatch win\n")
	return b.String()
}

// BCEResult is one Fig B1 check-elision A/B: the same build measured
// with every runtime check kept (NoBCE) and with the proven checks
// elided (default).
type BCEResult struct {
	Name     string
	Checked  float64 // seconds, NoBCE build
	Elided   float64 // seconds, default build
	Elisions int     // checks the default build discharged at compile time
}

// Speedup is the checked/elided throughput ratio.
func (r BCEResult) Speedup() float64 {
	if r.Elided <= 0 {
		return 0
	}
	return r.Checked / r.Elided
}

// BCEData carries the bounds-check-elimination measurements (Fig B1):
// the per-check A/Bs plus the gather-parallelization scenario.
type BCEData struct {
	P       Params
	Kernels []BCEResult
	// GatherSerial is the opaque-index gather build (unprovable, so
	// checked and force-serialized) measured sequentially; GatherPar is
	// the proven build across the core axis. Their ratio is the
	// combined win of elision plus parallelization.
	GatherSerial float64
	GatherPar    Series
}

// CollectBCE measures the Fig B1 workloads. The launch-visibility rows
// (axpy on both statement engines, the 1-D stencil) run a tiny vector
// many times so the one hoisted range check per operand per launch —
// exactly what the bounds proofs elide — is a measurable share of the
// run. The gather rows run at full length: its per-element bounds test
// scales with N, and the proven build both elides it and parallelizes
// the nest while the opaque build keeps the checked serial loop.
func CollectBCE(p Params) (*BCEData, error) {
	d := &BCEData{P: p}
	bd := apps.KernDefines(p.BCEN, p.BCEReps)
	gd := apps.GatherDefines(p.KernN, p.GatherM, p.KernReps)
	// The relational rows (PR 8) run at gather length: their proofs come
	// from the relational layer — the derived subscript through the
	// affine relation (it needs the parallelizer's forward substitution
	// to fuse), the clamped gather through path-sensitive refinement,
	// and the pointer loop through the points-to resolution.
	rd := apps.RelationalDefines(p.KernN, p.KernN+16, 16, p.KernReps)
	workloads := []struct {
		name string
		src  string
		defs map[string]string
		cfg  core.Config
	}{
		{"axpy (closure)", apps.AxpySrc, bd, core.Config{Engine: comp.EngineClosure}},
		{"axpy (tape)", apps.AxpySrc, bd, core.Config{Engine: comp.EngineTape}},
		{"stencil", apps.StencilSrc, bd, core.Config{}},
		{"gather", apps.GatherSrc, gd, core.Config{}},
		{"derived", apps.DerivedSrc, rd, core.Config{Parallelize: true}},
		{"gather (clamp)", apps.ClampGatherSrc, rd, core.Config{}},
		{"ptr-scale", apps.PtrScaleSrc, rd, core.Config{}},
	}
	for _, w := range workloads {
		r := BCEResult{Name: w.name}
		checkedCfg := w.cfg
		checkedCfg.NoBCE = true
		var err error
		r.Checked, err = measureSeq(variant{
			name: w.name + " checked", src: w.src, defs: w.defs,
			init: initOf(w.src), entry: "run", cfg: checkedCfg,
		}, p.Reps)
		if err != nil {
			return nil, err
		}
		r.Elided, err = measureSeq(variant{
			name: w.name + " elided", src: w.src, defs: w.defs,
			init: initOf(w.src), entry: "run", cfg: w.cfg,
		}, p.Reps)
		if err != nil {
			return nil, err
		}
		// The measured build came through the program cache; rebuilding
		// with the same key reads its compile-time elision counter.
		cfg := w.cfg
		cfg.Defines = w.defs
		prog, _, _, err := core.BuildProgram(w.src, cfg)
		if err != nil {
			return nil, err
		}
		r.Elisions = prog.ElidedChecks()
		d.Kernels = append(d.Kernels, r)
	}

	var err error
	d.GatherSerial, err = measureSeq(variant{
		name: "gather opaque", src: apps.GatherOpaqueSrc, defs: gd,
		init: "initgather", entry: "run",
		cfg: core.Config{Parallelize: true}}, p.Reps)
	if err != nil {
		return nil, err
	}
	d.GatherPar, err = measure(variant{
		name: "gather proven (parallel)", src: apps.GatherSrc, defs: gd,
		init: "initgather", entry: "run",
		cfg: core.Config{Parallelize: true}}, p.Cores, p.Reps)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// initOf maps a Fig B1 source to its init entry point.
func initOf(src string) string {
	switch src {
	case apps.GatherSrc, apps.GatherOpaqueSrc:
		return "initgather"
	case apps.DerivedSrc, apps.ClampGatherSrc, apps.PtrScaleSrc:
		return "initrel"
	}
	return "initvec"
}

// FigB1 renders the check-elision table plus the gather scenario.
func (d *BCEData) FigB1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig B1 — bounds-check elimination: checked vs proven builds (launch rows N=%d, %d sweeps; gather N=%d from %d, %d sweeps)\n",
		d.P.BCEN, d.P.BCEReps, d.P.KernN, d.P.GatherM, d.P.KernReps)
	b.WriteString("[seconds per run; speedup = checked/elided; elisions = checks discharged at compile time]\n")
	fmt.Fprintf(&b, "%-16s%14s%14s%10s%10s\n", "workload", "checked", "elided", "speedup", "elisions")
	for _, r := range d.Kernels {
		fmt.Fprintf(&b, "%-16s%14.4f%14.4f%9.2fx%10d\n", r.Name, r.Checked, r.Elided, r.Speedup(), r.Elisions)
	}
	b.WriteString("\ngather parallelization: proven index contents vs opaque (serialized, checked)\n")
	fmt.Fprintf(&b, "opaque serial baseline: %.4f s\n", d.GatherSerial)
	fmt.Fprintf(&b, "%-26s%10s%10s\n", "cores", "seconds", "speedup")
	for _, c := range sortedCores(d.P.Cores) {
		t, ok := d.GatherPar.Times[c]
		if !ok {
			continue
		}
		sp := 0.0
		if t > 0 && d.GatherSerial > 0 {
			sp = d.GatherSerial / t
		}
		fmt.Fprintf(&b, "%-26d%10.4f%9.2fx\n", c, t, sp)
	}
	b.WriteString("note: checked and elided builds are bit-identical — the proofs only remove checks that can never fire\n")
	b.WriteString("note: the opaque build keeps the per-element test and is force-serialized for trap-order parity\n")
	return b.String()
}

// LamaData carries the ELL SpMV measurements (Figs. 10 and 11).
type LamaData struct {
	P      Params
	SeqGCC float64
	Series []Series
}

// CollectLama measures the ELL SpMV variants.
func CollectLama(p Params) (*LamaData, error) {
	d := &LamaData{P: p}
	defs := apps.LamaDefines(p.LamaRows, p.LamaNNZ)
	var err error
	d.SeqGCC, err = measureSeq(variant{name: "seq gcc", src: apps.LamaSrc, defs: defs,
		init: "initell", entry: "run",
		cfg: core.Config{Backend: comp.BackendGCC}}, p.Reps)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{name: "pure auto (gcc)", src: apps.LamaSrc, defs: defs,
			init: "initell", entry: "run",
			cfg: core.Config{Parallelize: true, Backend: comp.BackendGCC}},
		{name: "pure auto (icc)", src: apps.LamaSrc, defs: defs,
			init: "initell", entry: "run",
			cfg: core.Config{Parallelize: true, Backend: comp.BackendICC}},
		{name: "manual static (gcc)", src: apps.LamaManualSrc, defs: defs,
			init: "initell", entry: "run",
			cfg: core.Config{Backend: comp.BackendGCC}},
		{name: "manual static (icc)", src: apps.LamaManualSrc, defs: defs,
			init: "initell", entry: "run",
			cfg: core.Config{Backend: comp.BackendICC, Vectorize: true}},
	}
	for _, v := range variants {
		s, err := measure(v, p.Cores, p.Reps)
		if err != nil {
			return nil, err
		}
		d.Series = append(d.Series, s)
	}
	return d, nil
}

// Fig10 renders the LAMA execution times (paper Fig. 10).
func (d *LamaData) Fig10() *Figure {
	return &Figure{
		ID:    "Fig 10",
		Title: fmt.Sprintf("LAMA ELL sparse matrix-vector multiplication, execution time (%d rows, %d nnz/row)", d.P.LamaRows, d.P.LamaNNZ),
		Kind:  "time", Cores: sortedCores(d.P.Cores),
		Series: d.Series, Baseline: d.SeqGCC, BaseName: "gcc -O2 analog",
		Notes: []string{
			"indirect addressing: classic polyhedral tools cannot parallelize this code at all",
			"the hand-written kernel avoids the per-row pure call and stays slightly ahead",
		},
	}
}

// Fig11 renders the LAMA speedups (paper Fig. 11).
func (d *LamaData) Fig11() *Figure {
	return d.Fig10().Speedup("Fig 11", "LAMA ELL SpMV, speedup vs sequential GCC")
}

// Fig2 demonstrates the tiling legality example of the paper's Fig. 2:
// the dependence set {(1,0),(0,1),(1,-1)} forbids rectangular tiling
// until the nest is sheared by one, after which all distances are
// non-negative and the green tiling of the figure becomes legal.
func Fig2() string {
	n := &poly.Nest{Iters: []string{"i", "j"}}
	s := poly.NewSystem()
	s.AddLowerBound("i", poly.NewAffine(1))
	s.AddUpperBound("i", poly.NewAffine(14))
	s.AddLowerBound("j", poly.NewAffine(1))
	s.AddUpperBound("j", poly.NewAffine(14))
	n.Domain = s
	st := &poly.Statement{ID: 0}
	st.Writes = []poly.Access{{Array: "A", Write: true, Subs: []poly.Affine{poly.Var("i"), poly.Var("j")}}}
	st.Reads = []poly.Access{
		{Array: "A", Subs: []poly.Affine{poly.Var("i").Sub(poly.NewAffine(1)), poly.Var("j")}},
		{Array: "A", Subs: []poly.Affine{poly.Var("i"), poly.Var("j").Sub(poly.NewAffine(1))}},
		{Array: "A", Subs: []poly.Affine{poly.Var("i").Sub(poly.NewAffine(1)), poly.Var("j").Add(poly.NewAffine(1))}},
	}
	n.Stmts = []*poly.Statement{st}

	var b strings.Builder
	b.WriteString("Fig 2 — iteration-space dependences and tiling legality\n")
	deps := poly.AnalyzeDeps(n)
	b.WriteString("dependences before shearing:\n")
	for _, d := range deps {
		fmt.Fprintf(&b, "  %v\n", d)
	}
	fmt.Fprintf(&b, "rectangular tiling legal: %v (the red tiling of Fig. 2, left)\n", poly.Permutable(n, deps))
	f, ok := poly.LegalSkew(deps, 0)
	fmt.Fprintf(&b, "legal shearing factor: %d (ok=%v)\n", f, ok)
	skewed := poly.ApplySkew(n, 0, f)
	sdeps := poly.AnalyzeDeps(skewed)
	b.WriteString("dependences after j' = j + i shearing:\n")
	for _, d := range sdeps {
		fmt.Fprintf(&b, "  %v\n", d)
	}
	fmt.Fprintf(&b, "rectangular tiling legal: %v (the green tiling of Fig. 2, right)\n", poly.Permutable(skewed, sdeps))
	return b.String()
}
