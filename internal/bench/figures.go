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
	GCC    []Series // PluTo, pure, pure(no-init), MKL
	ICC    []Series // PluTo, pure, MKL
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
			executorNote,
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
		Notes: []string{executorNote},
	}
}

// executorNote explains why Figs. 3–5 show no PluTo-SICA rows and no
// gcc/icc gap: the paper's ICC vectorizes the extracted pure dot
// (Sect. 4.3.1), but the executor runs every bit-identical reduction as
// a fused kernel whichever backend a build names.
const executorNote = "the executor fuses every bit-identical reduction, the dot included, on both backends: PluTo-SICA equals PluTo, and the paper's gcc/icc gap returns as a cost-table input once the figures run on counted time"

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
		{name: "PluTo (gcc)", src: apps.HeatInlinedSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendGCC}},
		{name: "PluTo (icc)", src: apps.HeatInlinedSrc, defs: defs,
			cfg: core.Config{Parallelize: true, Mode: core.ModePluTo, Backend: comp.BackendICC}},
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
			cfg: core.Config{Backend: comp.BackendICC}},
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
