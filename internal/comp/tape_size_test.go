package comp_test

import (
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/core"
)

// tapeSizeCeiling holds, per apps.Corpus() program, the tape
// instruction count each build had when instruction selection was a
// peephole pass over finished tapes (5 386 in all), plus the
// instructions of the dispatch bodies its fused loops carry since a
// kernel stops instead of trapping (552 in all): {seq/gcc, seq/icc,
// par/gcc, par/icc}. Selecting as the tape is emitted must never make a
// build longer. With float32 roundings folded into the ops that make
// the values, register-bound loop tails fused, a kernel's launch code
// reduced to its bounds and leaf calls compiled over their arguments'
// operands, the corpus totals 4 790 instructions.
var tapeSizeCeiling = map[string][4]int{
	"matmul":           {84, 86, 89, 89},
	"matmul-noinitpar": {85, 87, 89, 89},
	"matmul-inlined":   {87, 87, 94, 94},
	"matmul-kern":      {81, 83, 86, 86},
	"heat":             {114, 114, 113, 113},
	"heat-inlined":     {100, 100, 99, 99},
	"satellite":        {134, 136, 137, 137},
	"memosat":          {79, 79, 80, 80},
	"lama":             {81, 85, 82, 86},
	"lama-manual":      {73, 73, 74, 74},
	"reduce-sum":       {19, 19, 17, 17},
	"reduce-dot":       {46, 48, 47, 47},
	"axpy":             {42, 42, 42, 42},
	"copy":             {34, 34, 34, 34},
	"stencil":          {47, 47, 47, 47},
	"noncanon":         {39, 39, 40, 40},
	"histogram":        {49, 49, 45, 45},
	"sparsehist":       {53, 53, 45, 45},
	"gather":           {42, 42, 40, 40},
	"gather-opaque":    {46, 46, 46, 46},
	"derived":          {22, 22, 28, 28},
	"clamp-gather":     {45, 45, 46, 46},
	"ptr-scale":        {34, 34, 34, 34},
	"aliased-pair":     {34, 34, 36, 36},
}

// TestTapeSizeCeiling compiles every corpus program sequential and
// parallel under both backends and holds each build's
// Program.TapeStats() instruction count to its ceiling.
func TestTapeSizeCeiling(t *testing.T) {
	total := 0
	for _, s := range apps.Corpus() {
		ceil, ok := tapeSizeCeiling[s.Name]
		if !ok {
			t.Errorf("%s: no ceiling recorded", s.Name)
			continue
		}
		for i, par := range []bool{false, true} {
			art, err := core.Front(s.Src, core.Config{Parallelize: par, Defines: s.Defines})
			if err != nil {
				t.Fatal(err)
			}
			for j, be := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
				prog, err := art.Compile(core.Config{Parallelize: par, Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				n, _, _ := prog.TapeStats()
				total += n
				if max := ceil[2*i+j]; n > max {
					t.Errorf("%s par=%v backend=%v: %d tape instructions, ceiling %d", s.Name, par, be, n, max)
				}
			}
		}
	}
	t.Logf("corpus total: %d tape instructions (ceiling 5938)", total)
}

// TestHotLoopInstructionCounts pins the instructions one iteration of
// the hot loop of three corpus applications dispatches on the tape
// (parallel build, GCC backend, where none of them fuses a kernel):
// matmul's dot body (Listing 7), the err loop of the satellite
// retrieval and the ELL row loop of lama. Each float32 rounding rides
// on the op that made the value, and each loop tail is one
// increment-compare-branch.
func TestHotLoopInstructionCounts(t *testing.T) {
	for _, c := range []struct {
		prog, fn string
		loop     int // index into comp.LoopLengths
		want     int
	}{
		{"matmul", "dot", 0, 4}, // load, load, rounded product, rounded sum
		{"satellite", "retrieve", 1, 10},
		{"lama", "ellrow", 0, 9},
	} {
		var src apps.Sample
		for _, s := range apps.Corpus() {
			if s.Name == c.prog {
				src = s
			}
		}
		cfg := core.Config{Parallelize: true, Defines: src.Defines, Backend: comp.BackendGCC}
		art, err := core.Front(src.Src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := art.Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prog.FusedKernels() != 0 {
			t.Fatalf("%s fused %d kernels; its loops are meant to run on the tape", c.prog, prog.FusedKernels())
		}
		n := comp.LoopLengths(prog, c.fn)
		if c.loop >= len(n) || n[c.loop] != c.want {
			t.Errorf("%s %s: loop instruction counts %v, want loop %d at %d", c.prog, c.fn, n, c.loop, c.want)
		}
	}
}
