package comp_test

import (
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/core"
)

// tapeSizeCeiling holds, per apps.Corpus() program, the tape
// instruction count each build had when instruction selection was a
// peephole pass over finished tapes (5 386 in all): {seq/gcc, seq/icc,
// par/gcc, par/icc}. Selecting as the tape is emitted must never make a
// build longer.
var tapeSizeCeiling = map[string][4]int{
	"matmul":           {84, 80, 89, 83},
	"matmul-noinitpar": {85, 81, 89, 83},
	"matmul-inlined":   {84, 84, 91, 91},
	"matmul-kern":      {81, 79, 86, 82},
	"heat":             {91, 91, 90, 90},
	"heat-inlined":     {78, 78, 77, 77},
	"satellite":        {134, 132, 137, 133},
	"memosat":          {79, 79, 80, 80},
	"lama":             {81, 76, 82, 77},
	"lama-manual":      {73, 73, 74, 74},
	"reduce-sum":       {15, 15, 13, 13},
	"reduce-dot":       {46, 42, 47, 41},
	"axpy":             {38, 38, 38, 38},
	"copy":             {32, 32, 32, 32},
	"stencil":          {38, 38, 38, 38},
	"noncanon":         {39, 39, 40, 40},
	"histogram":        {37, 37, 33, 33},
	"sparsehist":       {39, 39, 31, 31},
	"gather":           {35, 35, 33, 33},
	"gather-opaque":    {38, 38, 38, 38},
	"derived":          {22, 22, 25, 25},
	"clamp-gather":     {42, 42, 43, 43},
	"ptr-scale":        {30, 30, 30, 30},
	"aliased-pair":     {30, 30, 32, 32},
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
	t.Logf("corpus total: %d tape instructions (ceiling 5386)", total)
}
