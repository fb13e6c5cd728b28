package core

import (
	"fmt"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
)

// matchedBuilds are the compile configurations the matched-set tests
// sweep: the two backends plus GCC with -vectorize (ICC fuses reduction
// loops in pure functions, Vectorize everywhere).
var matchedBuilds = []struct {
	name      string
	backend   comp.Backend
	vectorize bool
}{
	{"gcc", comp.BackendGCC, false},
	{"icc", comp.BackendICC, false},
	{"gcc+vec", comp.BackendGCC, true},
}

// matchedFused compiles one corpus sample under one build and returns
// Program.FusedKernels().
func matchedFused(t *testing.T, s apps.Sample, build int, par bool) int {
	t.Helper()
	b := matchedBuilds[build]
	cfg := Config{Parallelize: par, Defines: s.Defines, Backend: b.backend, Vectorize: b.vectorize}
	art, err := Front(s.Src, cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", s.Name, b.name, err)
	}
	prog, err := art.Compile(cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", s.Name, b.name, err)
	}
	return prog.FusedKernels()
}

// TestMatchedSetGolden pins which loops comp fuses: FusedKernels() for
// every corpus source × build × parallel/sequential. The table was recorded at the commit before
// the five kernel families moved behind one matcher and differs from
// that recording only in the cells CHANGES.md lists.
// To re-record after a change that is meant to move the matched set,
// run
//
//	go test ./internal/core -run TestMatchedSetGolden
//
// and paste the rows the failure messages print.
func TestMatchedSetGolden(t *testing.T) {
	for _, s := range apps.Corpus() {
		for bi, b := range matchedBuilds {
			for _, par := range []bool{true, false} {
				mode := "seq"
				if par {
					mode = "par"
				}
				key := s.Name + "/" + b.name + "/" + mode
				want, ok := matchedGolden[key]
				if got := matchedFused(t, s, bi, par); !ok || got != want {
					t.Errorf("%-30s %d,", fmt.Sprintf("%q:", key), got)
				}
			}
		}
	}
}

// matchedGolden maps source/build/mode to its fused kernels.
var matchedGolden = map[string]int{
	"matmul/gcc/par":               0,
	"matmul/gcc/seq":               0,
	"matmul/icc/par":               1,
	"matmul/icc/seq":               1,
	"matmul/gcc+vec/par":           1,
	"matmul/gcc+vec/seq":           1,
	"matmul-noinitpar/gcc/par":     0,
	"matmul-noinitpar/gcc/seq":     0,
	"matmul-noinitpar/icc/par":     1,
	"matmul-noinitpar/icc/seq":     1,
	"matmul-noinitpar/gcc+vec/par": 1,
	"matmul-noinitpar/gcc+vec/seq": 1,
	"matmul-inlined/gcc/par":       1,
	"matmul-inlined/gcc/seq":       1,
	"matmul-inlined/icc/par":       1,
	"matmul-inlined/icc/seq":       1,
	"matmul-inlined/gcc+vec/par":   2,
	"matmul-inlined/gcc+vec/seq":   2,
	"matmul-kern/gcc/par":          0,
	"matmul-kern/gcc/seq":          0,
	"matmul-kern/icc/par":          1,
	"matmul-kern/icc/seq":          1,
	"matmul-kern/gcc+vec/par":      1,
	"matmul-kern/gcc+vec/seq":      1,
	"heat/gcc/par":                 2,
	"heat/gcc/seq":                 2,
	"heat/icc/par":                 2,
	"heat/icc/seq":                 2,
	"heat/gcc+vec/par":             2,
	"heat/gcc+vec/seq":             2,
	"heat-inlined/gcc/par":         2,
	"heat-inlined/gcc/seq":         2,
	"heat-inlined/icc/par":         2,
	"heat-inlined/icc/seq":         2,
	"heat-inlined/gcc+vec/par":     2,
	"heat-inlined/gcc+vec/seq":     2,
	"satellite/gcc/par":            0,
	"satellite/gcc/seq":            0,
	"satellite/icc/par":            1,
	"satellite/icc/seq":            1,
	"satellite/gcc+vec/par":        1,
	"satellite/gcc+vec/seq":        1,
	"memosat/gcc/par":              0,
	"memosat/gcc/seq":              0,
	"memosat/icc/par":              0,
	"memosat/icc/seq":              0,
	"memosat/gcc+vec/par":          0,
	"memosat/gcc+vec/seq":          0,
	"lama/gcc/par":                 0,
	"lama/gcc/seq":                 0,
	"lama/icc/par":                 1,
	"lama/icc/seq":                 1,
	"lama/gcc+vec/par":             1,
	"lama/gcc+vec/seq":             1,
	"lama-manual/gcc/par":          0,
	"lama-manual/gcc/seq":          0,
	"lama-manual/icc/par":          0,
	"lama-manual/icc/seq":          0,
	"lama-manual/gcc+vec/par":      1,
	"lama-manual/gcc+vec/seq":      1,
	"reduce-sum/gcc/par":           1,
	"reduce-sum/gcc/seq":           1,
	"reduce-sum/icc/par":           1,
	"reduce-sum/icc/seq":           1,
	"reduce-sum/gcc+vec/par":       1,
	"reduce-sum/gcc+vec/seq":       1,
	"reduce-dot/gcc/par":           0,
	"reduce-dot/gcc/seq":           0,
	"reduce-dot/icc/par":           1,
	"reduce-dot/icc/seq":           1,
	"reduce-dot/gcc+vec/par":       1,
	"reduce-dot/gcc+vec/seq":       1,
	"axpy/gcc/par":                 1,
	"axpy/gcc/seq":                 1,
	"axpy/icc/par":                 1,
	"axpy/icc/seq":                 1,
	"axpy/gcc+vec/par":             1,
	"axpy/gcc+vec/seq":             1,
	"copy/gcc/par":                 1,
	"copy/gcc/seq":                 1,
	"copy/icc/par":                 1,
	"copy/icc/seq":                 1,
	"copy/gcc+vec/par":             1,
	"copy/gcc+vec/seq":             1,
	"stencil/gcc/par":              1,
	"stencil/gcc/seq":              1,
	"stencil/icc/par":              1,
	"stencil/icc/seq":              1,
	"stencil/gcc+vec/par":          1,
	"stencil/gcc+vec/seq":          1,
	"noncanon/gcc/par":             0,
	"noncanon/gcc/seq":             0,
	"noncanon/icc/par":             0,
	"noncanon/icc/seq":             0,
	"noncanon/gcc+vec/par":         0,
	"noncanon/gcc+vec/seq":         0,
	"histogram/gcc/par":            4,
	"histogram/gcc/seq":            4,
	"histogram/icc/par":            4,
	"histogram/icc/seq":            4,
	"histogram/gcc+vec/par":        4,
	"histogram/gcc+vec/seq":        4,
	"sparsehist/gcc/par":           4,
	"sparsehist/gcc/seq":           4,
	"sparsehist/icc/par":           4,
	"sparsehist/icc/seq":           4,
	"sparsehist/gcc+vec/par":       4,
	"sparsehist/gcc+vec/seq":       4,
	"gather/gcc/par":               2,
	"gather/gcc/seq":               2,
	"gather/icc/par":               2,
	"gather/icc/seq":               2,
	"gather/gcc+vec/par":           2,
	"gather/gcc+vec/seq":           2,
	"gather-opaque/gcc/par":        2,
	"gather-opaque/gcc/seq":        2,
	"gather-opaque/icc/par":        2,
	"gather-opaque/icc/seq":        2,
	"gather-opaque/gcc+vec/par":    2,
	"gather-opaque/gcc+vec/seq":    2,
	"derived/gcc/par":              1,
	"derived/gcc/seq":              0,
	"derived/icc/par":              1,
	"derived/icc/seq":              0,
	"derived/gcc+vec/par":          1,
	"derived/gcc+vec/seq":          0,
	"clamp-gather/gcc/par":         2,
	"clamp-gather/gcc/seq":         2,
	"clamp-gather/icc/par":         2,
	"clamp-gather/icc/seq":         2,
	"clamp-gather/gcc+vec/par":     2,
	"clamp-gather/gcc+vec/seq":     2,
	"ptr-scale/gcc/par":            1,
	"ptr-scale/gcc/seq":            1,
	"ptr-scale/icc/par":            1,
	"ptr-scale/icc/seq":            1,
	"ptr-scale/gcc+vec/par":        1,
	"ptr-scale/gcc+vec/seq":        1,
	"aliased-pair/gcc/par":         1,
	"aliased-pair/gcc/seq":         1,
	"aliased-pair/icc/par":         1,
	"aliased-pair/icc/seq":         1,
	"aliased-pair/gcc+vec/par":     1,
	"aliased-pair/gcc+vec/seq":     1,
}
