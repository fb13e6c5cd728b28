//go:build !race

// The budget reads heap byte counters, which the race detector inflates
// and its randomized sync.Pool skews; the scratch tests in
// tape_scratch_test.go are the ones to run under -race.

package comp_test

import (
	"runtime"
	"testing"

	"purec/internal/core"
)

// corpusCompileCeiling is the bytes one compile of every apps.Corpus()
// source may allocate: what the tape compile with its closure-tree
// fallback allocated (BenchmarkCompileProgram/gcc, 173 475 B/op).
const corpusCompileCeiling = 173475

// TestTapeCompileBudget holds the compile of apps.Corpus() under a fixed
// allocation ceiling.
func TestTapeCompileBudget(t *testing.T) {
	const reps = 20
	arts := corpusArtifacts(t)
	cfg := core.Config{Parallelize: true}
	compileAll := func() {
		for _, art := range arts {
			if _, err := art.Compile(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	compileAll() // warm-up: the first compile fills the scratch pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		compileAll()
	}
	runtime.ReadMemStats(&after)
	perCompile := (after.TotalAlloc - before.TotalAlloc) / reps
	t.Logf("corpus compile: %d B (ceiling %d B)", perCompile, corpusCompileCeiling)
	if perCompile > corpusCompileCeiling {
		t.Errorf("compile allocates %d B per corpus, over the %d B ceiling", perCompile, corpusCompileCeiling)
	}
}
