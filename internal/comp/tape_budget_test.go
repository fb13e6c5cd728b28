//go:build !race

// The budget reads heap byte counters, which the race detector inflates
// and its randomized sync.Pool skews; the scratch tests in
// tape_scratch_test.go are the ones to run under -race.

package comp_test

import (
	"runtime"
	"testing"

	"purec/internal/comp"
	"purec/internal/core"
)

// TestTapeCompileBudget holds the tape compile to the closure compile's
// allocation, the condition for tape being the default engine: over
// apps.Corpus(), tape bytes per compile are at most 1.10× closure's.
func TestTapeCompileBudget(t *testing.T) {
	const reps = 20
	arts := corpusArtifacts(t)
	perCompile := func(eng comp.Engine) uint64 {
		cfg := core.Config{Parallelize: true, Engine: eng}
		compileAll := func() {
			for _, art := range arts {
				if _, err := art.Compile(cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		compileAll() // warm-up: the first tape compile fills the scratch pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			compileAll()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	closure, tape := perCompile(comp.EngineClosure), perCompile(comp.EngineTape)
	t.Logf("corpus compile: closure %d B, tape %d B (%.2fx)", closure, tape, float64(tape)/float64(closure))
	if float64(tape) > 1.10*float64(closure) {
		t.Errorf("tape compile allocates %d B per corpus, over 1.10x closure's %d B", tape, closure)
	}
}
