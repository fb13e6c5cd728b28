package comp_test

import (
	"sync"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/core"
)

// corpusArtifacts runs the front end over apps.Corpus() once, so the
// tests below exercise parallel regions (nested loop-body tapes).
func corpusArtifacts(t *testing.T) map[string]*core.Artifact {
	t.Helper()
	arts := map[string]*core.Artifact{}
	for _, s := range apps.Corpus() {
		art, err := core.Front(s.Src, core.Config{Parallelize: true, Defines: s.Defines})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		arts[s.Name] = art
	}
	return arts
}

func compileTape(t *testing.T, art *core.Artifact) *comp.Program {
	t.Helper()
	prog, err := art.Compile(core.Config{Parallelize: true})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

type tapeBuild struct {
	dump                  string
	instrs, consts, temps int
}

func buildOf(prog *comp.Program) tapeBuild {
	b := tapeBuild{dump: comp.TapeDump(prog)}
	b.instrs, b.consts, b.temps = prog.TapeStats()
	return b
}

// TestTapeScratchReuse: the tape compile's working memory carries
// nothing from one compile into the next. Each corpus program compiled
// after a different one (forward order, then backward, then the A B A
// pattern) yields the same tapes, constant pools and TapeStats as its
// first compile.
func TestTapeScratchReuse(t *testing.T) {
	arts := corpusArtifacts(t)
	var names []string
	first := map[string]tapeBuild{}
	for _, s := range apps.Corpus() {
		names = append(names, s.Name)
		first[s.Name] = buildOf(compileTape(t, arts[s.Name]))
		if first[s.Name].instrs == 0 {
			t.Fatalf("%s: no tape instructions", s.Name)
		}
	}
	check := func(name string) {
		t.Helper()
		if got := buildOf(compileTape(t, arts[name])); got != first[name] {
			t.Errorf("%s: recompile differs from its first compile:\n%+v\nwant\n%+v", name, got, first[name])
		}
	}
	for i := len(names) - 1; i >= 0; i-- {
		check(names[i])
	}
	for _, name := range names[1:] {
		check(names[0])
		check(name)
		check(names[0])
	}
}

// TestTapeConcurrentCompiles: eight concurrent compiles of one source
// each take their own scratch and produce identical tapes (run under
// -race).
func TestTapeConcurrentCompiles(t *testing.T) {
	arts := corpusArtifacts(t)
	for _, name := range []string{"matmul", "satellite", "lama"} {
		art := arts[name]
		want := buildOf(compileTape(t, art))
		got := make([]tapeBuild, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prog, err := art.Compile(core.Config{Parallelize: true})
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = buildOf(prog)
			}()
		}
		wg.Wait()
		for g := range got {
			if got[g] != want {
				t.Errorf("%s: concurrent compile %d differs:\n%+v\nwant\n%+v", name, g, got[g], want)
			}
		}
	}
}
