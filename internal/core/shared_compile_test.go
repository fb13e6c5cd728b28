package core

import (
	"fmt"
	"sync"
	"testing"

	"purec/internal/comp"
)

// TestConcurrentCompilesShareTheTree: one Artifact, as a cache holds
// it, is compiled and run by four goroutines at once, each under
// another backend and vectorization. The checked types live on the
// nodes of the artifact's tree, which every compile only reads, so
// under -race a compile that wrote a type onto a node of the shared
// tree fails here. Every run must observe what the interp oracle does.
func TestConcurrentCompilesShareTheTree(t *testing.T) {
	builds := []Config{
		{Backend: comp.BackendGCC},
		{Backend: comp.BackendICC},
		{Backend: comp.BackendGCC, Vectorize: true},
		{Backend: comp.BackendICC, Vectorize: true},
	}
	compiled := 0
	for _, c := range leafCases {
		if c.direct || c.traps {
			continue
		}
		base := Config{FileName: "t.c", Parallelize: true, Memoize: c.memoize, NoCache: true}
		art, err := Front(c.src, base)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := observeInterp(t, art)
		got := make([]string, len(builds))
		errs := make([]error, len(builds))
		var wg sync.WaitGroup
		for i, b := range builds {
			wg.Add(1)
			go func(i int, cfg Config) {
				defer wg.Done()
				cfg.Memoize = base.Memoize
				prog, err := art.Compile(cfg)
				if err != nil {
					errs[i] = err
					return
				}
				if prog.InlinedCalls() == 0 && c.inlined > 0 {
					errs[i] = fmt.Errorf("no call inlined, want %d", c.inlined)
					return
				}
				proc, err := prog.NewProcess(comp.ProcOptions{})
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = observeRun(art.Info, proc)
			}(i, b)
		}
		wg.Wait()
		for i, b := range builds {
			if errs[i] != nil {
				t.Errorf("%s %v vectorize=%v: %v", c.name, b.Backend, b.Vectorize, errs[i])
			} else if got[i] != want {
				t.Errorf("%s %v vectorize=%v differs from the oracle at %s", c.name, b.Backend, b.Vectorize, firstDiff(got[i], want))
			}
		}
		compiled++
	}
	if compiled < 3 {
		t.Errorf("only %d programs compiled concurrently", compiled)
	}
}
