package comp_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/core"
)

var updateKernels = flag.Bool("update-kernels", false, "rewrite testdata/kernels.golden")

// TestCorpusKernelsGolden pins every fused kernel of apps.Corpus() under
// {gcc, icc, gcc+vec} × {par, seq}: sink, load strides, clamp, strip
// program and columns (comp.KernelDump). A change that is meant to
// move a kernel re-records the file with -update-kernels and lists the
// moved rows in CHANGES.md.
func TestCorpusKernelsGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range apps.Corpus() {
		for _, par := range []bool{true, false} {
			for _, build := range []struct {
				name      string
				backend   comp.Backend
				vectorize bool
			}{{"gcc", comp.BackendGCC, false}, {"icc", comp.BackendICC, false}, {"gcc+vec", comp.BackendGCC, true}} {
				cfg := core.Config{Parallelize: par, Defines: s.Defines, Backend: build.backend, Vectorize: build.vectorize}
				art, err := core.Front(s.Src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := art.Compile(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := comp.KernelDump(prog); d != "" {
					fmt.Fprintf(&b, "== %s/%s/par=%v\n%s", s.Name, build.name, par, d)
				}
			}
		}
	}
	const file = "testdata/kernels.golden"
	if *updateKernels {
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
