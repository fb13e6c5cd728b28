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
// {gcc, icc} × {par, seq}: sink, load strides, clamp, strip
// program and columns (comp.KernelDump). A change that is meant to
// move a kernel re-records the file with -update-kernels and lists the
// moved rows in CHANGES.md.
func TestCorpusKernelsGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range apps.Corpus() {
		for _, par := range []bool{true, false} {
			for _, backend := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
				cfg := core.Config{Parallelize: par, Defines: s.Defines, Backend: backend}
				art, err := core.Front(s.Src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := art.Compile(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := comp.KernelDump(prog); d != "" {
					fmt.Fprintf(&b, "== %s/%v/par=%v\n%s", s.Name, backend, par, d)
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

// TestBackendIsALabel: the backend a build names reaches no compile
// decision. The gcc and icc builds of every apps.Corpus() sample, par
// and seq, give the same kernels and the same tapes word for word (so
// every loop dispatches the same instructions), and differ only in the
// label Program.Backend reports.
func TestBackendIsALabel(t *testing.T) {
	for _, s := range apps.Corpus() {
		for _, par := range []bool{true, false} {
			var kernels, tapes [2]string
			for i, backend := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
				cfg := core.Config{Parallelize: par, Defines: s.Defines, Backend: backend}
				art, err := core.Front(s.Src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := art.Compile(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if prog.Backend() != backend {
					t.Errorf("%s par=%v: Backend() = %v, built as %v", s.Name, par, prog.Backend(), backend)
				}
				kernels[i], tapes[i] = comp.KernelDump(prog), comp.TapeDump(prog)
			}
			if kernels[0] != kernels[1] {
				t.Errorf("%s par=%v: kernels differ\ngcc %s\nicc %s", s.Name, par, kernels[0], kernels[1])
			}
			if tapes[0] != tapes[1] {
				t.Errorf("%s par=%v: tapes differ\ngcc %s\nicc %s", s.Name, par, tapes[0], tapes[1])
			}
		}
	}
}
