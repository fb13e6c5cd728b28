package comp_test

import (
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/core"
)

// TestProgramHoldsNoFuncValues: a compiled Program is data. No tape of
// an apps.Corpus() build, under gcc and icc, parallel and sequential,
// reaches a func value: loop launches, kernels and reduction clauses
// are records run by methods, like the call, printf and malloc sites.
// The corpus prints nothing, so one printing program joins it.
func TestProgramHoldsNoFuncValues(t *testing.T) {
	seen := map[string]bool{}
	printing := apps.Sample{Name: "printf", Src: `
int a[8];
int main(void) {
    for (int i = 0; i < 8; i++) a[i] = i * i;
    printf("%d %d\n", a[3], a[7]);
    return 0;
}`}
	for _, s := range append(apps.Corpus(), printing) {
		for _, par := range []bool{true, false} {
			for _, be := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
				cfg := core.Config{Parallelize: par, Defines: s.Defines, Backend: be}
				art, err := core.Front(s.Src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := art.Compile(cfg)
				if err != nil {
					t.Fatal(err)
				}
				funcs, visited := comp.FuncValues(prog)
				if len(funcs) > 0 {
					t.Errorf("%s par=%v backend=%v: %d func values, first at %s", s.Name, par, be, len(funcs), funcs[0])
				}
				for typ := range visited {
					seen[typ] = true
				}
			}
		}
	}
	// The walk must have reached every kind of record the tapes hold.
	for _, typ := range []string{"comp.launch", "comp.fusedKernel", "comp.reduction", "comp.callSite", "comp.printfSite", "comp.mallocSite"} {
		if !seen[typ] {
			t.Errorf("the walk never reached a %s", typ)
		}
	}
}
