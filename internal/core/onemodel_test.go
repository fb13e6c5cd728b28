package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/ast"
	"purec/internal/comp"
	"purec/internal/purity"
	"purec/internal/sema"
	"purec/internal/transform"
	"purec/internal/types"
)

// recheckShapes are sources whose final model Recheck must get right
// the hard way: pure calls whose arguments mention a skewed iterator or
// a substituted private, nested pure calls, an iterator declared before
// its loop (the built header declares a new one), a long iterator (the
// built header declares an int), and variables named like the iterators
// tiling and skewing add, which the body reads (the added iterators
// take other names, so the body still reads the user's variable), and
// a nest two unbraced loops deep (the rewrite must find it there).
var recheckShapes = []apps.Sample{
	{Name: "skew-call", Src: `float A[64][64];
pure float f(int k) { return (float)k * 0.5f; }
int main(void) {
    for (int i = 1; i < 63; ++i)
        for (int j = 1; j < 62; ++j)
            A[i][j] = A[i - 1][j] + A[i][j - 1] + A[i - 1][j + 1] + f(j);
    return (int)A[10][10];
}
`},
	{Name: "private-call", Src: `float x[80];
float y[64];
pure float f(int k) { return (float)k * 0.5f; }
int main(void) {
    for (int i = 0; i < 64; i++) {
        int j = i + 5;
        y[i] = x[j] + f(j);
    }
    return (int)y[10];
}
`},
	{Name: "nested-calls", Src: `float y[64];
pure float g(int k) { return (float)k * 0.5f; }
pure float f(float v) { return v + 1.0f; }
int main(void) {
    for (int i = 0; i < 64; i++)
        y[i] = f(g(i));
    return (int)y[10];
}
`},
	{Name: "iterator-before-loop", Src: `float A[64][64];
int main(void) {
    int i;
    int j;
    for (i = 0; i < 64; i++)
        for (j = 0; j < 64; j++)
            A[i][j] = A[i][j] + (float)(i * j);
    return 0;
}
`},
	{Name: "long-iterator", Src: `float y[64];
int main(void) {
    for (long i = 0; i < 64; i++)
        y[i] = (float)(i * 3000000000);
    return 0;
}
`},
	{Name: "tile-name-capture", Src: `float A[64][64];
int iT = 7;
int main(void) {
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            A[i][j] = A[i][j] + (float)iT;
    return (int)A[40][40];
}
`},
	{Name: "tile-name-subscript", Src: `float A[64][64];
float B[3][64];
int main(void) {
    int iT = 1;
    int iT1 = 0;
    for (int i = 0; i < 64; i++)
        B[2][i] = (float)i;
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            A[i][j] = B[iT + 1][j] + (float)iT1;
    return (int)A[40][40];
}
`},
	{Name: "skew-name-capture", Src: `float A[64][64];
pure float f(int k) { return (float)k * 0.5f; }
int main(void) {
    int j_sk = 3;
    for (int i = 1; i < 63; ++i)
        for (int j = 1; j < 62; ++j)
            A[i][j] = A[i - 1][j] + A[i][j - 1] + A[i - 1][j + 1] + f(j_sk);
    return (int)A[10][10];
}
`},
	{Name: "nest-under-unbraced-loops", Src: `float A[64][64];
int main(void) {
    for (int r = 1; r < 100; r = r * 2)
        for (int s = 1; s < 10; s = s * 3)
            for (int i = 0; i < 64; i++)
                for (int j = 0; j < 64; j++)
                    A[i][j] = A[i][j] + (float)(r + s);
    return (int)A[5][5];
}
`},
}

// TestOneModelIsTheFreshOne: Front checks the user's model once and
// carries it through the rewrites (sema.Recheck). The test holds that
// model to what the two-pass route built — a fresh sema.Check of the
// final tree — on every corpus program under every transform, in
// parallel and sequential builds, on generated programs and on the
// nests that stress the nesting walk: the same types, bindings, frame
// layout, tapes and fused kernels.
func TestOneModelIsTheFreshOne(t *testing.T) {
	modes := []struct {
		name string
		opts transform.Options
	}{{"none", transform.Options{}}, {"tile", transform.Options{Tile: true}},
		{"skew", transform.Options{Skew: true}}, {"tile+skew", transform.Options{Tile: true, Skew: true}}}
	type row struct {
		name string
		src  string
		cfg  Config
	}
	var rows []row
	for _, s := range slices.Concat(apps.Corpus(), recheckShapes) {
		for _, m := range modes {
			for _, par := range []bool{true, false} {
				name := s.Name + "/" + m.name
				if !par {
					name += "/seq"
				}
				rows = append(rows, row{name, s.Src, Config{Defines: s.Defines, Parallelize: par, Transform: m.opts}})
			}
		}
	}
	for seed := uint32(0); seed < 300; seed++ {
		m := modes[seed%4].opts
		rows = append(rows,
			row{fmt.Sprintf("oracle-%d", seed), genOracleProgram(seed), Config{Parallelize: true, Transform: m}},
			row{fmt.Sprintf("alias-%d", seed), genAliasProgram(seed), Config{Parallelize: true, Transform: m}})
	}
	rows = append(rows,
		row{"tiled-nest", tiledNest(4), Config{Parallelize: true, Transform: transform.Options{Tile: true}}},
		row{"skewed-chain", skewedChain(16), Config{Parallelize: true, Transform: transform.Options{Skew: true}}})
	shape := map[string]bool{}
	for _, s := range recheckShapes {
		shape[s.Src] = true
	}
	built := 0
	for _, r := range rows {
		r.cfg.FileName = "t.c"
		art, err := Front(r.src, r.cfg)
		if err != nil {
			if strings.HasPrefix(r.name, "oracle-") || strings.HasPrefix(r.name, "alias-") {
				continue // the generators also write programs the front end refuses
			}
			t.Fatalf("%s: %v", r.name, err)
		}
		if _, err := sameModelAsFreshCheck(art); err != nil {
			t.Errorf("%s: %v", r.name, err)
			continue
		}
		if err := sameAsTwoPassBuild(art, r.cfg); err != nil {
			t.Errorf("%s: %v", r.name, err)
		}
		if shape[r.src] {
			// The rewrite does not change what the program computes: no
			// new iterator captures a variable the body reads.
			plain, err := Front(r.src, Config{FileName: "t.c", Defines: r.cfg.Defines})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := observeInterp(t, art), observeInterp(t, plain); got != want {
				t.Errorf("%s: the rewritten program differs from the user's at %s", r.name, firstDiff(got, want))
			}
		}
		built++
	}
	t.Logf("%d of %d builds equal the two-pass route", built, len(rows))
}

// sameModelAsFreshCheck compares art's semantic model with a fresh
// sema.Check of its final tree, which it returns: every expression's
// type, every identifier's binding (name, kind, type and frame
// position), and each function's locals in order.
func sameModelAsFreshCheck(art *Artifact) (*sema.Info, error) {
	file := art.Info.File
	// The types live on the nodes, which a fresh check retypes: keep
	// the model's first.
	model := map[ast.Expr]*types.Type{}
	ast.Walk(file, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			model[e] = e.Checked()
		}
		return true
	})
	fresh, err := sema.Check(file)
	if err != nil {
		return nil, fmt.Errorf("the final tree does not check afresh: %v", err)
	}
	for name, want := range fresh.FuncLocals {
		got := art.Info.FuncLocals[name]
		if len(got) != len(want) {
			return nil, fmt.Errorf("%s has %d locals, a fresh check %d", name, len(got), len(want))
		}
		for k := range want {
			if err := sameSymbol(got[k], want[k]); err != nil {
				return nil, fmt.Errorf("local %d of %s: %v", k, name, err)
			}
			if got[k].Decl != want[k].Decl || got[k].Index != k {
				return nil, fmt.Errorf("local %d of %s: %s declared by another node or at index %d", k, name, got[k].Name, got[k].Index)
			}
		}
	}
	var bad error
	ast.Walk(file, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || bad != nil {
			return bad == nil
		}
		got, want := model[e], e.Checked()
		if (got == nil) != (want == nil) || want != nil && !types.Equal(got, want) {
			bad = fmt.Errorf("%s at %s has type %v, a fresh check %v", ast.PrintExpr(e), e.Pos(), got, want)
			return false
		}
		if id, ok := e.(*ast.Ident); ok {
			if err := sameSymbol(art.Info.Ref[id], fresh.Ref[id]); err != nil {
				bad = fmt.Errorf("%s at %s: %v", id.Name, id.Pos(), err)
				return false
			}
		}
		return true
	})
	return fresh, bad
}

// sameSymbol compares two bindings by name, kind, type and position in
// the function's locals or the globals.
func sameSymbol(got, want *sema.Symbol) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("bound to %v, a fresh check to %v", got, want)
	}
	if want == nil {
		return nil
	}
	if got.Name != want.Name || got.Kind != want.Kind || !types.Equal(got.Type, want.Type) ||
		!slices.Equal(got.Dims, want.Dims) || got.Index != want.Index {
		return fmt.Errorf("bound to %s %s %v #%d, a fresh check to %s %s %v #%d",
			got.Kind, got.Name, got.Type, got.Index, want.Kind, want.Name, want.Type, want.Index)
	}
	return nil
}

// sameAsTwoPassBuild compiles art and the two-pass route's model of
// the same final tree and compares the tapes and fused kernels.
func sameAsTwoPassBuild(art *Artifact, cfg Config) error {
	prog, err := art.Compile(cfg)
	if err != nil {
		return err
	}
	fresh, err := sema.Check(art.Info.File)
	if err != nil {
		return err
	}
	var memoizable []string
	for name := range purity.Memoizable(fresh) {
		memoizable = append(memoizable, name)
	}
	twoPass, err := comp.CompileProgram(fresh, comp.Options{
		Backend:    cfg.Backend,
		Vectorize:  cfg.Vectorize,
		Memoize:    cfg.Memoize,
		Memoizable: memoizable,
	})
	if err != nil {
		return err
	}
	gi, gc, gt := prog.TapeStats()
	wi, wc, wt := twoPass.TapeStats()
	if gi != wi || gc != wc || gt != wt {
		return fmt.Errorf("tape of %d instructions, %d constants, %d temps; two-pass %d, %d, %d", gi, gc, gt, wi, wc, wt)
	}
	if prog.FusedKernels() != twoPass.FusedKernels() {
		return fmt.Errorf("%d fused kernels; two-pass %d", prog.FusedKernels(), twoPass.FusedKernels())
	}
	return nil
}
