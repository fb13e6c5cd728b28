package sema

import (
	"strings"
	"testing"

	"purec/internal/ast"
	"purec/internal/parser"
	"purec/internal/types"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(f)
}

func mustCheck(t *testing.T, src string) *Info {
	t.Helper()
	in, err := check(t, src)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return in
}

func TestGlobalsAndFuncsCollected(t *testing.T) {
	in := mustCheck(t, `
int g;
float **M;
pure float dot(pure float* a, pure float* b, int n) { return 0.0f; }
int main(void) { return 0; }
`)
	if len(in.Globals) != 2 {
		t.Fatalf("globals: %d", len(in.Globals))
	}
	if sig := in.Funcs["dot"]; sig == nil || !sig.Pure || len(sig.Params) != 3 {
		t.Fatalf("dot sig: %+v", sig)
	}
	if in.GlobalMap["M"].Type.Kind != types.Ptr || in.GlobalMap["M"].Type.Elem.Kind != types.Ptr {
		t.Fatalf("M type: %s", in.GlobalMap["M"].Type)
	}
}

func TestUndeclaredIdentifier(t *testing.T) {
	_, err := check(t, "int f(void) { return xyz; }")
	if err == nil || !strings.Contains(err.Error(), "undeclared identifier xyz") {
		t.Fatalf("got %v", err)
	}
}

func TestUndeclaredFunction(t *testing.T) {
	_, err := check(t, "int f(void) { return g(); }")
	if err == nil || !strings.Contains(err.Error(), "undeclared function g") {
		t.Fatalf("got %v", err)
	}
}

// TestVoidParameterRejected: void is a parameter list only as the sole
// unnamed parameter; a void parameter would be a variable without
// storage that later stages cannot lay out.
func TestVoidParameterRejected(t *testing.T) {
	for _, src := range []string{
		"int f(void A) { return 0; }",
		"int f(int a, void) { return a; }",
	} {
		_, err := check(t, src)
		if err == nil || !strings.Contains(err.Error(), "has type void") {
			t.Errorf("%s: got %v", src, err)
		}
	}
	mustCheck(t, "int f(void) { return 0; } int g(void* p) { return p == 0; }")
}

func TestArgCountMismatch(t *testing.T) {
	_, err := check(t, `
int g(int a, int b) { return a + b; }
int f(void) { return g(1); }
`)
	if err == nil || !strings.Contains(err.Error(), "expects 2 arguments") {
		t.Fatalf("got %v", err)
	}
}

func TestBuiltinsKnown(t *testing.T) {
	mustCheck(t, `
double f(double x) { return sin(x) + cos(x) * sqrt(fabs(x)); }
int* g(void) { return (int*)malloc(40); }
void h(int* p) { free(p); }
`)
}

func TestPureBuiltinClassification(t *testing.T) {
	for _, name := range []string{"sin", "cos", "log", "sqrt", "malloc", "free"} {
		if !IsPureBuiltin(name) {
			t.Errorf("%s must be in the pure hashset (paper Sect. 3.2)", name)
		}
	}
	for _, name := range []string{"printf", "rand", "srand", "clock"} {
		if IsPureBuiltin(name) {
			t.Errorf("%s must not be pure", name)
		}
	}
}

func TestScopesAndShadowing(t *testing.T) {
	in := mustCheck(t, `
int x;
int f(int x) {
    int y = x;
    {
        int x = 2;
        y += x;
    }
    return y;
}
`)
	locals := in.FuncLocals["f"]
	// param x, local y, inner local x
	if len(locals) != 3 {
		t.Fatalf("locals: %d", len(locals))
	}
	if locals[0].Kind != SymParam || locals[2].Kind != SymLocal {
		t.Fatalf("kinds: %v %v", locals[0].Kind, locals[2].Kind)
	}
}

func TestRedeclarationError(t *testing.T) {
	_, err := check(t, "int f(void) { int a; int a; return 0; }")
	if err == nil || !strings.Contains(err.Error(), "redeclared") {
		t.Fatalf("got %v", err)
	}
}

func TestArraySymbol(t *testing.T) {
	in := mustCheck(t, `
int f(void) {
    float a[100];
    int m[4][8];
    a[0] = 1.0f;
    m[1][2] = 3;
    return m[1][2];
}
`)
	var aSym, mSym *Symbol
	for _, s := range in.FuncLocals["f"] {
		switch s.Name {
		case "a":
			aSym = s
		case "m":
			mSym = s
		}
	}
	if aSym == nil || len(aSym.Dims) != 1 || aSym.Dims[0] != 100 {
		t.Fatalf("a dims: %+v", aSym)
	}
	if mSym == nil || len(mSym.Dims) != 2 || mSym.Dims[0] != 4 || mSym.Dims[1] != 8 {
		t.Fatalf("m dims: %+v", mSym)
	}
}

func TestTypePropagation(t *testing.T) {
	in := mustCheck(t, `
float g(float x, int i) { return x + (float)i; }
`)
	fd := in.File.LookupFunc("g")
	ret := fd.Body.List[0].(*ast.ReturnStmt)
	tt := ret.X.Checked()
	if tt == nil || tt.Kind != types.Float {
		t.Fatalf("return type: %s", tt)
	}
}

func TestFromAST(t *testing.T) {
	te := &ast.TypeExpr{Base: ast.Float, Ptrs: []ast.PtrQual{{Pure: true}}}
	ty, err := FromAST(te, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ty.IsPtr() || !ty.Pure || ty.Elem != types.FloatType {
		t.Fatalf("got %s", ty)
	}
	if _, err := FromAST(&ast.TypeExpr{Base: ast.Struct, StructName: "x"}, nil); err == nil {
		t.Error("struct without resolver must fail")
	}
}

func TestPointerArithmeticTypes(t *testing.T) {
	in := mustCheck(t, `
long f(int* p, int* q) {
    int* r = p + 3;
    return q - p;
}
`)
	_ = in
}

func TestVoidReturnChecks(t *testing.T) {
	_, err := check(t, "void f(void) { return 3; }")
	if err == nil || !strings.Contains(err.Error(), "void function") {
		t.Fatalf("got %v", err)
	}
	_, err = check(t, "int f(void) { return; }")
	if err == nil || !strings.Contains(err.Error(), "without a value") {
		t.Fatalf("got %v", err)
	}
}

func TestStructSemantics(t *testing.T) {
	in := mustCheck(t, `
struct pt {
    int x;
    int y;
    float w[4];
};
int f(void) {
    struct pt p;
    struct pt* q;
    p.x = 1;
    p.w[2] = 0.5f;
    return p.x + p.y;
}
`)
	st := in.Structs["pt"]
	if st == nil || len(st.Fields) != 3 {
		t.Fatalf("struct: %+v", st)
	}
	if st.Fields[2].Count != 4 || st.Fields[2].Offset != 2 {
		t.Fatalf("field layout: %+v", st.Fields[2])
	}
}

func TestUnknownStructField(t *testing.T) {
	_, err := check(t, `
struct s { int a; };
int f(void) { struct s v; return v.b; }
`)
	if err == nil || !strings.Contains(err.Error(), "no field b") {
		t.Fatalf("got %v", err)
	}
}

func TestPureParamSymbolFlag(t *testing.T) {
	in := mustCheck(t, "pure float dot(pure float* a, int n) { return a[0]; }")
	var aSym *Symbol
	for _, s := range in.FuncLocals["dot"] {
		if s.Name == "a" {
			aSym = s
		}
	}
	if aSym == nil || !aSym.Pure {
		t.Fatalf("pure param flag: %+v", aSym)
	}
}

func TestConstIntFolding(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"3", 3},
		{"-3", -3},
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"1 << 10", 1024},
		{"255 & 15", 15},
		{"7 % 3", 1},
		{"sizeof(int)", 4},
		{"sizeof(double)", 8},
		{"sizeof(float*)", 8},
		{"'A'", 65},
	}
	for _, c := range cases {
		e, err := parser.ParseExpr(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got, ok := ConstInt(e)
		if !ok || got != c.want {
			t.Errorf("%q: got %d (ok=%v), want %d", c.src, got, ok, c.want)
		}
	}
}

func TestPurityMismatchAcrossDecls(t *testing.T) {
	_, err := check(t, `
pure int f(int x);
int f(int x) { return x; }
`)
	if err == nil || !strings.Contains(err.Error(), "different purity") {
		t.Fatalf("got %v", err)
	}
}

func TestSwitchChecks(t *testing.T) {
	_, err := check(t, `
int f(float x) { switch (x) { case 1: return 0; } return 1; }
`)
	if err == nil || !strings.Contains(err.Error(), "switch tag") {
		t.Fatalf("got %v", err)
	}
}

// TestIntegerToPointerOnlyAsNull holds every implicit conversion to a
// pointer — global and local initializer, assignment, argument, return
// — to the null-pointer constant: 0 (folded, parenthesized) converts,
// any other integer is refused at its line. An array has no initializer.
func TestIntegerToPointerOnlyAsNull(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"int *g = 5;", "t.c:1:6: cannot initialize g (int*) from int"},
		{"int f(void) { int n = 5; int *p = n; return 0; }", "t.c:1:31: cannot initialize p (int*) from int"},
		{"int f(void) { int *p; p = 3; return 0; }", "t.c:1:23: cannot assign int to int*"},
		{"int h(int *p) { return 0; } int f(void) { return h(7); }", "t.c:1:52: argument 1 of h: cannot pass int as int*"},
		{"int *f(int n) { return n; }", "t.c:1:17: cannot return int from function returning int*"},
		{"int a[2] = 3;", "t.c:1:5: cannot initialize a (array of int) from int"},
		{"int f(void) { float m[2][3] = 1.5f; return 0; }", "t.c:1:21: cannot initialize m (array of float) from float"},
		{"int a[2]; int f(int c) { int *p = c ? a : 2; return 0; }", "t.c:1:43: cannot convert int to int* in ?:"},
		{"int a[2]; int f(int c) { int *p = c ? c : a; return 0; }", "t.c:1:39: cannot convert int to int* in ?:"},
	} {
		if _, err := check(t, c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %s", c.src, err, c.want)
		}
	}
	mustCheck(t, `int *g = 0;
int h(int *p) { return p == 0; }
int *f(int c) { int *p = (0); p = 1 - 1; h(0); p = c ? 0 : p; p = c ? p : 0; return 0; }`)
}
