package ast_test

import (
	"errors"
	"strings"
	"testing"

	"purec/internal/ast"
	"purec/internal/parser"
	"purec/internal/token"
)

func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const walkSrc = `
int g;
pure float f(pure float* a, int n) {
    float s = 0.0f;
    for (int i = 0; i < n; i++)
        s += a[i] * 2.0f;
    if (s > 10.0f) s = 10.0f;
    return s;
}
int main(void) {
    float buf[4];
    return (int)f((pure float*)buf, 4);
}
`

func TestWalkVisitsAllIdents(t *testing.T) {
	f := parse(t, walkSrc)
	names := map[string]int{}
	for _, id := range ast.Idents(f) {
		names[id.Name]++
	}
	for _, want := range []string{"a", "n", "s", "i", "buf", "f"} {
		if names[want] == 0 {
			t.Errorf("identifier %s not visited", want)
		}
	}
}

func TestWalkPrune(t *testing.T) {
	f := parse(t, walkSrc)
	count := 0
	ast.Walk(f, func(n ast.Node) bool {
		count++
		_, isFunc := n.(*ast.FuncDecl)
		return !isFunc // do not descend into functions
	})
	// file + global group + its decl + its type + 2 pruned functions
	if count != 6 {
		t.Fatalf("visited %d nodes, want 6", count)
	}
}

func TestAssignments(t *testing.T) {
	f := parse(t, walkSrc)
	as := ast.Assignments(f)
	// s += ..., s = 10.0f
	if len(as) != 2 {
		t.Fatalf("assignments: %d", len(as))
	}
	if as[0].Op != token.ADDASSIGN || as[1].Op != token.ASSIGN {
		t.Fatalf("ops: %v %v", as[0].Op, as[1].Op)
	}
}

func TestRewriteExpr(t *testing.T) {
	f := parse(t, `
int main(void) {
    int x = 0;
    x = x + marker;
    return x;
}
int marker;
`)
	// Replace every `marker` identifier with the literal 7.
	ast.RewriteExpr(f, func(e ast.Expr) ast.Expr {
		if id, ok := e.(*ast.Ident); ok && id.Name == "marker" {
			return &ast.IntLit{Value: 7, Text: "7"}
		}
		return e
	})
	out := ast.Print(f)
	if strings.Contains(out, "x + marker") || !strings.Contains(out, "x + 7") {
		t.Fatalf("rewrite failed:\n%s", out)
	}
}

func TestLookupFuncPrefersDefinition(t *testing.T) {
	f := parse(t, `
int g(int x);
int g(int x) { return x + 1; }
`)
	fd := f.LookupFunc("g")
	if fd == nil || fd.Body == nil {
		t.Fatal("definition must be preferred over prototype")
	}
	if f.LookupFunc("missing") != nil {
		t.Fatal("missing function must be nil")
	}
}

func TestFuncs(t *testing.T) {
	f := parse(t, walkSrc)
	fns := f.Funcs()
	if len(fns) != 2 || fns[0].Name != "f" || fns[1].Name != "main" {
		t.Fatalf("funcs: %v", fns)
	}
}

func TestTypeExprClone(t *testing.T) {
	te := &ast.TypeExpr{Base: ast.Float, Ptrs: []ast.PtrQual{{Pure: true}}}
	c := te.Clone()
	c.Ptrs[0].Pure = false
	if !te.Ptrs[0].Pure {
		t.Fatal("clone must not share pointer-qualifier storage")
	}
}

func TestPrintTypes(t *testing.T) {
	cases := []struct {
		te   *ast.TypeExpr
		want string
	}{
		{&ast.TypeExpr{Base: ast.Int}, "int"},
		{&ast.TypeExpr{Base: ast.Float, Ptrs: []ast.PtrQual{{}}}, "float*"},
		{&ast.TypeExpr{Base: ast.Float, Pure: true, Ptrs: []ast.PtrQual{{Pure: true}}}, "pure float*"},
		{&ast.TypeExpr{Base: ast.Struct, StructName: "s", Ptrs: []ast.PtrQual{{}}}, "struct s*"},
		{&ast.TypeExpr{Base: ast.Int, Const: true}, "const int"},
	}
	for _, c := range cases {
		if got := ast.PrintType(c.te); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
}

func TestPrintStmtAndExpr(t *testing.T) {
	f := parse(t, walkSrc)
	fd := f.LookupFunc("f")
	out := ast.PrintStmt(fd.Body.List[1]) // the for loop
	if !strings.Contains(out, "for (int i = 0; i < n; i++)") {
		t.Fatalf("stmt print:\n%s", out)
	}
	ret := fd.Body.List[3].(*ast.ReturnStmt)
	if got := ast.PrintExpr(ret.X); got != "s" {
		t.Fatalf("expr print: %q", got)
	}
}

func TestPragmaRoundTrip(t *testing.T) {
	src := `void f(void) {
#pragma omp parallel for schedule(dynamic,1)
    for (int i = 0; i < 10; i++)
        ;
}
`
	f := parse(t, src)
	out := ast.Print(f)
	if !strings.Contains(out, "#pragma omp parallel for schedule(dynamic,1)") {
		t.Fatalf("pragma lost:\n%s", out)
	}
	f2 := parse(t, out)
	if ast.Print(f2) != out {
		t.Fatal("pragma print not stable")
	}
}

// TestPrintLimits: each stage printer writes a text of at most limit
// bytes and stops with a *TooLongError naming the limit one byte short.
func TestPrintLimits(t *testing.T) {
	printers := map[string]func(f *ast.File, limit int) (string, error){
		"limited": ast.PrintLimited,
		"placed":  func(f *ast.File, limit int) (string, error) { return ast.PrintPlaced(f, 0, limit) },
		"lowered": func(f *ast.File, limit int) (string, error) { return ast.PrintLowered(f, 0, limit) },
	}
	for name, print := range printers {
		text, err := print(parse(t, walkSrc), 0)
		if err != nil {
			t.Fatalf("%s without a limit: %v", name, err)
		}
		if got, err := print(parse(t, walkSrc), len(text)); err != nil || got != text {
			t.Errorf("%s at a limit of its length: %v", name, err)
		}
		_, err = print(parse(t, walkSrc), len(text)-1)
		var tooLong *ast.TooLongError
		if !errors.As(err, &tooLong) || tooLong.Limit != len(text)-1 {
			t.Errorf("%s one byte short: %v", name, err)
		}
	}
}
