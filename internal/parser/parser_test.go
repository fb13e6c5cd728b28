package parser

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"purec/internal/ast"
	"purec/internal/lexer"
)

func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse error: %v\nsource:\n%s", err, src)
	}
	return f
}

// reparse checks the print/parse round trip: printing f and parsing the
// result must yield a tree that prints identically.
func reparse(t *testing.T, f *ast.File) {
	t.Helper()
	s1 := ast.Print(f)
	f2, err := Parse("rt.c", s1)
	if err != nil {
		t.Fatalf("round-trip parse error: %v\nprinted:\n%s", err, s1)
	}
	s2 := ast.Print(f2)
	if s1 != s2 {
		t.Fatalf("round trip not stable:\nfirst:\n%s\nsecond:\n%s", s1, s2)
	}
}

func TestListing1Declaration(t *testing.T) {
	f := parse(t, "pure int* func(pure int* p1, int p2);\n")
	fd := f.LookupFunc("func")
	if fd == nil {
		t.Fatal("func not found")
	}
	if !fd.Pure {
		t.Error("function must be pure")
	}
	if len(fd.Params) != 2 {
		t.Fatalf("params: %d", len(fd.Params))
	}
	p1 := fd.Params[0].Type
	if len(p1.Ptrs) != 1 || !p1.Ptrs[0].Pure {
		t.Errorf("p1 must be a pure pointer: %+v", p1)
	}
	p2 := fd.Params[1].Type
	if p2.IsPointer() || p2.Pure {
		t.Errorf("p2 must be a plain int: %+v", p2)
	}
	if len(fd.Ret.Ptrs) != 1 {
		t.Errorf("return type must be int*: %+v", fd.Ret)
	}
	reparse(t, f)
}

func TestListing2Body(t *testing.T) {
	src := `
int* globalPtr;

void func1();
pure int* func2(pure int* p1, int p2);

pure int* func2(pure int* p1, int p2) {
    int a = p2;
    int b = a + 42;
    int* c = (int*)malloc(3 * sizeof(int));
    pure int* ptr = p1;
    pure int* extPtr2;
    extPtr2 = (pure int*)globalPtr;
    pure int* extPtr3;
    extPtr3 = (pure int*)func2(p1, p2);
    return c;
}
`
	f := parse(t, src)
	fd := f.LookupFunc("func2")
	if fd == nil || fd.Body == nil {
		t.Fatal("func2 definition not found")
	}
	if !fd.Pure {
		t.Error("func2 must be pure")
	}
	if got := len(fd.Body.List); got != 9 {
		t.Errorf("statements: got %d want 9", got)
	}
	reparse(t, f)
}

func TestPureCast(t *testing.T) {
	f := parse(t, `
int* ext;
pure void g(void) {
    pure int* p;
    p = (pure int*)ext;
}
`)
	fd := f.LookupFunc("g")
	es := fd.Body.List[1].(*ast.ExprStmt)
	as := es.X.(*ast.AssignExpr)
	cast, ok := as.RHS.(*ast.CastExpr)
	if !ok {
		t.Fatalf("rhs is %T, want cast", as.RHS)
	}
	if len(cast.Type.Ptrs) != 1 || !cast.Type.Ptrs[0].Pure {
		t.Errorf("cast type not a pure pointer: %+v", cast.Type)
	}
	reparse(t, f)
}

func TestMultiDeclaratorPointers(t *testing.T) {
	f := parse(t, "float **A, **Bt, **C;\n")
	g := f.Decls[0].(*ast.VarDeclGroup)
	if len(g.Decls) != 3 {
		t.Fatalf("decls: %d", len(g.Decls))
	}
	for _, d := range g.Decls {
		if len(d.Type.Ptrs) != 2 {
			t.Errorf("%s: %d pointer levels, want 2", d.Name, len(d.Type.Ptrs))
		}
	}
	reparse(t, f)
}

func TestMixedDeclarators(t *testing.T) {
	f := parse(t, "int x = 1, *p, arr[10];\n")
	g := f.Decls[0].(*ast.VarDeclGroup)
	if len(g.Decls) != 3 {
		t.Fatalf("decls: %d", len(g.Decls))
	}
	if g.Decls[0].Init == nil {
		t.Error("x must have initializer")
	}
	if len(g.Decls[1].Type.Ptrs) != 1 {
		t.Error("p must be pointer")
	}
	if len(g.Decls[2].ArrayLens) != 1 {
		t.Error("arr must have one dimension")
	}
	reparse(t, f)
}

func TestMatmulListing7(t *testing.T) {
	src := `
float **A, **Bt, **C;

pure float mult(float a, float b) {
    return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += mult(a[i], b[i]);
    return res;
}

int main(int argc, char** argv) {
    for (int i = 0; i < 4096; ++i)
        for (int j = 0; j < 4096; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[i], 4096);
    return 0;
}
`
	f := parse(t, src)
	if f.LookupFunc("mult") == nil || f.LookupFunc("dot") == nil || f.LookupFunc("main") == nil {
		t.Fatal("functions missing")
	}
	if !f.LookupFunc("dot").Pure {
		t.Error("dot must be pure")
	}
	reparse(t, f)
}

func TestControlFlow(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) s += i;
        else if (i % 3 == 0) s -= i;
        else continue;
    }
    while (s > 100) s /= 2;
    do { s++; } while (s < 10);
    switch (s) {
    case 0:
        s = 1;
        break;
    case 1:
    case 2:
        s = 3;
        break;
    default:
        s = -1;
    }
    return s;
}
`
	f := parse(t, src)
	reparse(t, f)
}

func TestExpressions(t *testing.T) {
	cases := []string{
		"a + b * c",
		"(a + b) * c",
		"a ? b : c ? d : e",
		"a = b = c",
		"x += y << 2",
		"-a + !b - ~c",
		"*p++ + (*q)--",
		"&arr[i]",
		"p->field.sub",
		"sizeof(int)",
		"sizeof(float*)",
		"sizeof x",
		"f(a, g(b), c[2])",
		"a && b || c && !d",
		"x % 3 == 0",
		"(float)i / (float)n",
		"(pure int*)p",
	}
	for _, src := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		s1 := ast.PrintExpr(e)
		e2, err := ParseExpr(s1)
		if err != nil {
			t.Errorf("%q: reparse of %q: %v", src, s1, err)
			continue
		}
		if s2 := ast.PrintExpr(e2); s1 != s2 {
			t.Errorf("%q: round trip %q -> %q", src, s1, s2)
		}
	}
}

func TestPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*ast.BinaryExpr)
	if _, ok := b.Y.(*ast.BinaryExpr); !ok {
		t.Fatalf("2*3 must bind tighter: %s", ast.PrintExpr(e))
	}
	e2, err := ParseExpr("a - b - c")
	if err != nil {
		t.Fatal(err)
	}
	b2 := e2.(*ast.BinaryExpr)
	if _, ok := b2.X.(*ast.BinaryExpr); !ok {
		t.Fatalf("subtraction must be left associative: %s", ast.PrintExpr(e2))
	}
}

func TestStructDeclAndUse(t *testing.T) {
	src := `
struct datatype {
    int storage;
    float vals[8];
};

void f(void) {
    struct datatype s;
    struct datatype* p;
    s.storage = 3;
    p->storage = 4;
    s.vals[2] = 1.5;
}
`
	f := parse(t, src)
	sd := f.Decls[0].(*ast.StructDecl)
	if sd.Name != "datatype" || len(sd.Fields) != 2 {
		t.Fatalf("struct: %+v", sd)
	}
	reparse(t, f)
}

func TestPragmasPreserved(t *testing.T) {
	src := `
void f(void) {
#pragma scop
    for (int i = 0; i < 10; i++)
        ;
#pragma endscop
}
`
	f := parse(t, src)
	fd := f.LookupFunc("f")
	if _, ok := fd.Body.List[0].(*ast.PragmaStmt); !ok {
		t.Fatalf("first stmt is %T", fd.Body.List[0])
	}
	out := ast.Print(f)
	if !strings.Contains(out, "#pragma scop") || !strings.Contains(out, "#pragma endscop") {
		t.Fatalf("pragmas lost:\n%s", out)
	}
	reparse(t, f)
}

func TestOmpPragmaStmt(t *testing.T) {
	src := `
void f(void) {
#pragma omp parallel for private(lbv, ubv, t2)
    for (int t1 = 0; t1 < 100; t1++)
        ;
}
`
	f := parse(t, src)
	reparse(t, f)
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int f( {",
		"int x = ;",
		"for (;;)",           // missing statement and function context
		"int f(void) { if }", // bad if
		"int f(void) { return 1 }",
	}
	for _, src := range cases {
		if _, err := Parse("bad.c", src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestHexOctalCharValues(t *testing.T) {
	f := parse(t, "int a = 0x10; int b = 010; int c = 'A';\n")
	vals := []int64{16, 8, 65}
	for i, d := range f.Decls {
		g := d.(*ast.VarDeclGroup)
		switch init := g.Decls[0].Init.(type) {
		case *ast.IntLit:
			if init.Value != vals[i] {
				t.Errorf("decl %d: got %d want %d", i, init.Value, vals[i])
			}
		case *ast.CharLit:
			if init.Value != vals[i] {
				t.Errorf("decl %d: got %d want %d", i, init.Value, vals[i])
			}
		default:
			t.Errorf("decl %d: unexpected init %T", i, init)
		}
	}
}

// Property: parse(print(parse(s))) == parse(s) for generated programs.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint32) bool {
		src := genProgram(seed)
		f1, err := Parse("p.c", src)
		if err != nil {
			return false
		}
		s1 := ast.Print(f1)
		f2, err := Parse("p2.c", s1)
		if err != nil {
			return false
		}
		return ast.Print(f2) == s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// genProgram produces a small random program from composable snippets.
func genProgram(seed uint32) string {
	bodies := []string{
		"int x = 0; x += 1; return x;",
		"float s = 0.0f; for (int i = 0; i < n; i++) s += (float)i; return (int)s;",
		"if (n > 0) return n; else return -n;",
		"int a[10]; a[0] = n; return a[0];",
		"int* p = (int*)malloc(4 * sizeof(int)); p[0] = n; int r = p[0]; free(p); return r;",
		"int s = 0; while (n > 0) { s += n; n--; } return s;",
		"return n ? n * 2 : 1;",
	}
	funcs := []string{
		"pure int h(int v) { return v + 1; }",
		"pure float m(float a, float b) { return a * b; }",
		"int* gp;",
		"float **M;",
	}
	s := seed
	pick := func(list []string) string {
		s = s*1664525 + 1013904223
		return list[int(s>>16)%len(list)]
	}
	var b strings.Builder
	b.WriteString(pick(funcs))
	b.WriteString("\n")
	b.WriteString(pick(funcs))
	b.WriteString("\nint f(int n) { ")
	b.WriteString(pick(bodies))
	b.WriteString(" }\nint g(int n) { ")
	b.WriteString(pick(bodies))
	b.WriteString(" }\n")
	return b.String()
}

// bigSource is about 24 KB of stencil kernels.
func bigSource() string {
	var b strings.Builder
	for i := 0; b.Len() < 24<<10; i++ {
		fmt.Fprintf(&b, `
float kernel%d(float* a, float* b, int n) {
	float s = 0.0f;
	for (int i = 1; i < n - 1; i++) {
		for (int j = 0; j < n; j++) {
			a[i * n + j] = 0.25f * (b[(i - 1) * n + j] + b[(i + 1) * n + j]) + (float)(i %% 7);
			s += a[i * n + j] * b[j];
		}
	}
	return s;
}
`, i)
	}
	return b.String()
}

// What Parse allocates is paid on every cold compile. The token slice
// used to be grown by append from nil, which put Parse at 130 bytes
// allocated per source byte (3.2 MB for this source); sized once it was
// 51, and with the tokens streamed through a 16-token ring instead of
// held in a slice it is 23.
func TestParseAllocationBudget(t *testing.T) {
	src := bigSource()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Parse("big.c", src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(src))
	if perByte > 40 {
		t.Errorf("Parse allocates %.0f bytes per source byte, budget 40", perByte)
	}
}

func BenchmarkParse(b *testing.B) {
	src := bigSource()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("big.c", src); err != nil {
			b.Fatal(err)
		}
	}
}

// The nesting limits hold at their boundary and fail past it with an
// error that names the limit.
func TestNestingLimits(t *testing.T) {
	blocks := func(n int) string {
		return "int main(void) {" + strings.Repeat("{", n) + strings.Repeat("}", n) + "return 0; }"
	}
	parens := func(n int) string {
		return "int main(void) { return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }"
	}
	chain := func(n int) string {
		return "int main(void) { return 1" + strings.Repeat("+1", n) + "; }"
	}
	for _, c := range []struct {
		name  string
		src   string
		limit string // "" when the source must parse
	}{
		{"blocks-at-limit", blocks(MaxStmtDepth), ""},
		{"blocks-past-limit", blocks(MaxStmtDepth + 1), "statement nesting exceeds 127 levels"},
		{"ifs-past-limit", "int main(void) {" + strings.Repeat("if (1) ", MaxStmtDepth+1) + "return 0; }",
			"statement nesting exceeds 127 levels"},
		{"parens-under-limit", parens(MaxExprDepth - 8), ""},
		{"parens-past-limit", parens(MaxExprDepth), "expression nesting exceeds 1024 levels"},
		{"chain-under-limit", chain(MaxExprDepth - 8), ""},
		{"chain-past-limit", chain(MaxExprDepth), "expression nesting exceeds 1024 levels"},
		{"index-chain-past-limit", "int main(void) { int *a; return a" + strings.Repeat("[0]", MaxExprDepth) + "; }",
			"expression nesting exceeds 1024 levels"},
		{"assign-chain-past-limit", "int main(void) { int a; " + strings.Repeat("a = ", MaxExprDepth) + "1; return a; }",
			"expression nesting exceeds 1024 levels"},
		{"cond-chain-past-limit", "int main(void) { return " + strings.Repeat("1 ? ", MaxExprDepth) + "1" + strings.Repeat(" : 0", MaxExprDepth) + "; }",
			"expression nesting exceeds 1024 levels"},
	} {
		_, err := Parse("t.c", c.src)
		if c.limit == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		pe, ok := err.(*Error)
		if !ok || !pe.TooDeep || !strings.Contains(pe.Msg, c.limit) {
			t.Errorf("%s: %v, want a nesting error naming %q", c.name, err, c.limit)
		}
	}
}

// The parser pulls tokens as it goes, yet a lexical error anywhere in
// the source is what Parse reports, with the lexer's own text: before a
// parse error that comes first in the text, after a successful parse,
// and past the point where a nesting limit stopped the parse.
func TestLexErrorsWinOverParseErrors(t *testing.T) {
	for _, src := range []string{
		"int main(void) { return ; ; } }\nint g = 1 @ 2;\n",
		"int main(void) { return 0; }\n#include <stdio.h>\nint g;\n",
		"int main(void) {" + strings.Repeat("{", MaxStmtDepth+1) + "}\nchar c = 'x\n",
		"int main(void) { return 0; } \"unterminated\n$",
	} {
		lx := lexer.New("test.c", src)
		lx.ScanAll()
		want := lx.Errors().Err()
		if want == nil {
			t.Fatalf("%q has no lexical error", src)
		}
		if _, err := Parse("test.c", src); fmt.Sprint(err) != want.Error() {
			t.Errorf("%q: Parse says %v, the lexer %v", src, err, want)
		}
	}
	if _, err := ParseExpr("(1 + 2) @"); err == nil || !strings.Contains(err.Error(), "illegal character") {
		t.Errorf("ParseExpr: %v, want the lexical error", err)
	}
}
