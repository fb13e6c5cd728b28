package preproc

import (
	"fmt"
	"strings"
	"testing"
)

func TestStripAndReinsertSystemIncludes(t *testing.T) {
	src := "#include <stdio.h>\n#include <math.h>\nint x;\n#include \"local.h\"\n"
	stripped, removed := StripSystemIncludes(src)
	if len(removed) != 2 {
		t.Fatalf("removed: %v", removed)
	}
	if strings.Contains(stripped, "<stdio.h>") {
		t.Fatal("system include not stripped")
	}
	if !strings.Contains(stripped, `"local.h"`) {
		t.Fatal("local include must remain")
	}
	back := ReinsertSystemIncludes("int y;\n", removed)
	if !strings.HasPrefix(back, "#include <stdio.h>\n#include <math.h>\n") {
		t.Fatalf("reinsert:\n%s", back)
	}
}

func TestObjectMacro(t *testing.T) {
	out, err := Expand("#define N 4096\nint a[N];\nint b = N + N;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int a[4096];") || !strings.Contains(out, "4096 + 4096") {
		t.Fatalf("out:\n%s", out)
	}
}

// TestTrailingEscapeInLiteral: a backslash that ends the line inside an
// unterminated literal is copied through for the lexer to reject.
func TestTrailingEscapeInLiteral(t *testing.T) {
	for _, src := range []string{"\"\\", "int x = '\\", "#define N 1\nchar *s = \"N\\"} {
		if _, err := Expand(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestMacroTokenBoundary(t *testing.T) {
	out, err := Expand("#define N 10\nint NN = N;\nint xN;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int NN = 10;") {
		t.Fatalf("NN must not expand: %s", out)
	}
	if !strings.Contains(out, "int xN;") {
		t.Fatalf("xN must not expand: %s", out)
	}
}

func TestFunctionMacro(t *testing.T) {
	out, err := Expand("#define SQR(x) ((x) * (x))\nint y = SQR(a + 1);\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(((a + 1)) * ((a + 1)))") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestFunctionMacroTwoParams(t *testing.T) {
	out, err := Expand("#define MIN(a, b) ((a) < (b) ? (a) : (b))\nint m = MIN(x, f(y, z));\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "((x)) < ((f(y, z)))") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestNestedMacros(t *testing.T) {
	out, err := Expand("#define A B\n#define B 7\nint v = A;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int v = 7;") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestUndef(t *testing.T) {
	out, err := Expand("#define N 5\n#undef N\nint v = N;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int v = N;") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestIfdef(t *testing.T) {
	out, err := Expand("#define FAST\n#ifdef FAST\nint a;\n#else\nint b;\n#endif\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int a;") || strings.Contains(out, "int b;") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestIfndefAndElse(t *testing.T) {
	out, err := Expand("#ifndef MISSING\nint a;\n#else\nint b;\n#endif\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int a;") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestIfArithmetic(t *testing.T) {
	out, err := Expand("#define N 8\n#if N * 2 > 10\nint big;\n#elif N > 100\nint huge;\n#else\nint small;\n#endif\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int big;") || strings.Contains(out, "int small;") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestIfDefined(t *testing.T) {
	out, err := Expand("#define X\n#if defined(X) && !defined(Y)\nint ok;\n#endif\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int ok;") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#define A
#ifdef A
#ifdef B
int ab;
#else
int a_only;
#endif
#endif
`
	out, err := Expand(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int a_only;") || strings.Contains(out, "int ab;") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestLocalInclude(t *testing.T) {
	e := &Expander{Files: map[string]string{
		"defs.h": "#define SIZE 64\npure float dot(pure float* a, pure float* b, int n);\n",
	}}
	out, err := e.Expand("#include \"defs.h\"\nfloat v[SIZE];\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "float v[64];") || !strings.Contains(out, "pure float dot") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestMissingIncludeError(t *testing.T) {
	if _, err := Expand("#include \"nope.h\"\n"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPragmaPreserved(t *testing.T) {
	out, err := Expand("#pragma scop\nint x;\n#pragma endscop\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#pragma scop") || !strings.Contains(out, "#pragma endscop") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestMacroNotExpandedInStrings(t *testing.T) {
	out, err := Expand("#define N 4\nchar* s = \"N is N\";\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"N is N"`) {
		t.Fatalf("macro expanded inside string:\n%s", out)
	}
}

func TestDefineInjection(t *testing.T) {
	e := &Expander{}
	e.Define("PROBLEM_N", "256")
	out, err := e.Expand("int a[PROBLEM_N];\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int a[256];") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestContinuationLines(t *testing.T) {
	out, err := Expand("#define LONG 1 + \\\n2\nint v = LONG;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int v = 1 + 2;") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestUnterminatedIfError(t *testing.T) {
	if _, err := Expand("#ifdef A\nint x;\n"); err == nil {
		t.Fatal("expected unterminated #if error")
	}
}

// Doubling macros stop at the expansion budget, and a deeply nested
// #if expression at its depth bound, each with an error naming the
// limit.
func TestExpansionLimits(t *testing.T) {
	var bomb strings.Builder
	bomb.WriteString("#define M0 1\n")
	for i := 1; i <= 30; i++ {
		fmt.Fprintf(&bomb, "#define M%d M%d+M%d\n", i, i-1, i-1)
	}
	bomb.WriteString("int x = M30;\n")
	deepIf := "#if " + strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000) + "\n#endif\n"
	for _, c := range []struct{ name, src, limit string }{
		{"doubling-macros", bomb.String(), "macro expansion exceeds 16777216 bytes"},
		{"function-like-fanout", "#define F(x) x x x x x x x x x x x x x x x x\nint x = F(F(F(F(F(F(F(1)))))));\n",
			"macro expansion exceeds 16777216 bytes"},
		{"deep-if", deepIf, "#if expression nesting exceeds 1024 levels"},
	} {
		if _, err := Expand(c.src); err == nil || !strings.Contains(err.Error(), c.limit) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.limit)
		}
	}
}
