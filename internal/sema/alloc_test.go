//go:build !race

// Race mode instruments allocations differently; the byte counts below
// are the steady state's of an ordinary build.

package sema

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"purec/internal/ast"
	"purec/internal/parser"
)

// exprSource is a function of n statements over a few locals and an
// array, each statement eleven expressions deep.
func exprSource(n int) string {
	var b strings.Builder
	b.WriteString("int f(int k) {\n  int s = 0, t = 1;\n  float a[64];\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  s = s + (t * %d - k) / 3 + a[%d];\n", i, i%64)
	}
	b.WriteString("  return s;\n}\n")
	return b.String()
}

func countExprs(f *ast.File) int {
	n := 0
	ast.Walk(f, func(m ast.Node) bool {
		if _, ok := m.(ast.Expr); ok {
			n++
		}
		return true
	})
	return n
}

// TestCheckAllocationPerExpression: Check keeps an expression's type on
// its node, so an added expression costs only its identifiers' bindings
// in Info.Ref: about 23 B per expression on this source (Go 1.24), where
// a third of the expressions are identifiers. The bound is 40 B; a table
// of types keyed by node costs 91 B per expression and breaks it.
func TestCheckAllocationPerExpression(t *testing.T) {
	perCheck := func(src string) (float64, int) {
		f, err := parser.Parse("t.c", src)
		if err != nil {
			t.Fatal(err)
		}
		const warm, n = 3, 50
		for i := 0; i < warm; i++ {
			if _, err := Check(f); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			Check(f)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n, countExprs(f)
	}
	a, na := perCheck(exprSource(200))
	b, nb := perCheck(exprSource(400))
	per := (b - a) / float64(nb-na)
	t.Logf("%d expressions: %.0f B/check; %d expressions: %.0f B/check (%.1f B per added expression)", na, a, nb, b, per)
	if per > 40 {
		t.Errorf("Check allocates %.1f B per added expression, over 40", per)
	}
}

func BenchmarkCheck(b *testing.B) {
	f, err := parser.Parse("t.c", exprSource(400))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Check(f); err != nil {
			b.Fatal(err)
		}
	}
}
