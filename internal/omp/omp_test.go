package omp_test

import (
	"reflect"
	"testing"

	"purec/internal/apps"
	"purec/internal/ast"
	"purec/internal/core"
	"purec/internal/omp"
	"purec/internal/rt"
	"purec/internal/scop"
	"purec/internal/token"
	"purec/internal/transform"
)

// render is the pragma transform writes around one reduction clause.
func render(c omp.Clause) string { return "#pragma omp parallel for " + c.String() }

func TestParse(t *testing.T) {
	cases := []struct {
		text string
		want omp.Pragma
		err  string
	}{
		{text: "#pragma scop"},
		{text: "#pragma omp parallel"},
		{text: "#pragma omp simd reduction(+:s"},
		{text: "#pragma omp parallel for", want: omp.Pragma{ParallelFor: true}},
		{text: "#pragma omp parallel for private(i, j) schedule(dynamic)", want: omp.Pragma{ParallelFor: true, Schedule: rt.Dynamic, Chunk: 1}},
		{text: "#pragma omp parallel for reduction( max : m , hist[] ) schedule(guided,4)", want: omp.Pragma{
			ParallelFor: true, Schedule: rt.Guided, Chunk: 4,
			Reductions: []omp.Clause{
				{Op: "max", Kind: token.GTR, Var: "m"},
				{Op: "max", Kind: token.GTR, Var: "hist", Array: true},
			},
		}},
		{text: "#pragma omp parallel for reduction(&&:ok)", want: omp.Pragma{ParallelFor: true, Reductions: []omp.Clause{{Op: "&&", Var: "ok"}}}},
		{text: "#pragma omp parallel for schedule(bogus)", err: `unknown schedule "bogus"`},
		{text: "#pragma omp parallel for schedule(static,0)", err: `bad static chunk "static,0"`},
		{text: "#pragma omp parallel for reduction(+:s", err: "unterminated reduction clause"},
		{text: "#pragma omp parallel for reduction(:s)", err: "malformed reduction(:s) clause"},
		{text: "#pragma omp parallel for reduction(+:a,)", err: "malformed reduction(+:a,) clause"},
		{text: "#pragma omp parallel for ;", err: `unexpected ";" in omp pragma`},
	}
	for _, c := range cases {
		got, err := omp.Parse(c.text)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("Parse(%q): error %v, want %q", c.text, err, c.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", c.text, got, err, c.want)
		}
	}
}

// FuzzPragma checks that Parse never panics and that every clause
// transform can emit reads back as itself. The seeds are the pragmas
// the chain writes into apps.Corpus(), with and without a schedule
// clause, and one clause per operator of the table on a scalar and on
// an array.
func FuzzPragma(f *testing.F) {
	for _, k := range []token.Kind{token.ADD, token.SUB, token.MUL, token.AND, token.OR, token.XOR, token.LSS, token.GTR} {
		for _, array := range []bool{false, true} {
			c := scop.Reduction{Var: "acc", Op: k, IsArray: array}.Clause()
			p, err := omp.Parse(render(c))
			if err != nil || len(p.Reductions) != 1 || p.Reductions[0] != c {
				f.Fatalf("Parse(%q) = %+v, %v; want the clause %+v", render(c), p, err, c)
			}
			f.Add(render(c))
		}
	}
	seen := map[string]bool{}
	for _, s := range apps.Corpus() {
		for _, sched := range []string{"", "dynamic,1"} {
			art, err := core.Front(s.Src, core.Config{Parallelize: true, Defines: s.Defines, Transform: transform.Options{Schedule: sched}})
			if err != nil {
				f.Fatalf("%s: %v", s.Name, err)
			}
			ast.Walk(art.Info.File, func(n ast.Node) bool {
				if pr, ok := n.(*ast.PragmaStmt); ok && !seen[pr.Text] {
					seen[pr.Text] = true
					f.Add(pr.Text)
				}
				return true
			})
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := omp.Parse(text)
		if err != nil {
			return
		}
		for _, c := range p.Reductions {
			if !c.Parallel() || !isIdent(c.Var) {
				continue // not a clause transform emits
			}
			q, err := omp.Parse(render(c))
			if err != nil || len(q.Reductions) != 1 || q.Reductions[0] != c {
				t.Fatalf("clause %+v of %q reads back from %q as %+v, %v", c, text, render(c), q, err)
			}
		}
	})
}

func isIdent(s string) bool {
	for i, r := range s {
		if r != '_' && !('a' <= r && r <= 'z') && !('A' <= r && r <= 'Z') && (i == 0 || !('0' <= r && r <= '9')) {
			return false
		}
	}
	return s != ""
}
