package vra

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"purec/internal/ast"
	"purec/internal/parser"
	"purec/internal/sema"
)

func exprString(e ast.Expr) string { return ast.PrintExpr(e) }

// analyzeFile runs the analysis over one corpus program.
func analyzeFile(t *testing.T, name string) *Result {
	t.Helper()
	path := filepath.Join("testdata", name)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file, err := parser.Parse(name, string(src))
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	info, err := sema.Check(file)
	if err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	return Analyze(info)
}

// expect is one required finding: its kind plus a substring of the
// rendered message (derivations included, so the corpus also pins that
// findings explain themselves).
type expect struct {
	kind   Kind
	substr string
}

// TestGoldenCorpus runs the analysis over the testdata programs and
// checks every expected finding appears — and nothing unexpected does.
func TestGoldenCorpus(t *testing.T) {
	cases := []struct {
		file string
		want []expect
	}{
		{"definite_oob.pc", []expect{
			{DefiniteOOB, "a[12] always out of bounds"},
			{DefiniteOOB, "b[i] always out of bounds"},
		}},
		{"possible_oob.pc", []expect{
			{PossibleOOB, "a[i] may be out of bounds"},
			{PossibleOOB, "x[idx[i]] may be out of bounds"},
		}},
		{"uninit_scalar.pc", []expect{
			{UninitScalar, "s is read before any assignment"},
			{UninitScalar, "t is read before any assignment"},
		}},
		{"dead_guard.pc", []expect{
			{DeadGuard, "s < 0 && s > 10 is always false"},
			{DeadGuard, "i > 100 is always false"},
		}},
		{"dead_store.pc", []expect{
			{DeadStore, "value stored by t = 1 is overwritten"},
			{DeadStore, "value stored by u = 5 is never read"},
		}},
		{"unused_var.pc", []expect{
			{UnusedVar, "unused is declared but never used"},
		}},
		{"entailment.pc", []expect{
			{DeadGuard, "j <= i is always false (j = i + 1"},
			{AlwaysTrue, "j > i is always true (j = i + 1"},
		}},
		{"clamp.pc", nil},
		{"derived.pc", nil},
		{"clean.pc", nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			res := analyzeFile(t, tc.file)
			matched := make([]bool, len(res.Findings))
			for _, w := range tc.want {
				found := false
				for i, f := range res.Findings {
					if !matched[i] && f.Kind == w.kind && strings.Contains(f.Msg, w.substr) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("missing finding %v %q; got:\n%s", w.kind, w.substr, renderAll(res))
				}
			}
			for i, f := range res.Findings {
				if !matched[i] {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			// Every finding carries a position and a derivation.
			for _, f := range res.Findings {
				if f.Pos.Line == 0 {
					t.Errorf("finding without position: %s", f)
				}
				if f.Msg == "" || f.Expr == "" {
					t.Errorf("finding without derivation: %+v", f)
				}
			}
		})
	}
}

func renderAll(res *Result) string {
	var b strings.Builder
	for _, f := range res.Findings {
		b.WriteString("  " + f.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)\n"
	}
	return b.String()
}

// TestClampProofs pins the path-sensitive refinement: all three clamp
// idioms (if-statement, ?:, else-branch) prove their x[j] access, so no
// corpus finding fires.
func TestClampProofs(t *testing.T) {
	res := analyzeFile(t, "clamp.pc")
	proven := 0
	for e := range res.Proofs() {
		if s := exprString(e); s == "x[j]" {
			proven++
		}
	}
	if proven != 3 {
		t.Errorf("want all 3 clamped x[j] accesses proven, got %d", proven)
	}
}

// TestDerivedProofs pins the derived-iterator subscript: j = i + 5
// inherits i's loop bounds and xx[j] proves in-bounds.
func TestDerivedProofs(t *testing.T) {
	res := analyzeFile(t, "derived.pc")
	for e := range res.Proofs() {
		if exprString(e) == "xx[j]" {
			return
		}
	}
	t.Error("xx[j] with j = i + 5 not proven")
}

// TestCleanProofs pins the prover side of the corpus: the clean gather
// program's reads are all proven, so its nest may be parallelized.
func TestCleanProofs(t *testing.T) {
	res := analyzeFile(t, "clean.pc")
	if len(res.Proofs()) == 0 {
		t.Fatal("clean.pc proved nothing")
	}
	if res.HasDefiniteOOB() {
		t.Fatal("clean.pc reported a definite OOB")
	}
}
