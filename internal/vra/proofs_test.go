package vra

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"purec/internal/ast"
	"purec/internal/parser"
)

// proofsSrc nests index expressions inside index expressions: a gather
// through an index array, a two-dimensional access, and an access whose
// subscript is an access the analysis cannot prove (u is unbounded).
const proofsSrc = `
int idx[8];
float x[8], y[8];
int grid[4][6];
int u;

int main(void) {
    for (int i = 0; i < 8; i++)
        idx[i] = 7 - i;
    for (int i = 0; i < 8; i++)
        y[i] = x[idx[i]];
    for (int i = 0; i < 4; i++)
        for (int j = 0; j < 6; j++)
            grid[i][j] = idx[i + j < 8 ? i + j : 0];
    u = rand();
    y[idx[u]] = 1.0f;
    return 0;
}
`

// provenTexts renders a proof set as sorted "line:col text" strings, a
// form two parses of the same source can be compared in.
func provenTexts(r *Result) []string {
	var out []string
	for e := range r.Proofs() {
		out = append(out, e.Pos().String()+" "+ast.PrintExpr(e))
	}
	sort.Strings(out)
	return out
}

// TestProofsRoundTrip: the ordinals EncodeProofs writes for one parse of
// a source rebuild, on another parse of the same text, the proof set the
// analysis computes there — nested index expressions included, proven
// and unproven side by side.
func TestProofsRoundTrip(t *testing.T) {
	res, info := analyzeSrc(t, proofsSrc)
	ords, err := res.EncodeProofs(info.File)
	if err != nil {
		t.Fatal(err)
	}
	if len(ords) != len(res.Proofs()) || !sort.IntsAreSorted(ords) {
		t.Fatalf("encoded %v for %d proofs, want one ascending ordinal each", ords, len(res.Proofs()))
	}
	want := provenTexts(res)
	joined := strings.Join(want, "\n")
	for _, must := range []string{"x[idx[i]]", " idx[i]", "grid[i][j]"} {
		if !strings.Contains(joined, must) {
			t.Fatalf("the analysis did not prove %s; proven:\n%s", must, joined)
		}
	}
	if strings.Contains(joined, " idx[u]") {
		t.Fatalf("the analysis proved an access through the unbounded u:\n%s", joined)
	}

	again, err := parser.Parse("alias.pc", proofsSrc)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreProofs(again, ords)
	if err != nil {
		t.Fatal(err)
	}
	if got := provenTexts(restored); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored proofs\n%s\nwant\n%s", strings.Join(got, "\n"), joined)
	}
	for e := range restored.Proofs() {
		if res.Proven(e) {
			t.Fatal("a restored proof is keyed to a node of the first parse")
		}
	}
	if restored.Alias != nil || restored.Findings != nil || restored.Note(nil) != "" {
		t.Fatal("a restored result carries more than proofs")
	}

	// A proof that is no node of the file cannot be encoded.
	if _, err := restored.EncodeProofs(info.File); err == nil {
		t.Fatal("EncodeProofs named proofs of another tree by ordinals of this one")
	}
	// An empty list is a valid list.
	if r, err := RestoreProofs(again, nil); err != nil || len(r.Proofs()) != 0 {
		t.Fatalf("empty list: %v, %d proofs", err, len(r.Proofs()))
	}
}

// TestRestoreProofsRefusesMalformedLists: every way a list can fail to
// be the output of EncodeProofs for this text.
func TestRestoreProofsRefusesMalformedLists(t *testing.T) {
	res, info := analyzeSrc(t, proofsSrc)
	ords, err := res.EncodeProofs(info.File)
	if err != nil {
		t.Fatal(err)
	}
	exprs := 0
	ast.Walk(info.File, func(n ast.Node) bool {
		if _, ok := n.(ast.Expr); ok {
			exprs++
		}
		return true
	})
	last := len(ords) - 1
	for _, c := range []struct {
		name string
		list []int
		want string
	}{
		{"past the last node", append(append([]int(nil), ords...), exprs), "past the last"},
		{"far past the last node", []int{1 << 30}, "past the last"},
		{"out of order", append([]int{ords[last]}, ords[:last]...), "not ascending"},
		{"repeated", []int{ords[0], ords[0]}, "not ascending"},
		{"negative", []int{-1}, "not ascending"},
		// In walk order the node after an index expression is its base.
		{"on an identifier", []int{ords[0] + 1}, "not an array access"},
		{"on the first expression of the file", []int{0}, "not an array access"},
	} {
		r, err := RestoreProofs(info.File, c.list)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RestoreProofs(%v) = %v proofs, error %v; want an error saying %q", c.name, c.list, r != nil, err, c.want)
		}
	}
}
