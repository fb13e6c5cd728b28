package vra

import (
	"fmt"

	"purec/internal/ast"
)

// The proven-access set is keyed by syntax node, so it cannot outlive
// the tree it was computed on. EncodeProofs and RestoreProofs carry it
// across a print/reparse of the same source: a proof is named by the
// ordinal of its node among all ast.Expr nodes of the file in ast.Walk
// order, a function of the source text alone.

// EncodeProofs returns the proven accesses as ascending ordinals among
// the expression nodes of file, the tree the analysis ran on.
func (r *Result) EncodeProofs(file *ast.File) ([]int, error) {
	ords := make([]int, 0, len(r.safe))
	n := 0
	ast.Walk(file, func(m ast.Node) bool {
		if e, ok := m.(ast.Expr); ok {
			if r.safe[e] {
				ords = append(ords, n)
			}
			n++
		}
		return true
	})
	if len(ords) != len(r.safe) {
		return nil, fmt.Errorf("vra: %d of %d proven accesses are not nodes of %s",
			len(r.safe)-len(ords), len(r.safe), file.Name)
	}
	return ords, nil
}

// RestoreProofs rebuilds a proofs-only Result (no findings, notes or
// alias facts) from ordinals EncodeProofs produced for the same source.
// It refuses a list that cannot have come from an analysis of file:
// ordinals out of ascending order, past the last expression node, or
// naming a node that is not an index expression — the only kind Analyze
// ever proves.
func RestoreProofs(file *ast.File, ords []int) (*Result, error) {
	for i, o := range ords {
		if o < 0 || (i > 0 && o <= ords[i-1]) {
			return nil, fmt.Errorf("vra: proof ordinals not ascending at %d", o)
		}
	}
	safe := make(map[ast.Expr]bool, len(ords))
	n, next := 0, 0
	var bad ast.Expr
	ast.Walk(file, func(m ast.Node) bool {
		if next == len(ords) || bad != nil {
			return false
		}
		e, ok := m.(ast.Expr)
		if !ok {
			return true
		}
		if n == ords[next] {
			if _, ok := e.(*ast.IndexExpr); !ok {
				bad = e
				return false
			}
			safe[e] = true
			next++
		}
		n++
		return true
	})
	if bad != nil {
		return nil, fmt.Errorf("vra: proof ordinal %d names %s at %s, not an array access",
			ords[next], ast.PrintExpr(bad), bad.Pos())
	}
	if next < len(ords) {
		return nil, fmt.Errorf("vra: proof ordinal %d past the last of %d expression nodes", ords[next], n)
	}
	return &Result{safe: safe}, nil
}

// Retain keeps the proofs whose index expressions are still nodes of
// file, the tree the analysis ran on as a rewrite left it, and drops
// the rest. A kept proof stays sound as long as the rewrite leaves each
// surviving access the same set of index values: regenerating loop
// headers over the same iteration domain, and substituting inside an
// access an iterator or private by an expression equal to its value
// there, do. So does declaring loop iterators, as long as each names
// either an iterator of the nest it replaces or a variable the nest
// does not mention: no identifier of a surviving access comes to read
// another variable.
func (r *Result) Retain(file *ast.File) {
	live := func(visit func(*ast.IndexExpr)) {
		ast.Walk(file, func(m ast.Node) bool {
			if e, ok := m.(*ast.IndexExpr); ok && r.safe[e] {
				visit(e)
			}
			return true
		})
	}
	n := 0
	live(func(*ast.IndexExpr) { n++ })
	if n == len(r.safe) {
		return
	}
	safe := make(map[ast.Expr]bool, n)
	live(func(e *ast.IndexExpr) { safe[e] = true })
	r.safe = safe
}
