package comp

// Array reductions: #pragma omp parallel for reduction(op:A[]) marks a
// loop updating a function-local array through a data-dependent
// subscript (hist[a[i]]++, lo[b[i]] = x < lo[b[i]] ? x : lo[b[i]]).
// Each worker receives a fresh identity-initialized private copy of
// the array's segment (installed into the cloned environment's pointer
// slot, so the unchanged loop body transparently updates the copy) and
// the partial arrays fold back element-wise in worker order 0..n-1
// through rt.Team.ParallelForReduceArray.
//
// Accumulators that cannot be privatized — global arrays, pointer
// bases with unknown extent or aliasing — compile to serial execution
// of the loop: always correct, never silently wrong. A clause naming
// no matching update at all is a malformed pragma and a compile
// error, mirroring the interp oracle's validation. The canonical
// histogram body additionally fuses into a scatter kernel (matchHist).

import (
	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// findArrayUpdate locates the base identifier of an update of array
// c.name with the clause's operator: a compound assignment
// `A[e] op= v`, or — for the + clause — `A[e]++`/`A[e]--` (both are
// sum contributions; the decrement accumulates a negative partial).
// Loop-local shadows of the name do not bind the clause.
func (fc *funcCompiler) findArrayUpdate(body ast.Stmt, c redClause, inner map[*ast.VarDecl]bool) *ast.Ident {
	var site *ast.Ident
	ast.Walk(body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && site == nil {
			lhs, op, rhs := updateOf(e)
			if lhs != nil && ((rhs != nil && op == c.op) || (rhs == nil && c.op == token.ADD)) {
				site = fc.clauseBase(lhs, c, inner)
			}
		}
		return site == nil
	})
	return site
}

// arrayReductionFor builds the privatize/combine pair for the array
// whose base identifier is site. ok requires a function-local declared
// array — or a single-level local pointer the alias analysis resolved,
// which the transformer only tags when its target region is known — of
// int/float elements reachable through a frame pointer slot.
func (fc *funcCompiler) arrayReductionFor(site *ast.Ident, op token.Kind) (r reduction, ok bool) {
	sym := fc.prog.info.Ref[site]
	if sym == nil || sym.Kind == sema.SymGlobal || sym.Type == nil {
		// Global bases live in Process storage shared by every worker;
		// they run serially.
		return reduction{}, false
	}
	if !sym.IsArray() {
		// A local pointer base qualifies when it is single-level: its
		// slot then holds a pointer into the target region, and the
		// privatize/combine pair below works on the pointed-to segment
		// exactly as it does for a decayed local array.
		if !sym.Type.IsPtr() || sym.Type.Elem == nil || sym.Type.Elem.IsPtr() {
			return reduction{}, false
		}
	}
	sl, global := fc.slotOf(sym, site)
	if global || sl.kind != slotPtr {
		return reduction{}, false
	}
	elem := sym.ElemType() // the cells of an array: pointer cells privatize nothing
	if !sym.IsArray() {
		elem = sym.Type.Elem
	}
	f32 := elem.Kind == types.Float && elem.CSize == 4
	switch elem.Kind {
	case types.Int:
		r, ok = arrayReduction[int64](sl.idx, site.Name, mem.CellInt, op, false)
	case types.Float:
		r, ok = arrayReduction[float64](sl.idx, site.Name, mem.CellFloat, op, f32)
	}
	return r, ok
}
