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
// no matching update at all is a malformed pragma, rejected by
// omp.Bind before the loop compiles. The canonical histogram body
// additionally lifts to a scatter kernel (lift.go).

import (
	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// arrayReductionFor builds the clause privatizing the array whose base
// identifier is site (bound by omp.Resolve). ok requires a
// function-local declared array — or a single-level local pointer the
// alias analysis resolved, which the transformer only tags when its
// target region is known — of int/float elements reachable through a
// frame pointer slot.
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
		// clause privatizes and combines the pointed-to segment exactly
		// as it does a decayed local array.
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
	switch elem.Kind {
	case types.Int:
		r, ok = newReduction(sl.idx, true, mem.CellInt, op, false, site.Name)
	case types.Float:
		r, ok = newReduction(sl.idx, true, mem.CellFloat, op, elem.CSize == 4, site.Name)
	}
	return r, ok
}
