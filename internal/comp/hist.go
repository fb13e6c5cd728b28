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
// error, mirroring the interp oracle's validation.
//
// The canonical histogram body additionally compiles to a fused
// gather-update kernel (matchHist): the subscript operand B gets one
// hoisted range check per launch and is walked as a raw slice; the
// data-dependent target cell gets a per-element bounds check that
// traps exactly like the dispatch backend's per-access checks. The
// kernel reads the target array through the environment's pointer
// slot, so running it on a worker's cloned environment transparently
// updates that worker's private copy.

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

// ----------------------------------------------------------------------------
// Fused gather-update kernel

// histCell converts the data-dependent target cell index to a slice
// index, trapping on int overflow like the dispatch backend's checked
// pointer arithmetic (the slice bounds check then traps negative and
// out-of-range cells exactly like per-access checks).
func histCell(off, bin int64) int {
	cell := off + bin
	if (bin > 0 && cell < off) || (bin < 0 && cell > off) || int64(int(cell)) != cell {
		rtPanic("pointer arithmetic overflow: offset %d + %d elements", off, bin)
	}
	return int(cell)
}

// emitHistInt emits the integer gather-update kernel for the target
// g (see matchHist); a nil rhs updates by 1.
func emitHistInt(g kGather, op token.Kind, rhs intFn) kernRun {
	base, idxAcc := g.base, g.idx
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		is := idxAcc.prep(e, lo, hi)
		p := base(e)
		if p.IsNull() {
			rtPanic("null pointer operand in fused loop")
		}
		off := int64(p.Off)
		n := int(hi - lo + 1)
		v := int64(1)
		if rhs != nil {
			v = rhs(e)
		}
		ix, ss := is.i, is.stride
		dst := p.Seg.I
		switch op {
		case token.ADD:
			for t, si := 0, 0; t < n; t, si = t+1, si+ss {
				dst[histCell(off, ix[si])] += v
			}
		case token.SUB:
			for t, si := 0, 0; t < n; t, si = t+1, si+ss {
				dst[histCell(off, ix[si])] -= v
			}
		case token.MUL:
			for t, si := 0, 0; t < n; t, si = t+1, si+ss {
				dst[histCell(off, ix[si])] *= v
			}
		case token.AND:
			for t, si := 0, 0; t < n; t, si = t+1, si+ss {
				dst[histCell(off, ix[si])] &= v
			}
		case token.OR:
			for t, si := 0, 0; t < n; t, si = t+1, si+ss {
				dst[histCell(off, ix[si])] |= v
			}
		case token.XOR:
			for t, si := 0, 0; t < n; t, si = t+1, si+ss {
				dst[histCell(off, ix[si])] ^= v
			}
		}
	}
}

// emitHistFloat emits the float gather-update kernel: float64
// arithmetic, float32 rounding at 4-byte stores, like the dispatch
// backend.
func emitHistFloat(g kGather, op token.Kind, rhs fltFn) kernRun {
	base, idxAcc, f32 := g.base, g.idx, g.f32
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		is := idxAcc.prep(e, lo, hi)
		p := base(e)
		if p.IsNull() {
			rtPanic("null pointer operand in fused loop")
		}
		off := int64(p.Off)
		n := int(hi - lo + 1)
		v := rhs(e)
		ix, ss := is.i, is.stride
		dst := p.Seg.F
		for t, si := 0, 0; t < n; t, si = t+1, si+ss {
			c := histCell(off, ix[si])
			var nv float64
			switch op {
			case token.ADD:
				nv = dst[c] + v
			case token.SUB:
				nv = dst[c] - v
			default:
				nv = dst[c] * v
			}
			if f32 {
				nv = float64(float32(nv))
			}
			dst[c] = nv
		}
	}
}
