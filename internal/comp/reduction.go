package comp

// The reduction clauses of a parallel region as data: each clause names
// its accumulator — a scalar frame slot, or the pointer slot of a
// privatized array segment (a dense, identity-filled copy per worker
// that ran a chunk) — its cell kind and its operator. One operator
// table, generic over int64 and float64 cells, gives the identity and
// the fold. Every clause combines linearly: rt folds the partials into
// the caller in worker order 0..n-1 after the join. The interp oracle
// keeps its own copy of the table on purpose.

import (
	"math"

	"purec/internal/mem"
	"purec/internal/token"
)

// reduction is one compiled reduction clause: the frame slot of its
// accumulator (a scalar int or float slot, or with array the pointer
// slot of the array), its cell kind, operator and float32 rounding, and
// the array's name for the traps.
type reduction struct {
	slot  int
	array bool
	kind  mem.CellKind
	op    token.Kind
	// f32 marks a 4-byte C float accumulator: every folded value rounds
	// through float32 (min/max pick among already-rounded values, which
	// the rounding maps to themselves).
	f32  bool
	name string
}

// cell is the value kind of an accumulator.
type cell interface{ int64 | float64 }

// newReduction is the clause reducing into slot under operator op; ok
// is false for an operator the cell kind does not support (the loop
// then runs serially). "-" reduces by negation onto "+": the loop body
// subtracts into an identity-seeded private, so each partial is
// −(chunk sum) and partials add (see omp's operator table). The bitwise
// operators exist for ints only.
func newReduction(slot int, array bool, kind mem.CellKind, op token.Kind, f32 bool, name string) (r reduction, ok bool) {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.LSS, token.GTR:
	case token.AND, token.OR, token.XOR:
		if kind != mem.CellInt {
			return r, false
		}
	default:
		return r, false
	}
	return reduction{slot: slot, array: array, kind: kind, op: op, f32: f32, name: name}, true
}

// identity is op's identity over T. Min and max (LSS/GTR) seed with the
// comparison's absorbing element.
func identity[T cell](op token.Kind) T {
	switch op {
	case token.MUL:
		return 1
	case token.AND:
		return -1
	case token.LSS:
		return extreme[T](+1)
	case token.GTR:
		return extreme[T](-1)
	}
	return 0
}

// extreme returns T's largest (sign > 0) or smallest value: ±Inf for
// floats, the int64 limits for ints.
func extreme[T cell](sign int) T {
	var v T
	switch p := any(&v).(type) {
	case *int64:
		*p = math.MaxInt64
		if sign < 0 {
			*p = math.MinInt64
		}
	case *float64:
		*p = math.Inf(sign)
	}
	return v
}

// setIdentity installs the clause's identity into worker environment
// we: into its scalar slot, or into a fresh private segment sized like
// the parent's array, installed into the cloned pointer slot so the
// unchanged loop body (or the scatter kernel) updates the copy.
func (r *reduction) setIdentity(we *env) {
	if r.array {
		p := we.P[r.slot]
		if p.IsNull() || p.Seg.Freed() {
			rtPanic("array reduction accumulator %s is not allocated", r.name)
		}
		seg := mem.NewSegment(r.kind, p.Seg.Len(), p.Seg.Name+" (reduction private)")
		// Keep the slot's element offset: a pointer base like p = &a[4]
		// must index the private segment exactly as it indexed the shared
		// one, or the combine would fold shifted cells.
		//lint:rawmem repointing the slot at an equal-length private segment; p.Off was validated when p was built
		we.P[r.slot] = mem.Pointer{Seg: seg, Off: p.Off}
	}
	if r.kind == mem.CellFloat {
		fillIdentity(r, cellsOf[float64](r, we))
	} else {
		fillIdentity(r, cellsOf[int64](r, we))
	}
}

// fillIdentity fills a clause's accumulator cells with its identity.
func fillIdentity[T cell](r *reduction, cells []T) {
	if v := identity[T](r.op); v != 0 || !r.array { // fresh segments are zeroed
		for i := range cells {
			cells[i] = v
		}
	}
}

// combine folds worker environment src's accumulator into dst's.
func (r *reduction) combine(dst, src *env) {
	if r.array {
		dp, sp := dst.P[r.slot], src.P[r.slot]
		if dp.IsNull() || sp.IsNull() || dp.Seg.Len() != sp.Seg.Len() {
			rtPanic("array reduction accumulator %s changed under the loop", r.name)
		}
	}
	if r.kind == mem.CellFloat {
		fold(r.op, r.f32, cellsOf[float64](r, dst), cellsOf[float64](r, src))
	} else {
		fold(r.op, false, cellsOf[int64](r, dst), cellsOf[int64](r, src))
	}
}

// cellsOf returns the clause's accumulator cells in e: its scalar slot,
// or the elements of its array (the pointer-to-slice assertions box
// nothing).
func cellsOf[T cell](r *reduction, e *env) []T {
	if !r.array {
		if s, ok := any(&e.I).(*[]T); ok {
			return (*s)[r.slot:][:1]
		}
		return (*any(&e.F).(*[]T))[r.slot:][:1]
	}
	seg := e.P[r.slot].Seg
	if c, ok := any(&seg.I).(*[]T); ok {
		return *c
	}
	return *any(&seg.F).(*[]T)
}

// fold folds s into d element-wise under op, one loop per operator.
// Min and max fold by strict comparison, so NaN partials never replace
// an accumulator — exactly like the guarded update in the loop body.
// With f32 every folded value rounds through float32, as the
// accumulator's 4-byte store does.
func fold[T cell](op token.Kind, f32 bool, d, s []T) {
	s = s[:len(d)]
	switch op {
	case token.ADD, token.SUB:
		for i, v := range s {
			d[i] += v
		}
	case token.MUL:
		for i, v := range s {
			d[i] *= v
		}
	case token.LSS:
		for i, v := range s {
			if v < d[i] {
				d[i] = v
			}
		}
	case token.GTR:
		for i, v := range s {
			if v > d[i] {
				d[i] = v
			}
		}
	default:
		foldBits(op, *any(&d).(*[]int64), *any(&s).(*[]int64))
	}
	if f32 {
		for i, v := range d {
			d[i] = T(float32(v))
		}
	}
}

// foldBits is fold for the bitwise operators, which newReduction admits
// for int cells only.
func foldBits(op token.Kind, d, s []int64) {
	switch op {
	case token.AND:
		for i, v := range s {
			d[i] &= v
		}
	case token.OR:
		for i, v := range s {
			d[i] |= v
		}
	default:
		for i, v := range s {
			d[i] ^= v
		}
	}
}
