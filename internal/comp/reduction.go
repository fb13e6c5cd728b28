package comp

// The reduction runtime of parallelReduceFor: one operator table —
// identity, fold, float32-rounding wrap — generic over int64 and
// float64 accumulators, and the two accumulator layouts built on it:
// a scalar frame slot, and a privatized array segment (a dense,
// identity-filled copy per worker that ran a chunk). Every clause
// combines linearly: rt folds the partials into the caller in worker
// order 0..n-1 after the join. Scalar clauses, min/max clauses and
// array clauses all draw their operator from here; the interp oracle
// keeps its own copy on purpose.

import (
	"math"

	"purec/internal/mem"
	"purec/internal/token"
)

// reduction is a compiled reduction accumulator: identity installation
// into a worker's private environment and the worker-ordered combine
// back into the parent environment.
type reduction struct {
	setIdentity func(we *env)
	combine     func(dst, src *env)
}

// cell is the value kind of an accumulator.
type cell interface{ int64 | float64 }

// redOp is one reduction operator over T.
type redOp[T cell] struct {
	identity T
	fold     func(a, b T) T
}

// reductionOp is the operator table. "-" reduces by negation onto "+":
// the loop body subtracts into an identity-seeded private, so each
// partial is −(chunk sum) and partials add (see omp's operator table).
// Min and max (LSS/GTR) seed with the comparison's absorbing element
// and fold by strict comparison, so NaN partials never replace an
// accumulator — exactly like the guarded update in the loop body. The
// bitwise operators exist for int64 only; ok is false for an operator
// T does not support. f32 marks a 4-byte C float accumulator: it
// rounds every stored value through float32, and the combine is a
// store (min/max pick among already-rounded values, which the rounding
// maps to themselves).
func reductionOp[T cell](op token.Kind, f32 bool) (r redOp[T], ok bool) {
	switch op {
	case token.ADD, token.SUB:
		r = redOp[T]{0, func(a, b T) T { return a + b }}
	case token.MUL:
		r = redOp[T]{1, func(a, b T) T { return a * b }}
	case token.LSS:
		r = redOp[T]{extreme[T](+1), func(a, b T) T {
			if b < a {
				return b
			}
			return a
		}}
	case token.GTR:
		r = redOp[T]{extreme[T](-1), func(a, b T) T {
			if b > a {
				return b
			}
			return a
		}}
	default:
		bits, isInt := any(&r).(*redOp[int64])
		if !isInt {
			return r, false
		}
		switch op {
		case token.AND:
			*bits = redOp[int64]{-1, func(a, b int64) int64 { return a & b }}
		case token.OR:
			*bits = redOp[int64]{0, func(a, b int64) int64 { return a | b }}
		case token.XOR:
			*bits = redOp[int64]{0, func(a, b int64) int64 { return a ^ b }}
		default:
			return r, false
		}
	}
	if f32 {
		inner := r.fold
		r.fold = func(a, b T) T { return T(float32(inner(a, b))) }
	}
	return r, true
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

// frame returns the environment's T-typed scalar slots.
func frame[T cell](e *env) []T {
	if s, ok := any(&e.I).(*[]T); ok {
		return *s
	}
	return *any(&e.F).(*[]T)
}

// scalarReduction reduces into frame slot idx under clause operator op;
// ok is false when T has no such operator (the loop then runs serially).
func scalarReduction[T cell](idx int, op token.Kind, f32 bool) (r reduction, ok bool) {
	o, ok := reductionOp[T](op, f32)
	return reduction{
		setIdentity: func(we *env) { frame[T](we)[idx] = o.identity },
		combine: func(dst, src *env) {
			d := frame[T](dst)
			d[idx] = o.fold(d[idx], frame[T](src)[idx])
		},
	}, ok
}

// arrayReduction reduces into the array behind pointer slot idx: every
// worker receives a private identity-valued segment sized like the
// parent's array, installed into its cloned environment's slot so the
// unchanged loop body (or the hist kernel) updates the copy, and the
// privates fold back element-wise.
func arrayReduction[T cell](idx int, name string, kind mem.CellKind, op token.Kind, f32 bool) (r reduction, ok bool) {
	o, ok := reductionOp[T](op, f32)
	return reduction{
		setIdentity: func(we *env) {
			p := we.P[idx]
			if p.IsNull() || p.Seg.Freed() {
				rtPanic("array reduction accumulator %s is not allocated", name)
			}
			seg := newPrivate(kind, p.Seg.Len(), o.identity, p.Seg.Name+" (reduction private)")
			// Keep the slot's element offset: a pointer base like
			// p = &a[4] must index the private segment exactly as it
			// indexed the shared one, or the combine would fold shifted
			// cells.
			//lint:rawmem repointing the slot at an equal-length private segment; p.Off was validated when p was built
			we.P[idx] = mem.Pointer{Seg: seg, Off: p.Off}
		},
		combine: func(dst, src *env) {
			dp, sp := dst.P[idx], src.P[idx]
			if dp.IsNull() || sp.IsNull() || dp.Seg.Len() != sp.Seg.Len() {
				rtPanic("array reduction accumulator %s changed under the loop", name)
			}
			foldSegs(dp.Seg, sp.Seg, o.fold)
		},
	}, ok
}

// newPrivate allocates one identity-valued private accumulator.
func newPrivate[T cell](kind mem.CellKind, n int, identity T, label string) *mem.Segment {
	seg := mem.NewSegment(kind, n, label)
	if identity != 0 { // fresh segments are zeroed
		cells := denseCells[T](seg)
		for i := range cells {
			cells[i] = identity
		}
	}
	return seg
}

// foldSegs folds the source accumulator segment into the destination
// element-wise.
func foldSegs[T cell](d, s *mem.Segment, fold func(a, b T) T) {
	dc, sc := denseCells[T](d), denseCells[T](s)
	for i := range dc {
		dc[i] = fold(dc[i], sc[i])
	}
}

// denseCells returns an accumulator segment's T-typed backing cells.
// The callers walk equal-length accumulator pairs (validated by
// arrayReduction's combine) or a fresh private, in range loops.
func denseCells[T cell](s *mem.Segment) []T {
	if c, ok := any(&s.I).(*[]T); ok {
		return *c
	}
	return *any(&s.F).(*[]T)
}
