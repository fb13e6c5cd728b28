package poly

import (
	"math"
	"math/bits"
	"slices"
)

// maxRows bounds Fourier–Motzkin's doubly exponential growth; the systems
// of real nests stay below two dozen rows.
const maxRows = 512

// rows is the dense Fourier–Motzkin kernel under System and AnalyzeDeps:
// a conjunction of GE constraints, one []int64 row each, over a fixed
// column layout of nc variable columns followed by the constant. A row r
// states Σ r[c]·x_c + r[nc] >= 0.
//
// The kernel keeps the set of rows canonical: a row equal to an earlier
// one and a trivially true constant row are dropped when they are added,
// which changes no answer (every query below is a function of the
// row set, and the first copy of a row keeps its position). Elimination
// reproduces the map-based eliminator it replaced — same combination
// order, same gcd tightening, only at the same moments — so emptiness,
// bounds and the order of symbolic bounds are those of the reference in
// reference_test.go. The one deliberate difference: arithmetic is
// checked and the row count is capped; a combined row that does not fit
// int64 or exceeds maxRows is dropped (the system gets weaker, never
// wrongly empty) and recorded in overflow.
type rows struct {
	nc         int
	a          []int64 // the rows, nc+1 entries each
	spare      []int64 // the buffer eliminate writes into, swapped with a on every step
	infeasible bool    // some constant row is negative
	overflow   bool    // some row was dropped by checked arithmetic or the budget
}

// reset empties s and gives it nc variable columns, keeping its buffers.
func (s *rows) reset(nc int) {
	s.nc, s.a = nc, s.a[:0]
	s.infeasible, s.overflow = false, false
}

// copyFrom makes s a copy of o, reusing s's buffers.
func (s *rows) copyFrom(o *rows) {
	s.nc, s.a = o.nc, append(s.a[:0], o.a...)
	s.infeasible, s.overflow = o.infeasible, o.overflow
}

// alloc appends a zeroed row and returns it; the caller fills it in and
// then calls commit.
func (s *rows) alloc() []int64 {
	n := len(s.a)
	s.a = slices.Grow(s.a, s.nc+1)[:n+s.nc+1]
	clear(s.a[n:])
	return s.a[n:]
}

// commit keeps the row appended last unless it is trivially true or a
// duplicate of an earlier row.
func (s *rows) commit() {
	w := s.nc + 1
	n := len(s.a) - w
	r := s.a[n:]
	if !slices.ContainsFunc(r[:s.nc], func(v int64) bool { return v != 0 }) {
		if r[s.nc] >= 0 {
			s.a = s.a[:n]
			return
		}
		s.infeasible = true
	}
	for i := 0; i < n; i += w {
		if slices.Equal(s.a[i:i+w], r) {
			s.a = s.a[:n]
			return
		}
	}
}

// put adds the constraint r >= 0, and with eq also -r >= 0.
func (s *rows) put(r []int64, eq bool) {
	copy(s.alloc(), r)
	s.commit()
	if !eq {
		return
	}
	neg := s.alloc()
	for i, v := range r {
		if v == math.MinInt64 {
			s.a, s.overflow = s.a[:len(s.a)-len(neg)], true
			return
		}
		neg[i] = -v
	}
	s.commit()
}

// present reports whether any row mentions column c.
func (s *rows) present(c int) bool {
	for i := c; i < len(s.a); i += s.nc + 1 {
		if s.a[i] != 0 {
			return true
		}
	}
	return false
}

// eliminate projects out column c: rows without it are kept, every
// (lower, upper) pair is combined so that c cancels, and every resulting
// row is divided by the gcd of its coefficients with the constant rounded
// down (a valid integer tightening). c < 0 names no column: the step
// then only tightens, like eliminating a variable the system never had.
func (s *rows) eliminate(c int) {
	w := s.nc + 1
	src := s.a
	s.a = s.spare[:0]
	for i := 0; i < len(src); i += w {
		if c < 0 || src[i+c] == 0 {
			r := s.alloc()
			copy(r, src[i:i+w])
			tighten(r)
			s.commit()
		}
	}
	for i := 0; c >= 0 && i < len(src); i += w {
		if src[i+c] <= 0 {
			continue
		}
		lo := src[i : i+w]
		for j := 0; j < len(src); j += w {
			if src[j+c] >= 0 {
				continue
			}
			// -up[c]·lo + lo[c]·up cancels column c.
			if len(s.a) >= maxRows*w {
				s.overflow = true
			} else if combine(s.alloc(), lo, src[j:j+w], c) {
				s.commit()
			} else {
				s.a, s.overflow = s.a[:len(s.a)-w], true
			}
		}
	}
	s.spare = src[:0]
}

// tighten divides the row by the gcd of its coefficients, flooring the
// constant.
func tighten(r []int64) {
	var g uint64
	for _, v := range r[:len(r)-1] {
		if v == 0 {
			continue
		}
		u := uint64(v)
		if v < 0 {
			u = -u
		}
		for u != 0 {
			g, u = u, g%u
		}
		if g == 1 {
			return
		}
	}
	if g == 0 || g > math.MaxInt64 {
		return
	}
	for i := range r[:len(r)-1] {
		r[i] /= int64(g)
	}
	r[len(r)-1] = floorDiv(r[len(r)-1], int64(g))
}

// combine stores -up[c]·lo + lo[c]·up in dst and tightens it; it reports
// false when an entry does not fit int64.
func combine(dst, lo, up []int64, c int) bool {
	cl, cu := lo[c], -up[c]
	if cu < 0 { // up[c] was MinInt64
		return false
	}
	fast := small(cl) && small(cu)
	for k := range dst {
		x, y := lo[k], up[k]
		if k == c || x|y == 0 {
			continue
		}
		if fast && small(x) && small(y) {
			dst[k] = cu*x + cl*y
			continue
		}
		p, ok1 := mulChecked(cu, x)
		q, ok2 := mulChecked(cl, y)
		dst[k] = p + q
		if !ok1 || !ok2 || (p^dst[k])&(q^dst[k]) < 0 {
			return false
		}
	}
	tighten(dst)
	return true
}

// small reports |v| < 2^30: two products of small values cannot overflow
// int64, nor can their sum, which spares ordinary rows the checked path.
func small(v int64) bool { return uint64(v+1<<30) < 1<<31 }

// mulChecked returns a·b and whether it fits int64: the high word of the
// signed product must be the sign extension of the low word.
func mulChecked(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return int64(lo), int64(hi) == int64(lo)>>63
}

// isEmpty reports whether the system has no rational solution, by
// eliminating the columns in the given order (absent ones are skipped)
// until a negative constant row appears or no column is left.
func (s *rows) isEmpty(order []int) bool {
	for _, c := range order {
		if s.infeasible {
			return true
		}
		if s.present(c) {
			s.eliminate(c)
		}
	}
	return s.infeasible
}

// bounds eliminates every column of order but keep and returns the
// tightest integer bounds the remaining rows put on keep.
func (s *rows) bounds(keep int, order []int) (lo int64, hasLo bool, hi int64, hasHi bool) {
	for _, c := range order {
		if c != keep && s.present(c) {
			s.eliminate(c)
		}
	}
	for i := 0; keep >= 0 && i < len(s.a); i += s.nc + 1 {
		coef, k := s.a[i+keep], s.a[i+s.nc]
		switch {
		case coef > 0: // v >= ceil(-k/coef)
			if b := ceilDiv(-k, coef); !hasLo || b > lo {
				lo, hasLo = b, true
			}
		case coef < 0: // v <= floor(k/-coef)
			if b := floorDiv(k, -coef); !hasHi || b < hi {
				hi, hasHi = b, true
			}
		}
	}
	return lo, hasLo, hi, hasHi
}
