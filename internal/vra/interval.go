// Package vra implements a static value-range analysis over the checked
// syntax tree: it derives integer intervals for loop iterators, affine
// subscript expressions and index-array contents, compares them against
// declared array extents, and exports both bounds proofs (consumed by
// gather parallelization, core.markBoundedStars) and human-readable
// diagnostics (purecc -analyze).
//
// The analysis is flow-sensitive for scalars inside one function body
// and flow-insensitive for array contents and pointer extents across
// the whole program: an index array's content interval is the union of
// every store the program can make to it (plus zero, the execution
// model's segment initialization), so a proof derived from it holds at
// every read site regardless of call order. All derived intervals are
// over-approximations; a proof is only emitted when the whole interval
// fits inside the extent, which is what makes a proven star read safe
// to parallelize.
package vra

import (
	"fmt"
	"math"
)

// Interval is an integer range [Lo, Hi]; NoLo/NoHi mark the side as
// unbounded. The zero value is the exact interval [0, 0].
type Interval struct {
	Lo, Hi     int64
	NoLo, NoHi bool
}

// Exact returns the single-point interval [v, v].
func Exact(v int64) Interval { return Interval{Lo: v, Hi: v} }

// Range returns the interval [lo, hi].
func Range(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi} }

// Top returns the unbounded interval (-inf, +inf).
func Top() Interval { return Interval{NoLo: true, NoHi: true} }

// Bounded reports whether both ends are finite.
func (iv Interval) Bounded() bool { return !iv.NoLo && !iv.NoHi }

// Inside reports whether the whole interval fits in [lo, hi].
func (iv Interval) Inside(lo, hi int64) bool {
	return iv.Bounded() && iv.Lo >= lo && iv.Hi <= hi
}

// DisjointFrom reports whether the interval cannot intersect [lo, hi]:
// every value it may take is outside. An unbounded side may take values
// inside, so it never counts as disjoint.
func (iv Interval) DisjointFrom(lo, hi int64) bool {
	below := !iv.NoHi && iv.Hi < lo
	above := !iv.NoLo && iv.Lo > hi
	return below || above
}

// String renders the interval in mathematical notation.
func (iv Interval) String() string {
	l, h := "(-inf", "+inf)"
	if !iv.NoLo {
		l = fmt.Sprintf("[%d", iv.Lo)
	}
	if !iv.NoHi {
		h = fmt.Sprintf("%d]", iv.Hi)
	}
	return l + ", " + h
}

// addSat adds with saturation at the int64 limits; sat reports overflow.
func addSat(a, b int64) (v int64, sat bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return math.MaxInt64, true
		}
		return math.MinInt64, true
	}
	return s, false
}

// mulSat multiplies with saturation at the int64 limits.
func mulSat(a, b int64) (v int64, sat bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64, true
		}
		return math.MinInt64, true
	}
	return p, false
}

// Add returns an interval containing a+b for all a in iv, b in o.
func (iv Interval) Add(o Interval) Interval {
	var out Interval
	out.NoLo = iv.NoLo || o.NoLo
	out.NoHi = iv.NoHi || o.NoHi
	if !out.NoLo {
		v, sat := addSat(iv.Lo, o.Lo)
		out.Lo, out.NoLo = v, sat
	}
	if !out.NoHi {
		v, sat := addSat(iv.Hi, o.Hi)
		out.Hi, out.NoHi = v, sat
	}
	return out
}

// Sub returns an interval containing a-b.
func (iv Interval) Sub(o Interval) Interval { return iv.Add(o.Neg()) }

// Neg returns an interval containing -a.
func (iv Interval) Neg() Interval {
	out := Interval{Lo: -iv.Hi, Hi: -iv.Lo, NoLo: iv.NoHi, NoHi: iv.NoLo}
	if !out.NoHi && iv.Lo == math.MinInt64 {
		out.Hi, out.NoHi = math.MaxInt64, true
	}
	if !out.NoLo && iv.Hi == math.MinInt64 {
		out.Lo, out.NoLo = math.MaxInt64, true
	}
	return out
}

// Mul returns an interval containing a*b.
func (iv Interval) Mul(o Interval) Interval {
	if iv == Exact(0) || o == Exact(0) {
		return Exact(0)
	}
	if !iv.Bounded() || !o.Bounded() {
		// Refining unbounded products (sign reasoning) buys little for
		// subscript proofs; stay conservative.
		return Top()
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	sat := false
	for _, a := range []int64{iv.Lo, iv.Hi} {
		for _, b := range []int64{o.Lo, o.Hi} {
			v, s := mulSat(a, b)
			sat = sat || s
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if sat {
		return Top()
	}
	return Range(lo, hi)
}

// Div returns an interval containing a/b (C truncated division).
func (iv Interval) Div(o Interval) Interval {
	if !iv.Bounded() || !o.Bounded() || (o.Lo <= 0 && o.Hi >= 0) {
		// A possible zero divisor traps at runtime; the analysis only
		// reasons about values of evaluations that complete.
		return Top()
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, a := range []int64{iv.Lo, iv.Hi} {
		for _, b := range []int64{o.Lo, o.Hi} {
			v := a / b
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return Range(lo, hi)
}

// Mod returns an interval containing a%b (C semantics: the result takes
// the dividend's sign). For a constant positive divisor m this is the
// index-array workhorse: a nonnegative dividend yields [0, m-1].
func (iv Interval) Mod(o Interval) Interval {
	if !o.Bounded() || o.Lo <= 0 {
		return Top()
	}
	m := o.Hi - 1 // |a % b| <= max(b)-1
	if iv.Bounded() && iv.Lo >= 0 {
		if iv.Hi < o.Lo && o.Lo == o.Hi {
			return iv // a < b with b exact: a%b == a
		}
		hi := m
		if iv.Hi < hi {
			hi = iv.Hi
		}
		return Range(0, hi)
	}
	if iv.Bounded() && iv.Hi <= 0 {
		return Range(-m, 0)
	}
	return Range(-m, m)
}

// And returns an interval containing a&b. With one nonnegative bounded
// operand the result is [0, that operand's Hi] regardless of the other
// side (masking clears every bit above it).
func (iv Interval) And(o Interval) Interval {
	if o.Bounded() && o.Lo >= 0 {
		return Range(0, o.Hi)
	}
	if iv.Bounded() && iv.Lo >= 0 {
		return Range(0, iv.Hi)
	}
	return Top()
}

// Shl returns an interval containing a<<b for an exact shift count.
func (iv Interval) Shl(o Interval) Interval {
	if !iv.Bounded() || !o.Bounded() || o.Lo != o.Hi || o.Lo < 0 || o.Lo > 62 {
		return Top()
	}
	return iv.Mul(Exact(int64(1) << uint(o.Lo)))
}

// Shr returns an interval containing a>>b for a nonnegative dividend
// and an exact shift count.
func (iv Interval) Shr(o Interval) Interval {
	if !iv.Bounded() || iv.Lo < 0 || !o.Bounded() || o.Lo != o.Hi || o.Lo < 0 || o.Lo > 62 {
		return Top()
	}
	d := int64(1) << uint(o.Lo)
	return Range(iv.Lo/d, iv.Hi/d)
}

// Union returns the smallest interval containing both.
func (iv Interval) Union(o Interval) Interval {
	var out Interval
	out.NoLo = iv.NoLo || o.NoLo
	out.NoHi = iv.NoHi || o.NoHi
	if !out.NoLo {
		out.Lo = iv.Lo
		if o.Lo < out.Lo {
			out.Lo = o.Lo
		}
	}
	if !out.NoHi {
		out.Hi = iv.Hi
		if o.Hi > out.Hi {
			out.Hi = o.Hi
		}
	}
	return out
}

// Refine intersects the interval with o, returning the receiver
// unchanged when the intersection would be empty (the refinement site
// is then dead code; keeping the over-approximation is always sound).
func (iv Interval) Refine(o Interval) Interval {
	out := iv
	if !o.NoLo && (out.NoLo || o.Lo > out.Lo) {
		out.Lo, out.NoLo = o.Lo, false
	}
	if !o.NoHi && (out.NoHi || o.Hi < out.Hi) {
		out.Hi, out.NoHi = o.Hi, false
	}
	if out.Bounded() && out.Lo > out.Hi {
		return iv
	}
	return out
}
