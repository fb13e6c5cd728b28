package poly

// The seed's map-backed Fourier–Motzkin eliminator and the dependence
// test built on it, kept verbatim (names prefixed with ref) as the oracle
// the dense-row kernel in rows.go is compared against. It wraps silently
// on int64 overflow; the differential tests stay inside the range where
// it is exact. The one addition is the size guard in refEliminate: the
// reference never drops a duplicate row, so a test input can make it grow
// until memory runs out; it panics with errRefTooBig instead and the test
// skips that input.

import "errors"

const refMaxRows = 400

var errRefTooBig = errors.New("reference eliminator: system too large")

// refTooBig runs f and reports whether the reference gave up on it.
func refTooBig(f func()) (tooBig bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != errRefTooBig {
				panic(r)
			}
			tooBig = true
		}
	}()
	f()
	return false
}

// refNormalizeEqs rewrites EQ constraints as two GE constraints, returning a
// GE-only system.
func (s *System) refNormalizeEqs() *System {
	out := NewSystem()
	for _, c := range s.Cons {
		if c.Rel == EQ {
			out.AddGE(c.Expr.Clone())
			out.AddGE(c.Expr.Scale(-1))
			continue
		}
		out.AddGE(c.Expr.Clone())
	}
	return out
}

// refGCD returns the (non-negative) greatest common divisor.
func refGCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// refNormalizeRow divides a GE row by the gcd of its coefficients, tightening
// the constant with integer floor division (a valid integer tightening).
func refNormalizeRow(e Affine) Affine {
	var g int64
	for _, c := range e.Coef {
		g = refGCD(g, c)
	}
	if g <= 1 {
		return e
	}
	r := NewAffine(floorDiv(e.Const, g))
	for k, c := range e.Coef {
		r.Coef[k] = c / g
	}
	return r
}

// refEliminate projects out variable v using Fourier–Motzkin elimination and
// returns the projected system. The projection is exact over the
// rationals and an over-approximation over the integers.
func (s *System) refEliminate(v string) *System {
	ge := s.refNormalizeEqs()
	var lowers, uppers, rest []Affine
	for _, c := range ge.Cons {
		coef := c.Expr.CoefOf(v)
		switch {
		case coef > 0:
			lowers = append(lowers, c.Expr) // c·v + r >= 0  →  v >= -r/c
		case coef < 0:
			uppers = append(uppers, c.Expr) // -c·v + r >= 0 →  v <= r/c
		default:
			rest = append(rest, c.Expr)
		}
	}
	if len(rest)+len(lowers)*len(uppers) > refMaxRows {
		panic(errRefTooBig)
	}
	out := NewSystem()
	for _, r := range rest {
		out.AddGE(refNormalizeRow(r))
	}
	for _, lo := range lowers {
		cl := lo.CoefOf(v)
		for _, up := range uppers {
			cu := -up.CoefOf(v)
			// combine: cu*lo + cl*up eliminates v
			comb := lo.Scale(cu).Add(up.Scale(cl))
			delete(comb.Coef, v)
			out.AddGE(refNormalizeRow(comb))
		}
	}
	return out
}

// refEliminateAll projects out every variable in vs, in order.
func (s *System) refEliminateAll(vs []string) *System {
	cur := s
	for _, v := range vs {
		cur = cur.refEliminate(v)
	}
	return cur
}

// refIsEmpty reports whether the system has no rational solution: after
// eliminating every variable, some constant constraint is violated.
// Empty here is definitive; "not empty" may still be integer-empty, which
// is a safe over-approximation for dependence analysis (a spurious
// dependence can only suppress a parallelization, never break one).
func (s *System) refIsEmpty() bool {
	cur := s.refNormalizeEqs()
	for {
		vars := cur.Vars()
		// Check constant rows as soon as they appear.
		for _, c := range cur.Cons {
			if c.Expr.IsConst() && c.Expr.Const < 0 {
				return true
			}
		}
		if len(vars) == 0 {
			return false
		}
		cur = cur.refEliminate(vars[0])
	}
}

// refBounds computes the rational lower and upper bounds of variable v over
// the system by eliminating all other variables. Unbounded directions
// report ok=false for the respective side.
func (s *System) refBounds(v string) (lo int64, hasLo bool, hi int64, hasHi bool) {
	cur := s.refNormalizeEqs()
	for _, other := range cur.Vars() {
		if other != v {
			cur = cur.refEliminate(other)
		}
	}
	hasLo, hasHi = false, false
	for _, c := range cur.Cons {
		coef := c.Expr.CoefOf(v)
		if coef == 0 {
			continue
		}
		// coef·v + const >= 0
		if coef > 0 {
			// v >= ceil(-const/coef)
			b := ceilDiv(-c.Expr.Const, coef)
			if !hasLo || b > lo {
				lo, hasLo = b, true
			}
		} else {
			// v <= floor(const/(-coef))
			b := floorDiv(c.Expr.Const, -coef)
			if !hasHi || b < hi {
				hi, hasHi = b, true
			}
		}
	}
	return lo, hasLo, hi, hasHi
}

// refSymbolicBounds extracts, for variable v, the set of affine lower and
// upper bound expressions implied by the system in terms of the remaining
// variables (after eliminating the variables listed in elim). Each
// returned bound is the affine rhs of v >= lb or v <= ub, with the
// convention that integer division is rounded toward the feasible side.
// This is the code-generation step (CLooG's role): loop bounds for
// transformed iterators are max(lowers) .. min(uppers).
func (s *System) refSymbolicBounds(v string, elim []string) (lowers, uppers []Bound) {
	cur := s.refNormalizeEqs().refEliminateAll(elim)
	for _, c := range cur.Cons {
		coef := c.Expr.CoefOf(v)
		if coef == 0 {
			continue
		}
		rest := c.Expr.Clone()
		delete(rest.Coef, v)
		if coef > 0 {
			// coef·v >= -rest  →  v >= ceil(-rest/coef)
			lowers = append(lowers, Bound{Expr: rest.Scale(-1), Div: coef, Ceil: true})
		} else {
			// -coef·v <= rest  →  v <= floor(rest/-coef)
			uppers = append(uppers, Bound{Expr: rest, Div: -coef, Ceil: false})
		}
	}
	return lowers, uppers
}

func refDedupBounds(bs []Bound) []Bound {
	var out []Bound
	for _, b := range bs {
		dup := false
		for _, o := range out {
			if o.Div == b.Div && o.Ceil == b.Ceil && o.Expr.Equal(b.Expr) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, b)
		}
	}
	return out
}

// refAnalyzeDeps computes all dependences of the nest: for every pair of
// accesses to the same array with at least one write, and every carrying
// level, it builds the dependence polyhedron (both instances in the
// domain, equal subscripts, source lexicographically before target) and
// tests emptiness with Fourier–Motzkin. Non-empty systems yield a Dep
// with its distance vector bounds.
func refAnalyzeDeps(n *Nest) []*Dep {
	var deps []*Dep
	for _, s1 := range n.Stmts {
		for _, s2 := range n.Stmts {
			for _, a1 := range s1.Accesses() {
				for _, a2 := range s2.Accesses() {
					if a1.Array != a2.Array || (!a1.Write && !a2.Write) {
						continue
					}
					if !a1.Star && !a2.Star && len(a1.Subs) != len(a2.Subs) {
						continue
					}
					deps = append(deps, refDepsForPair(n, s1, s2, a1, a2)...)
				}
			}
		}
	}
	return deps
}

// refDepsForPair finds the dependences with source access a1 in s1 and
// target access a2 in s2.
func refDepsForPair(n *Nest, s1, s2 *Statement, a1, a2 Access) []*Dep {
	base := NewSystem()
	rename := func(suffix string) func(string) string {
		return func(v string) string {
			if n.isIter(v) {
				return v + suffix
			}
			return v // parameters shared
		}
	}
	for _, c := range n.Domain.Cons {
		base.Add(Constraint{Expr: c.Expr.Rename(rename(srcSuffix)), Rel: c.Rel})
		base.Add(Constraint{Expr: c.Expr.Rename(rename(dstSuffix)), Rel: c.Rel})
	}
	// A star access may touch any cell, so no subscript equation can
	// constrain the dependence polyhedron: every instance pair that the
	// ordering admits conflicts conservatively.
	if !a1.Star && !a2.Star {
		for k := range a1.Subs {
			eq := a1.Subs[k].Rename(rename(srcSuffix)).Sub(a2.Subs[k].Rename(rename(dstSuffix)))
			base.AddEQ(eq)
		}
	}
	kind := classifyDep(a1, a2)
	reduction := a1.Reduction && a2.Reduction
	var out []*Dep
	// Carried at level l: outer iterators equal, level-l source < target.
	for l := 1; l <= n.Depth(); l++ {
		sys := base.Clone()
		for k := 0; k < l-1; k++ {
			it := n.Iters[k]
			sys.AddEQ(Var(it + srcSuffix).Sub(Var(it + dstSuffix)))
		}
		it := n.Iters[l-1]
		// dst - src >= 1
		sys.AddGE(Var(it + dstSuffix).Sub(Var(it + srcSuffix)).Sub(NewAffine(1)))
		if sys.refIsEmpty() {
			continue
		}
		out = append(out, &Dep{
			Src: s1, Dst: s2, Array: a1.Array, Level: l, Kind: kind,
			Dist: refDistVector(n, sys), Reduction: reduction,
		})
	}
	// Loop-independent dependence: same iteration, s1 textually before s2
	// (or a write/read pair within one statement).
	if s1.Seq < s2.Seq || (s1 == s2 && a1.Write != a2.Write) {
		sys := base.Clone()
		for _, it := range n.Iters {
			sys.AddEQ(Var(it + srcSuffix).Sub(Var(it + dstSuffix)))
		}
		if !sys.refIsEmpty() && s1.Seq < s2.Seq {
			out = append(out, &Dep{
				Src: s1, Dst: s2, Array: a1.Array, Level: 0, Kind: kind,
				Dist: zeroDist(n.Depth()), Reduction: reduction,
			})
		}
	}
	return out
}

// refDistVector computes per-level bounds of dst−src over the dependence
// polyhedron sys.
func refDistVector(n *Nest, sys *System) []DistEntry {
	out := make([]DistEntry, n.Depth())
	for k, it := range n.Iters {
		cur := sys.Clone()
		delta := "delta$" + it
		cur.AddEQ(Var(delta).Sub(Var(it + dstSuffix)).Add(Var(it + srcSuffix)))
		lo, hasLo, hi, hasHi := cur.refBounds(delta)
		e := DistEntry{Min: lo, Max: hi, HasMin: hasLo, HasMax: hasHi}
		if hasLo && hasHi && lo == hi {
			e.Known = true
			e.Val = lo
		}
		out[k] = e
	}
	return out
}

const srcSuffix = "$s"
const dstSuffix = "$t"

// isIter reports whether v is one of the nest iterators.
func (n *Nest) isIter(v string) bool {
	for _, it := range n.Iters {
		if it == v {
			return true
		}
	}
	return false
}

// RefAnalyzeDeps exports the reference to the external test package,
// which can import the SCoP detector without an import cycle. tooBig
// reports that the reference gave up (see refMaxRows).
func RefAnalyzeDeps(n *Nest) (deps []*Dep, tooBig bool) {
	tooBig = refTooBig(func() { deps = refAnalyzeDeps(n) })
	return deps, tooBig
}

// Rename returns a copy with every variable v replaced by f(v).
func (a Affine) Rename(f func(string) string) Affine {
	r := NewAffine(a.Const)
	for k, v := range a.Coef {
		r.Coef[f(k)] += v
	}
	return r
}

func zeroDist(d int) []DistEntry {
	out := make([]DistEntry, d)
	for i := range out {
		out[i] = DistEntry{Known: true}
	}
	return out
}
