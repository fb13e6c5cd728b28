package poly

import (
	"fmt"
)

// ParallelLevels reports, per loop level (0-based), whether the loop can
// run its iterations in parallel: no dependence is carried at that
// level. Reduction dependences do not count — the parallel-reduction
// runtime privatizes the accumulator per worker, so the carried
// read-modify-write cycle they describe dissolves.
func ParallelLevels(n *Nest, deps []*Dep) []bool {
	out := make([]bool, n.Depth())
	for i := range out {
		out[i] = true
	}
	for _, d := range deps {
		if d.Level >= 1 && !d.Reduction {
			out[d.Level-1] = false
		}
	}
	return out
}

// OutermostParallel returns the 0-based outermost parallel level, or -1.
func OutermostParallel(parallel []bool) int {
	for i, p := range parallel {
		if p {
			return i
		}
	}
	return -1
}

// Permutable reports whether the loop band [0..depth) is fully
// permutable, i.e. every dependence has non-negative distance in every
// band dimension — the legality condition for rectangular tiling
// (paper Fig. 2: the valid tiling exists exactly when all arrows point
// forward in every dimension).
func Permutable(n *Nest, deps []*Dep) bool {
	for _, d := range deps {
		if d.Level == 0 || d.Reduction {
			// Reduction dependences permit any iteration order (the
			// accumulator is privatized), so they never block tiling.
			continue
		}
		for _, e := range d.Dist {
			if e.Known && e.Val < 0 {
				return false
			}
			if !e.Known && (!e.HasMin || e.Min < 0) {
				return false
			}
		}
	}
	return true
}

// LegalSkew computes the smallest skew factor f ≥ 0 such that replacing
// the level-(l+1) iterator j by j' = j + f·i (i the level-l iterator)
// makes every dependence distance non-negative in dimension l+1. This is
// the shearing transformation of the paper's Fig. 2. It requires the
// negative components to be compensated by a strictly positive component
// at level l; otherwise ok is false.
func LegalSkew(deps []*Dep, l int) (f int64, ok bool) {
	for _, d := range deps {
		if d.Level == 0 || d.Reduction || l+1 >= len(d.Dist) {
			continue
		}
		outer, inner := d.Dist[l], d.Dist[l+1]
		var innerMin int64
		switch {
		case inner.Known:
			innerMin = inner.Val
		case inner.HasMin:
			innerMin = inner.Min
		default:
			return 0, false
		}
		if innerMin >= 0 {
			continue
		}
		var outerMin int64
		switch {
		case outer.Known:
			outerMin = outer.Val
		case outer.HasMin:
			outerMin = outer.Min
		default:
			return 0, false
		}
		if outerMin <= 0 {
			return 0, false // cannot compensate
		}
		need := ceilDiv(-innerMin, outerMin)
		if need > f {
			f = need
		}
	}
	return f, true
}

// ApplySkew returns a new nest with iterator level l+1 skewed by factor f
// against level l: the new iterator j_sk satisfies j_sk = j + f·i, so
// the domain and all accesses substitute j = j_sk − f·i. The name is a
// C identifier, because code generation prints it as one.
func ApplySkew(n *Nest, l int, f int64) *Nest {
	return ApplySkewNamed(n, l, f, n.Iters[l+1]+"_sk")
}

// ApplySkewNamed is ApplySkew with the new iterator named jNew, a C
// identifier the nest does not already use.
func ApplySkewNamed(n *Nest, l int, f int64, jNew string) *Nest {
	if f == 0 {
		return n
	}
	i := n.Iters[l]
	j := n.Iters[l+1]
	subst := func(a Affine) Affine {
		cj := a.CoefOf(j)
		if cj == 0 {
			return a.Clone()
		}
		r := a.Clone()
		delete(r.Coef, j)
		// j = j_sk - f*i
		r = r.Add(Var(jNew).Scale(cj)).Add(Var(i).Scale(-f * cj))
		return r
	}
	out := &Nest{
		Iters:  append([]string{}, n.Iters...),
		Params: append([]string{}, n.Params...),
		Domain: NewSystem(),
	}
	out.Iters[l+1] = jNew
	for _, c := range n.Domain.Cons {
		out.Domain.Add(Constraint{Expr: subst(c.Expr), Rel: c.Rel})
	}
	for _, s := range n.Stmts {
		ns := &Statement{ID: s.ID, Seq: s.Seq, Label: s.Label}
		for _, a := range s.Reads {
			ns.Reads = append(ns.Reads, substAccess(a, subst))
		}
		for _, a := range s.Writes {
			ns.Writes = append(ns.Writes, substAccess(a, subst))
		}
		out.Stmts = append(out.Stmts, ns)
	}
	return out
}

func substAccess(a Access, subst func(Affine) Affine) Access {
	na := Access{Array: a.Array, Write: a.Write,
		Reduction: a.Reduction, Star: a.Star, Expr: a.Expr}
	for _, s := range a.Subs {
		na.Subs = append(na.Subs, subst(s))
	}
	return na
}

// ----------------------------------------------------------------------------
// Loop generation (CLooG's role)

// Loop is one generated loop of a transformed nest: iterate Iter from
// max(Lowers) to min(Uppers), optionally in parallel, with an optional
// vectorization hint on the innermost loop (the SICA analog).
type Loop struct {
	Iter     string
	Lowers   []Bound
	Uppers   []Bound
	Parallel bool
	Vector   bool
	Tile     bool // tile (block) loop introduced by tiling
}

// LowerEnv / UpperEnv evaluate the effective integer bounds under env.
func (l Loop) LowerEnv(env map[string]int64) int64 {
	v := l.Lowers[0].Eval(env)
	for _, b := range l.Lowers[1:] {
		if w := b.Eval(env); w > v {
			v = w
		}
	}
	return v
}

// UpperEnv evaluates min over the upper bounds.
func (l Loop) UpperEnv(env map[string]int64) int64 {
	v := l.Uppers[0].Eval(env)
	for _, b := range l.Uppers[1:] {
		if w := b.Eval(env); w < v {
			v = w
		}
	}
	return v
}

// GenNest is a generated loop structure for a transformed nest.
type GenNest struct {
	Loops []Loop
	// Nest is the (possibly transformed) source nest the loops scan.
	Nest *Nest
}

// Generate computes loop bounds for the nest's iterators in order: the
// bounds of iterator k may reference iterators 0..k−1 and parameters,
// obtained by Fourier–Motzkin elimination of the inner iterators.
// parallel marks the per-level parallel flags (may be nil).
func Generate(n *Nest, parallel []bool) (*GenNest, error) {
	g := &GenNest{Nest: n}
	for k, it := range n.Iters {
		elim := append([]string{}, n.Iters[k+1:]...)
		lowers, uppers, overflow := n.Domain.symbolicBounds(it, elim)
		if len(lowers) == 0 || len(uppers) == 0 {
			return nil, fmt.Errorf("iterator %s has no finite bounds", it)
		}
		if overflow {
			return nil, fmt.Errorf("bounds of iterator %s overflow int64", it)
		}
		lp := Loop{Iter: it, Lowers: lowers, Uppers: uppers}
		if parallel != nil && k < len(parallel) {
			lp.Parallel = parallel[k]
		}
		if k == len(n.Iters)-1 {
			lp.Vector = true
		}
		g.Loops = append(g.Loops, lp)
	}
	return g, nil
}

// Tile applies rectangular tiling with the given sizes to the nest's
// loops (size 0 or 1 leaves a level untiled) and returns the generated
// tiled loop structure: tile loops first, then point loops constrained to
// their tile. Tiling must have been proven legal via Permutable (possibly
// after ApplySkew), exactly like PluTo's tiling phase. The tile loop of
// iterator it is named tileIter(it), a C identifier the nest does not
// already use.
func Tile(n *Nest, sizes []int, parallel []bool, tileIter func(it string) string) (*GenNest, error) {
	tiled := &Nest{
		Params: append([]string{}, n.Params...),
		Domain: n.Domain.Clone(),
		Stmts:  n.Stmts,
	}
	var tileIters []string
	var pointIters []string
	// tileOf maps each tile iterator to the iterator it tiles.
	tileOf := map[string]string{}
	for k, it := range n.Iters {
		size := 0
		if k < len(sizes) {
			size = sizes[k]
		}
		if size <= 1 {
			pointIters = append(pointIters, it)
			continue
		}
		tit := tileIter(it)
		tileIters = append(tileIters, tit)
		pointIters = append(pointIters, it)
		tileOf[tit] = it
		b := int64(size)
		// tit*b <= it <= tit*b + b-1
		tv := Var(tit).Scale(b)
		tiled.Domain.AddGE(Var(it).Sub(tv))
		tiled.Domain.AddGE(tv.Add(NewAffine(b - 1)).Sub(Var(it)))
	}
	tiled.Iters = append(append([]string{}, tileIters...), pointIters...)
	var par []bool
	for _, it := range tiled.Iters {
		if base, ok := tileOf[it]; ok {
			// A tile loop is parallel when its point loop level is.
			par = append(par, levelParallel(n, parallel, base))
		} else {
			par = append(par, levelParallel(n, parallel, it))
		}
	}
	g, err := Generate(tiled, par)
	if err != nil {
		return nil, err
	}
	for i := range g.Loops {
		_, g.Loops[i].Tile = tileOf[g.Loops[i].Iter]
		g.Loops[i].Vector = i == len(g.Loops)-1
	}
	return g, nil
}

func levelParallel(n *Nest, parallel []bool, iter string) bool {
	if parallel == nil {
		return false
	}
	for k, it := range n.Iters {
		if it == iter && k < len(parallel) {
			return parallel[k]
		}
	}
	return false
}
