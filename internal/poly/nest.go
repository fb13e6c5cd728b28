package poly

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Access is one array access with affine subscripts in the iterators and
// parameters of the enclosing nest.
type Access struct {
	Array string
	Subs  []Affine
	Write bool
	// Reduction marks the access as part of a recognized reduction
	// statement (s op= expr for an associative-commutative op whose only
	// uses in the nest are that compound assignment; array reductions
	// like hist[a[i]]++ tag their star accesses the same way).
	// Dependences whose endpoints are both reduction accesses do not
	// serialize the nest: the runtime privatizes the accumulator per
	// worker and combines in a fixed order after the loop.
	Reduction bool
	// Star marks a data-dependent subscript (a gather/scatter like
	// hist[a[i]] whose cell cannot be expressed affinely). A star
	// access conservatively may touch any cell of the array, so
	// dependence analysis pairs it with every other access of the same
	// array without subscript equations.
	Star bool
	// Expr is the printed source form of the access ("hist[a[i]]"),
	// set for star accesses so diagnostics can name the offending
	// read; empty for ordinary affine accesses.
	Expr string
	// Index names the index array of a gather-shaped star access
	// (the "idx" of x[idx[i]]), when the subscript has that shape.
	Index string
	// Ref is the source syntax node (an ast.Expr) of a star access, the
	// key under which the value-range analysis records bounds proofs.
	// Typed as any so the polyhedral layer stays syntax-free.
	Ref any
	// Bounded marks a star read proven in-bounds by the value-range
	// analysis: it can never trap, so a nest whose only star accesses
	// are bounded reads (with no write to the same arrays) is safe to
	// parallelize.
	Bounded bool
	// Note carries the analysis' explanation when the proof failed
	// ("idx range unknown", or the derived interval vs the extent).
	Note string
	// Via names the source pointer of an access the alias analysis
	// resolved to its points-to region: Array then holds the region
	// name (the pointer's constant element offset folded into the
	// first subscript), so accesses through different pointers into
	// one region pair up in dependence analysis. It is also set, with
	// Array left as the pointer name, on accesses the analysis could
	// not resolve. Empty for direct array accesses.
	Via string
	// MayAlias marks an access through a pointer the alias analysis
	// could not resolve to a unique region. Such an access may touch
	// any array, so the transformer force-serializes the nest when the
	// access is a write — or a read beside any array write — because
	// concurrent iterations could reorder conflicting touches of the
	// hidden target region.
	MayAlias bool
}

// String renders the access like "A[i][j+1]"; star accesses render
// their source form with a [*] marker.
func (a Access) String() string {
	var b strings.Builder
	if a.Star {
		if a.Expr != "" {
			b.WriteString(a.Expr)
		} else {
			b.WriteString(a.Array + "[*]")
		}
		if a.Write {
			b.WriteString(" (write)")
		}
		return b.String()
	}
	b.WriteString(a.Array)
	for _, s := range a.Subs {
		fmt.Fprintf(&b, "[%s]", s.String())
	}
	if a.Write {
		b.WriteString(" (write)")
	}
	return b.String()
}

// Statement is one polyhedral statement: a body statement of a loop nest
// together with its array accesses. Seq is its textual position within
// the innermost body, used for loop-independent ordering.
type Statement struct {
	ID     int
	Seq    int
	Reads  []Access
	Writes []Access
	Label  string // diagnostic label, e.g. printed source
}

// Accesses returns reads and writes combined.
func (s *Statement) Accesses() []Access {
	out := make([]Access, 0, len(s.Reads)+len(s.Writes))
	out = append(out, s.Writes...)
	out = append(out, s.Reads...)
	return out
}

// Nest is a perfect affine loop nest: an ordered iterator list, the
// iteration domain as a constraint system over iterators and parameters,
// and the statements of the innermost body.
type Nest struct {
	Iters  []string
	Params []string
	Domain *System
	Stmts  []*Statement
}

// Depth returns the number of loops.
func (n *Nest) Depth() int { return len(n.Iters) }

// ----------------------------------------------------------------------------
// Dependence analysis

// DistEntry is one component of a dependence distance vector.
type DistEntry struct {
	Known          bool  // the component is a compile-time constant
	Val            int64 // value when Known
	Min            int64 // rational bounds when not exactly known
	Max            int64
	HasMin, HasMax bool
}

// String renders the entry; unknown components print as ranges or '*'.
func (d DistEntry) String() string {
	if d.Known {
		return fmt.Sprintf("%d", d.Val)
	}
	if d.HasMin && d.HasMax {
		return fmt.Sprintf("[%d..%d]", d.Min, d.Max)
	}
	return "*"
}

// Dep is a data dependence between two statement instances.
type Dep struct {
	Src, Dst *Statement
	Array    string
	// Level is the loop level carrying the dependence (1-based);
	// 0 means loop-independent (same iteration, statement order).
	Level int
	// Dist is the distance vector over the common loops.
	Dist []DistEntry
	// Kind is flow (write→read), anti (read→write) or output
	// (write→write).
	Kind DepKind
	// Reduction marks a dependence between two reduction accesses of the
	// same accumulator. Such dependences are real (the loop does carry
	// them) but do not forbid parallel execution: the parallel-reduction
	// runtime resolves them with private accumulators.
	Reduction bool
}

// DepKind classifies a dependence.
type DepKind int

// Dependence kinds.
const (
	Flow DepKind = iota
	Anti
	Output
)

var depKindNames = [...]string{"flow", "anti", "output"}

// String returns the dependence kind name.
func (k DepKind) String() string { return depKindNames[k] }

// String renders the dependence.
func (d *Dep) String() string {
	parts := make([]string, len(d.Dist))
	for i, e := range d.Dist {
		parts[i] = e.String()
	}
	suffix := ""
	if d.Reduction {
		suffix = " (reduction)"
	}
	return fmt.Sprintf("%s dep on %s S%d->S%d level %d dist (%s)%s",
		d.Kind, d.Array, d.Src.ID, d.Dst.ID, d.Level, strings.Join(parts, ","), suffix)
}

// AnalyzeDeps computes all dependences of the nest: for every pair of
// accesses to the same array with at least one write, and every carrying
// level, it builds the dependence polyhedron (both instances in the
// domain, equal subscripts, source lexicographically before target) and
// tests emptiness with Fourier–Motzkin. Non-empty systems yield a Dep
// with its distance vector bounds. It is DepSolver.Analyze on a solver
// of its own; a caller analysing several nests keeps one DepSolver.
func AnalyzeDeps(n *Nest) []*Dep {
	var ds DepSolver
	return ds.Analyze(n)
}

// DepSolver computes the dependences of one nest at a time. Dependence
// polyhedra live in dense rows over one column layout per nest: source
// iterators [0,d), target iterators [d,2d), then every other name of the
// nest (the parameters, shared by both instances), then the distance
// variable. The solver keeps its column map, names, lowered accesses and
// row buffers from one nest to the next, so a warmed solver allocates
// only the dependences it returns. The zero value is ready to use; a
// DepSolver is not safe for concurrent use.
type DepSolver struct {
	d     int
	delta int // column of the distance variable (the last one)
	col   map[string]int
	// names holds the name of each column below delta; an iterator's
	// two columns both hold the iterator, and sort as it$s and it$t.
	names []string
	// order lists the columns but delta the way their names sort: the
	// elimination order, which with the tightening fixes the answers.
	order []int
	dom   rows     // the domain of both instances, lowered once
	accs  []access // per statement, writes then reads
	first []int    // statement i's accesses are accs[first[i]:first[i+1]]
	subs  []int64  // the lowered subscripts, delta+2 entries each
	// The systems of the pair at hand, each extending the one before:
	// subscripts equal; outer iterators equal; source before target at
	// one level. work is the copy being solved.
	base, outer, level, work rows
	tmp                      []int64
	// found and dist collect the dependences of the nest and their
	// distance vectors (d entries each) until Analyze copies them out.
	found []Dep
	dist  []DistEntry
}

// access is an Access with the offset of its first subscript row in
// DepSolver.subs.
type access struct {
	*Access
	sub int
}

// Analyze computes the dependences of n as AnalyzeDeps does.
func (ds *DepSolver) Analyze(n *Nest) []*Dep {
	ds.lower(n)
	for i, s1 := range n.Stmts {
		for j, s2 := range n.Stmts {
			for _, a1 := range ds.accs[ds.first[i]:ds.first[i+1]] {
				for _, a2 := range ds.accs[ds.first[j]:ds.first[j+1]] {
					if a1.Array != a2.Array || (!a1.Write && !a2.Write) {
						continue
					}
					if !a1.Star && !a2.Star && len(a1.Subs) != len(a2.Subs) {
						continue
					}
					ds.pair(s1, s2, a1, a2)
				}
			}
		}
	}
	return ds.collect()
}

// collect copies the dependences found into one allocation each for
// the pointers, the Deps and the distance vectors.
func (ds *DepSolver) collect() []*Dep {
	if len(ds.found) == 0 {
		return nil
	}
	out := make([]*Dep, len(ds.found))
	deps := make([]Dep, len(ds.found))
	dist := make([]DistEntry, len(ds.dist))
	copy(deps, ds.found)
	copy(dist, ds.dist)
	for i := range deps {
		deps[i].Dist = dist[i*ds.d : (i+1)*ds.d : (i+1)*ds.d]
		out[i] = &deps[i]
	}
	clear(ds.found) // drop the statement pointers
	return out
}

// lower lays out the columns of n and lowers its domain and the
// subscripts of its accesses into rows over the source instance.
func (ds *DepSolver) lower(n *Nest) {
	ds.d = n.Depth()
	if ds.col == nil {
		ds.col = map[string]int{}
	}
	clear(ds.col)
	ds.names = ds.names[:0]
	for k, it := range n.Iters {
		ds.col[it] = k
		ds.names = append(ds.names, it)
	}
	ds.names = append(ds.names, n.Iters...)
	for _, c := range n.Domain.Cons {
		ds.note(c.Expr)
	}
	clear(ds.accs)
	ds.accs, ds.first = ds.accs[:0], ds.first[:0]
	rows := 0
	for _, s := range n.Stmts {
		ds.first = append(ds.first, len(ds.accs))
		for _, part := range [2][]Access{s.Writes, s.Reads} {
			for i := range part {
				a := &part[i]
				ds.accs = append(ds.accs, access{Access: a, sub: rows})
				rows += len(a.Subs)
				for _, sub := range a.Subs {
					ds.note(sub)
				}
			}
		}
	}
	ds.first = append(ds.first, len(ds.accs))
	ds.delta = len(ds.names)
	ds.order = ds.order[:0]
	for c := range ds.delta {
		ds.order = append(ds.order, c)
	}
	slices.SortFunc(ds.order, ds.compareCols)

	w := ds.delta + 2
	ds.tmp = zeroed(ds.tmp, w)
	ds.dom.reset(ds.delta + 1)
	for _, c := range n.Domain.Cons {
		row := ds.lowerAffine(ds.tmp, c.Expr)
		ds.dom.put(row, c.Rel == EQ)
		copy(row[ds.d:], row[:ds.d]) // the same constraint on the target instance
		clear(row[:ds.d])
		ds.dom.put(row, c.Rel == EQ)
	}
	ds.subs = zeroed(ds.subs, rows*w)
	for _, a := range ds.accs {
		for k, sub := range a.Subs {
			ds.lowerAffine(ds.subRow(a, k), sub)
		}
	}
	ds.found, ds.dist = ds.found[:0], ds.dist[:0]
}

// note gives every name of a that has no column yet the next one.
func (ds *DepSolver) note(a Affine) {
	for v := range a.Coef {
		if _, ok := ds.col[v]; !ok {
			ds.col[v] = len(ds.names)
			ds.names = append(ds.names, v)
		}
	}
}

// lowerAffine writes a into row over the source instance's columns.
func (ds *DepSolver) lowerAffine(row []int64, a Affine) []int64 {
	clear(row)
	for v, k := range a.Coef {
		row[ds.col[v]] = k
	}
	row[ds.delta+1] = a.Const
	return row
}

// subRow returns the row of the k-th subscript of a.
func (ds *DepSolver) subRow(a access, k int) []int64 {
	w := ds.delta + 2
	return ds.subs[(a.sub+k)*w : (a.sub+k+1)*w]
}

// compareCols orders two columns by their names, an iterator's source
// and target columns as it$s and it$t, without building those names.
func (ds *DepSolver) compareCols(a, b int) int {
	na, sa := ds.names[a], ds.suffix(a)
	nb, sb := ds.names[b], ds.suffix(b)
	la, lb := len(na)+len(sa), len(nb)+len(sb)
	for i := 0; i < la && i < lb; i++ {
		if x, y := byteAt(na, sa, i), byteAt(nb, sb, i); x != y {
			return cmp.Compare(x, y)
		}
	}
	return cmp.Compare(la, lb)
}

// suffix is what column c's name sorts with after it.
func (ds *DepSolver) suffix(c int) string {
	switch {
	case c < ds.d:
		return "$s"
	case c < 2*ds.d:
		return "$t"
	}
	return ""
}

// byteAt is the i-th byte of a+b.
func byteAt(a, b string, i int) byte {
	if i < len(a) {
		return a[i]
	}
	return b[i-len(a)]
}

// zeroed returns s resized to n zero entries, reusing its array.
func zeroed(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// unit returns the scratch row target_k - source_k + dcoef·delta + c.
func (ds *DepSolver) unit(k int, dcoef, c int64) []int64 {
	clear(ds.tmp)
	ds.tmp[k], ds.tmp[ds.d+k], ds.tmp[ds.delta], ds.tmp[ds.delta+1] = -1, 1, dcoef, c
	return ds.tmp
}

// pair records the dependences with source access a1 in s1 and target
// access a2 in s2.
func (ds *DepSolver) pair(s1, s2 *Statement, a1, a2 access) {
	d := ds.d
	ds.base.copyFrom(&ds.dom)
	// A star access may touch any cell, so no subscript equation can
	// constrain the dependence polyhedron: every instance pair that the
	// ordering admits conflicts conservatively.
	if !a1.Star && !a2.Star {
		for k := range a1.Subs {
			src, dst := ds.subRow(a1, k), ds.subRow(a2, k)
			for c := range ds.tmp {
				if c < d {
					ds.tmp[c], ds.tmp[d+c] = src[c], -dst[c]
				} else if c >= 2*d {
					ds.tmp[c] = src[c] - dst[c]
				}
			}
			ds.base.put(ds.tmp, true)
		}
	}
	if ds.base.infeasible {
		return
	}
	dep := Dep{Src: s1, Dst: s2, Array: a1.Array, Kind: classifyDep(*a1.Access, *a2.Access),
		Reduction: a1.Reduction && a2.Reduction}
	// Carried at level l: outer iterators equal, level-l source < target.
	ds.outer.copyFrom(&ds.base)
	for l := 1; l <= d; l++ {
		ds.level.copyFrom(&ds.outer)
		ds.level.put(ds.unit(l-1, 0, -1), false) // dst - src >= 1
		ds.outer.put(ds.unit(l-1, 0, 0), true)
		ds.work.copyFrom(&ds.level)
		if ds.work.isEmpty(ds.order) {
			continue
		}
		dep.Level = l
		ds.found = append(ds.found, dep)
		ds.distVector()
	}
	// Loop-independent dependence: same iteration, s1 textually before s2.
	if s1.Seq < s2.Seq && !ds.outer.isEmpty(ds.order) {
		dep.Level = 0
		ds.found = append(ds.found, dep)
		for range d {
			ds.dist = append(ds.dist, DistEntry{Known: true})
		}
	}
}

func classifyDep(a1, a2 Access) DepKind {
	switch {
	case a1.Write && a2.Write:
		return Output
	case a1.Write:
		return Flow
	default:
		return Anti
	}
}

// distVector appends the per-level bounds of dst−src over the
// dependence polyhedron in ds.level to ds.dist.
func (ds *DepSolver) distVector() {
	for k := range ds.d {
		ds.work.copyFrom(&ds.level)
		ds.work.put(ds.unit(k, -1, 0), true) // dst - src - delta == 0
		lo, hasLo, hi, hasHi := ds.work.bounds(ds.delta, ds.order)
		e := DistEntry{Min: lo, Max: hi, HasMin: hasLo, HasMax: hasHi}
		if hasLo && hasHi && lo == hi {
			e.Known = true
			e.Val = lo
		}
		ds.dist = append(ds.dist, e)
	}
}
