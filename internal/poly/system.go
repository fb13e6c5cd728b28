package poly

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Rel is the relation of a constraint to zero.
type Rel int

// Constraint relations: expr >= 0 or expr == 0.
const (
	GE Rel = iota // Expr >= 0
	EQ            // Expr == 0
)

// Constraint is one affine constraint.
type Constraint struct {
	Expr Affine
	Rel  Rel
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Rel == EQ {
		return c.Expr.String() + " == 0"
	}
	return c.Expr.String() + " >= 0"
}

// System is a conjunction of affine constraints over named variables.
// It supports Fourier–Motzkin elimination, satisfiability testing (over
// the rationals, a sound over-approximation for integer emptiness as used
// in dependence testing) and bound extraction.
type System struct {
	Cons []Constraint
}

// NewSystem returns an empty (universally true) system.
func NewSystem() *System { return &System{} }

// Clone deep-copies the system.
func (s *System) Clone() *System {
	c := &System{Cons: make([]Constraint, len(s.Cons))}
	for i, cn := range s.Cons {
		c.Cons[i] = Constraint{Expr: cn.Expr.Clone(), Rel: cn.Rel}
	}
	return c
}

// Add appends a constraint.
func (s *System) Add(c Constraint) { s.Cons = append(s.Cons, c) }

// AddGE adds expr >= 0.
func (s *System) AddGE(expr Affine) { s.Add(Constraint{Expr: expr, Rel: GE}) }

// AddEQ adds expr == 0.
func (s *System) AddEQ(expr Affine) { s.Add(Constraint{Expr: expr, Rel: EQ}) }

// AddLowerBound adds v >= bound.
func (s *System) AddLowerBound(v string, bound Affine) {
	s.AddGE(Var(v).Sub(bound))
}

// AddUpperBound adds v <= bound.
func (s *System) AddUpperBound(v string, bound Affine) {
	s.AddGE(bound.Sub(Var(v)))
}

// Vars returns all variables referenced by the system, sorted.
func (s *System) Vars() []string {
	set := map[string]bool{}
	for _, c := range s.Cons {
		for v := range c.Expr.Coef {
			set[v] = true
		}
	}
	vs := make([]string, 0, len(set))
	for v := range set {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}

// String renders the conjunction.
func (s *System) String() string {
	parts := make([]string, len(s.Cons))
	for i, c := range s.Cons {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}

// Satisfies reports whether the assignment satisfies all constraints.
func (s *System) Satisfies(env map[string]int64) bool {
	for _, c := range s.Cons {
		v := c.Expr.Eval(env)
		if c.Rel == EQ && v != 0 {
			return false
		}
		if c.Rel == GE && v < 0 {
			return false
		}
	}
	return true
}

// lower converts the system to dense rows (see rows) over its variables in
// sorted order, which is also the order IsEmpty and Bounds eliminate in.
// An EQ constraint becomes the two opposite GE rows.
func (s *System) lower() (r *rows, vars []string, order []int) {
	vars = s.Vars()
	col := make(map[string]int, len(vars))
	for i, v := range vars {
		col[v] = i
		order = append(order, i)
	}
	r = &rows{nc: len(vars)}
	row := make([]int64, len(vars)+1)
	for _, c := range s.Cons {
		clear(row)
		for v, k := range c.Expr.Coef {
			row[col[v]] = k
		}
		row[len(vars)] = c.Expr.Const
		r.put(row, c.Rel == EQ)
	}
	return r, vars, order
}

// affine converts a dense row back, leaving out column skip (-1: none).
func affine(row []int64, vars []string, skip int) Affine {
	a := NewAffine(row[len(vars)])
	for i, k := range row[:len(vars)] {
		if k != 0 && i != skip {
			a.Coef[vars[i]] = k
		}
	}
	return a
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// Eliminate projects out variable v using Fourier–Motzkin elimination and
// returns the projected system. The projection is exact over the
// rationals and an over-approximation over the integers.
func (s *System) Eliminate(v string) *System { return s.EliminateAll([]string{v}) }

// EliminateAll projects out every variable in vs, in order.
func (s *System) EliminateAll(vs []string) *System {
	r, vars := s.eliminated(vs)
	out := NewSystem()
	for i := 0; i < len(r.a); i += r.nc + 1 {
		out.AddGE(affine(r.a[i:i+r.nc+1], vars, -1))
	}
	return out
}

// eliminated lowers the system and projects out vs, in order.
func (s *System) eliminated(vs []string) (*rows, []string) {
	r, vars, _ := s.lower()
	for _, v := range vs {
		r.eliminate(slices.Index(vars, v))
	}
	return r, vars
}

// IsEmpty reports whether the system has no rational solution: after
// eliminating every variable, some constant constraint is violated.
// Empty here is definitive; "not empty" may still be integer-empty, which
// is a safe over-approximation for dependence analysis (a spurious
// dependence can only suppress a parallelization, never break one).
func (s *System) IsEmpty() bool {
	r, _, order := s.lower()
	return r.isEmpty(order)
}

// Bounds computes the rational lower and upper bounds of variable v over
// the system by eliminating all other variables. Unbounded directions
// report ok=false for the respective side.
func (s *System) Bounds(v string) (lo int64, hasLo bool, hi int64, hasHi bool) {
	r, vars, order := s.lower()
	return r.bounds(slices.Index(vars, v), order)
}

// SymbolicBounds extracts, for variable v, the set of affine lower and
// upper bound expressions implied by the system in terms of the remaining
// variables (after eliminating the variables listed in elim). Each
// returned bound is the affine rhs of v >= lb or v <= ub, with the
// convention that integer division is rounded toward the feasible side.
// This is the code-generation step (CLooG's role): loop bounds for
// transformed iterators are max(lowers) .. min(uppers). No bound is
// listed twice.
func (s *System) SymbolicBounds(v string, elim []string) (lowers, uppers []Bound) {
	lowers, uppers, _ = s.symbolicBounds(v, elim)
	return lowers, uppers
}

// symbolicBounds also reports whether the elimination dropped a row that
// overflowed int64, in which case the bounds may be too wide to scan.
func (s *System) symbolicBounds(v string, elim []string) (lowers, uppers []Bound, overflow bool) {
	r, vars := s.eliminated(elim)
	c := slices.Index(vars, v)
	for i := 0; c >= 0 && i < len(r.a); i += r.nc + 1 {
		row := r.a[i : i+r.nc+1]
		if coef := row[c]; coef > 0 {
			// coef·v >= -rest  →  v >= ceil(-rest/coef)
			lowers = append(lowers, Bound{Expr: affine(row, vars, c).Scale(-1), Div: coef, Ceil: true})
		} else if coef < 0 {
			// -coef·v <= rest  →  v <= floor(rest/-coef)
			uppers = append(uppers, Bound{Expr: affine(row, vars, c), Div: -coef, Ceil: false})
		}
	}
	return lowers, uppers, r.overflow
}

// Bound is an affine expression divided by a positive constant, with
// ceiling or floor rounding: Expr/Div rounded up (Ceil) or down.
type Bound struct {
	Expr Affine
	Div  int64
	Ceil bool
}

// String renders the bound.
func (b Bound) String() string {
	if b.Div == 1 {
		return b.Expr.String()
	}
	mode := "floord"
	if b.Ceil {
		mode = "ceild"
	}
	return fmt.Sprintf("%s(%s, %d)", mode, b.Expr.String(), b.Div)
}

// Eval evaluates the bound under an assignment.
func (b Bound) Eval(env map[string]int64) int64 {
	v := b.Expr.Eval(env)
	if b.Div == 1 {
		return v
	}
	if b.Ceil {
		return ceilDiv(v, b.Div)
	}
	return floorDiv(v, b.Div)
}
