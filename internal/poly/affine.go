// Package poly implements the polyhedral machinery that the paper's tool
// chain delegates to PluTo: affine iteration domains, array access
// functions, dependence analysis with distance/direction vectors,
// legality checks, loop skewing, rectangular tiling and parallel-loop
// detection (Sect. 3.3 and Fig. 2 of the paper).
//
// The representation follows the classical model: each statement instance
// is a point of a Z-polyhedron described by affine inequalities over loop
// iterators and symbolic parameters; dependences are polyhedra relating
// source and target instances; a transformation is legal when every
// dependence remains lexicographically positive.
package poly

import (
	"fmt"
	"sort"
	"strings"

	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
)

// Affine is a linear expression  Σ coef[v]·v + Const  over named
// dimensions (loop iterators and structure parameters).
type Affine struct {
	Coef  map[string]int64
	Const int64
}

// NewAffine returns the affine expression equal to c.
func NewAffine(c int64) Affine {
	return Affine{Coef: map[string]int64{}, Const: c}
}

// Var returns the affine expression consisting of the single variable v.
func Var(v string) Affine {
	return Affine{Coef: map[string]int64{v: 1}, Const: 0}
}

// Clone returns a deep copy.
func (a Affine) Clone() Affine {
	c := Affine{Coef: make(map[string]int64, len(a.Coef)), Const: a.Const}
	for k, v := range a.Coef {
		c.Coef[k] = v
	}
	return c
}

// Add returns a+b.
func (a Affine) Add(b Affine) Affine {
	r := a.Clone()
	for k, v := range b.Coef {
		r.Coef[k] += v
		if r.Coef[k] == 0 {
			delete(r.Coef, k)
		}
	}
	r.Const += b.Const
	return r
}

// Sub returns a−b.
func (a Affine) Sub(b Affine) Affine { return a.Add(b.Scale(-1)) }

// Scale returns s·a.
func (a Affine) Scale(s int64) Affine {
	r := NewAffine(a.Const * s)
	for k, v := range a.Coef {
		if v*s != 0 {
			r.Coef[k] = v * s
		}
	}
	return r
}

// IsConst reports whether a has no variable terms.
func (a Affine) IsConst() bool { return len(a.Coef) == 0 }

// CoefOf returns the coefficient of v (0 when absent).
func (a Affine) CoefOf(v string) int64 { return a.Coef[v] }

// Eval evaluates the expression under the given assignment; missing
// variables default to 0.
func (a Affine) Eval(env map[string]int64) int64 {
	r := a.Const
	for k, v := range a.Coef {
		r += v * env[k]
	}
	return r
}

// Vars returns the variables with nonzero coefficients, sorted.
func (a Affine) Vars() []string {
	vs := make([]string, 0, len(a.Coef))
	for k := range a.Coef {
		vs = append(vs, k)
	}
	sort.Strings(vs)
	return vs
}

// Equal reports structural equality.
func (a Affine) Equal(b Affine) bool {
	if a.Const != b.Const || len(a.Coef) != len(b.Coef) {
		return false
	}
	for k, v := range a.Coef {
		if b.Coef[k] != v {
			return false
		}
	}
	return true
}

// String renders the expression deterministically, e.g. "2*i + j - 3".
func (a Affine) String() string {
	var b strings.Builder
	first := true
	for _, v := range a.Vars() {
		c := a.Coef[v]
		switch {
		case first && c == 1:
			b.WriteString(v)
		case first && c == -1:
			b.WriteString("-" + v)
		case first:
			fmt.Fprintf(&b, "%d*%s", c, v)
		case c == 1:
			b.WriteString(" + " + v)
		case c == -1:
			b.WriteString(" - " + v)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, v)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, v)
		}
		first = false
	}
	switch {
	case first:
		fmt.Fprintf(&b, "%d", a.Const)
	case a.Const > 0:
		fmt.Fprintf(&b, " + %d", a.Const)
	case a.Const < 0:
		fmt.Fprintf(&b, " - %d", -a.Const)
	}
	return b.String()
}

// VarClass classifies a name appearing in an expression that is being
// converted to affine form.
type VarClass int

// Classifications returned by a ClassifyFunc.
const (
	ClassIter  VarClass = iota // a loop iterator: stays a variable
	ClassParam                 // a symbolic parameter: stays a variable
	ClassOther                 // anything else: the expression is not affine
)

// ClassifyFunc decides how an identifier is treated during extraction.
type ClassifyFunc func(name string) VarClass

// ErrNotAffine reports a subexpression that has no affine form.
type ErrNotAffine struct {
	Expr ast.Expr
}

// Error implements the error interface.
func (e *ErrNotAffine) Error() string {
	return fmt.Sprintf("%s: expression %q is not affine", e.Expr.Pos(), ast.PrintExpr(e.Expr))
}

// FromExpr converts a syntactic expression to affine form. Identifiers
// are classified by classify; integer literals, +, -, unary -, and
// multiplication by constants are affine; everything else fails with
// ErrNotAffine. sizes resolves sema constant folds for sub-expressions.
func FromExpr(e ast.Expr, classify ClassifyFunc) (Affine, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return NewAffine(x.Value), nil
	case *ast.CharLit:
		return NewAffine(x.Value), nil
	case *ast.Ident:
		switch classify(x.Name) {
		case ClassIter, ClassParam:
			return Var(x.Name), nil
		}
		return Affine{}, &ErrNotAffine{Expr: e}
	case *ast.ParenExpr:
		return FromExpr(x.X, classify)
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			a, err := FromExpr(x.X, classify)
			if err != nil {
				return Affine{}, err
			}
			return a.Scale(-1), nil
		}
		return Affine{}, &ErrNotAffine{Expr: e}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB:
			a, err := FromExpr(x.X, classify)
			if err != nil {
				return Affine{}, err
			}
			b, err := FromExpr(x.Y, classify)
			if err != nil {
				return Affine{}, err
			}
			if x.Op == token.ADD {
				return a.Add(b), nil
			}
			return a.Sub(b), nil
		case token.MUL:
			a, err := FromExpr(x.X, classify)
			if err != nil {
				return Affine{}, err
			}
			b, err := FromExpr(x.Y, classify)
			if err != nil {
				return Affine{}, err
			}
			if a.IsConst() {
				return b.Scale(a.Const), nil
			}
			if b.IsConst() {
				return a.Scale(b.Const), nil
			}
			return Affine{}, &ErrNotAffine{Expr: e}
		}
		return Affine{}, &ErrNotAffine{Expr: e}
	case *ast.CastExpr:
		return FromExpr(x.X, classify)
	}
	if v, ok := sema.ConstInt(e); ok {
		return NewAffine(v), nil
	}
	return Affine{}, &ErrNotAffine{Expr: e}
}
