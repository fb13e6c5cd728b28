// Package omp reads the OpenMP pragmas purec executes. It is the one
// place that decides what a `#pragma omp parallel for` line says and
// which update in the annotated loop each of its reduction clauses
// binds: the compiler (internal/comp) asks at build time and the
// interpreter oracle (internal/interp) at load time, so the two accept
// the same pragmas and reject a malformed one with the same text.
//
// Parse reads the pragma text; ReductionUpdate is the one definition
// of a reduction update, which scop recognizes with too; Resolve binds
// one reduction clause to its accumulator update; Bind composes them
// with the canonical-loop test for one pragma and the loop it
// annotates. Execution stays with the callers: the compiler turns
// bound sites into private slots, the oracle runs every loop serially.
package omp

import (
	"fmt"
	"strings"

	"purec/internal/ast"
	"purec/internal/rt"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// ops is the reduction-operator table: the clause spelling of every
// operator purec parallelizes and the token it reduces with. min and
// max map to the comparison markers of ast.MinMaxUpdateLV (LSS = min,
// GTR = max). "-" reduces by negation onto "+": OpenMP gives it the
// identity and combiner of "+", and the loop body applies the
// subtractions.
var ops = [...]struct {
	text string
	kind token.Kind
}{
	{"+", token.ADD}, {"-", token.SUB}, {"*", token.MUL},
	{"&", token.AND}, {"|", token.OR}, {"^", token.XOR},
	{"min", token.LSS}, {"max", token.GTR},
}

// Pragma is the typed reading of one pragma line. Only an
// `omp parallel for` pragma has clauses purec acts on; any other
// pragma reads as the zero Pragma.
type Pragma struct {
	ParallelFor bool
	// Schedule and Chunk are the schedule clause as rt.ParseSchedule
	// reads it (static with chunk 0 when the clause is absent).
	Schedule rt.Schedule
	Chunk    int
	// Reductions lists the reduction clauses in order, one entry per
	// variable of a list like reduction(+:a,b).
	Reductions []Clause
}

// Clause is one reduction(op:var) entry.
type Clause struct {
	// Op is the operator as written: "+", "min", "/", ...
	Op string
	// Kind is Op's token from the operator table, token.ILLEGAL for an
	// operator outside the parallelized set.
	Kind token.Kind
	// Var is the accumulator name, without the [] suffix.
	Var string
	// Array marks reduction(op:A[]): the whole array is privatized.
	Array bool
}

// ClauseFor is the clause of a recognized reduction with operator kind
// — the operator table read in the direction transform writes.
func ClauseFor(kind token.Kind, name string, array bool) Clause {
	for _, o := range ops {
		if o.kind == kind {
			return Clause{Op: o.text, Kind: kind, Var: name, Array: array}
		}
	}
	return Clause{Op: kind.String(), Var: name, Array: array}
}

// Parallel reports whether the operator is in the parallelized set; a
// loop with any other clause runs serially.
func (c Clause) Parallel() bool { return c.Kind != token.ILLEGAL }

func (c Clause) minMax() bool { return c.Kind == token.LSS || c.Kind == token.GTR }

// Spec renders the clause body, "op:var" or "op:var[]".
func (c Clause) Spec() string {
	if c.Array {
		return c.Op + ":" + c.Var + "[]"
	}
	return c.Op + ":" + c.Var
}

// String renders the clause as transform emits it.
func (c Clause) String() string { return "reduction(" + c.Spec() + ")" }

// Parse reads a pragma line. A pragma other than `#pragma omp parallel
// for` reads as the zero Pragma and never fails; on a parallel-for
// pragma an unknown schedule, an unterminated clause or a reduction
// clause without an operator or a variable is an error. Clauses purec
// does not act on (private, ...) are skipped.
func Parse(text string) (Pragma, error) {
	rest := strings.TrimPrefix(strings.TrimSpace(text), "#")
	for _, want := range [...]string{"pragma", "omp", "parallel", "for"} {
		var w string
		if w, rest = word(rest); w != want {
			return Pragma{}, nil
		}
	}
	p := Pragma{ParallelFor: true}
	for {
		name, after := word(rest)
		if name == "" {
			if rest = strings.TrimSpace(rest); rest != "" {
				return Pragma{}, fmt.Errorf("unexpected %q in omp pragma", rest)
			}
			return p, nil
		}
		rest = strings.TrimSpace(after)
		args := ""
		if strings.HasPrefix(rest, "(") {
			end := strings.IndexByte(rest, ')')
			if end < 0 {
				return Pragma{}, fmt.Errorf("unterminated %s clause", name)
			}
			args, rest = rest[1:end], rest[end+1:]
		}
		var err error
		switch name {
		case "schedule":
			p.Schedule, p.Chunk, err = rt.ParseSchedule(strings.TrimSpace(args))
		case "reduction":
			err = p.addReductions(args)
		}
		if err != nil {
			return Pragma{}, err
		}
	}
}

// addReductions appends the entries of one reduction(op:v1,v2) clause.
func (p *Pragma) addReductions(args string) error {
	op, vars, ok := strings.Cut(args, ":")
	if op = strings.TrimSpace(op); !ok || op == "" {
		return fmt.Errorf("malformed reduction(%s) clause", args)
	}
	kind := token.ILLEGAL
	for _, o := range ops {
		if o.text == op {
			kind = o.kind
		}
	}
	for _, v := range strings.Split(vars, ",") {
		name, array := strings.CutSuffix(strings.TrimSpace(v), "[]")
		if name = strings.TrimSpace(name); name == "" {
			return fmt.Errorf("malformed reduction(%s) clause", args)
		}
		p.Reductions = append(p.Reductions, Clause{Op: op, Kind: kind, Var: name, Array: array})
	}
	return nil
}

// word splits the leading identifier off s, after any white space.
func word(s string) (w, rest string) {
	s = strings.TrimSpace(s)
	n := 0
	for n < len(s) && (s[n] == '_' || 'a' <= s[n] && s[n] <= 'z' || 'A' <= s[n] && s[n] <= 'Z' || '0' <= s[n] && s[n] <= '9') {
		n++
	}
	return s[:n], s[n:]
}

// Region is an omp parallel-for pragma bound to the loop it annotates.
type Region struct {
	Pragma
	// Sites holds, per entry of Reductions, the base identifier of the
	// accumulator update the clause binds. A nil site marks a clause
	// that cannot run in parallel, so the loop runs serially.
	Sites []*ast.Ident
}

// Bind reads pragma pr, which annotates loop f, and binds every one of
// its reduction clauses before the caller decides anything: the whole
// validation of a pragma, run by the compiler at build and by the
// interpreter at load. A pragma that is not `omp parallel for` binds to
// nil. Errors carry the position of the pragma (text errors) or of the
// loop (a non-canonical loop, a clause that binds nothing).
func Bind(info *sema.Info, pr *ast.PragmaStmt, f *ast.ForStmt) (*Region, error) {
	p, err := Parse(pr.Text)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", pr.Pos(), err)
	}
	if !p.ParallelFor {
		return nil, nil
	}
	if l, ok := Canonical(info, f); !ok || l.Iter.Kind == sema.SymGlobal {
		return nil, fmt.Errorf("%s: #pragma omp parallel for requires a canonical loop (int i = lb; i < ub; i++)", f.Pos())
	}
	r := &Region{Pragma: p, Sites: make([]*ast.Ident, len(p.Reductions))}
	for i, c := range p.Reductions {
		if r.Sites[i], err = Resolve(info, f, c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Resolve binds clause c of the pragma annotating loop f to the update
// it names, returning the base identifier of the accumulator there:
//
//   - +, -, *, &, |, ^: a ReductionUpdate with the clause's operator
//     whose accumulator is the scalar, or for reduction(op:A[]) an
//     element of the array;
//   - min/max: some plain assignment to the accumulator (the scalar, or
//     an element of the array) must exist; the site is the guarded
//     update `if (x < m) m = x;` or its ?: form in the clause's
//     direction (ast.MinMaxUpdateLV).
//
// Variables declared inside the loop shadow the name, are private
// already and never bind. A clause with no binding update, or a scalar
// clause whose accumulator is an array or a pointer, is an error. A nil
// site without an error means the clause is well formed but cannot run
// in parallel: its operator is outside the set, or a min/max
// accumulator is assigned without the guarded pattern.
func Resolve(info *sema.Info, f *ast.ForStmt, c Clause) (*ast.Ident, error) {
	if !c.Parallel() {
		return nil, nil
	}
	inner := map[*ast.VarDecl]bool{}
	ast.Walk(f.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok {
			for _, vd := range d.Decls {
				inner[vd] = true
			}
		}
		return true
	})
	bind := func(lv ast.Expr) *ast.Ident {
		var base *ast.Ident
		if !c.Array {
			base, _ = lv.(*ast.Ident)
		} else if ix, ok := ast.Unparen(lv).(*ast.IndexExpr); ok {
			base = ast.BaseIdent(ix)
		}
		if base == nil || base.Name != c.Var {
			return nil
		}
		if sym := info.Ref[base]; sym == nil || (sym.Decl != nil && inner[sym.Decl]) {
			return nil
		}
		return base
	}
	var site *ast.Ident
	if c.minMax() {
		assigned := false
		for _, as := range ast.Assignments(f.Body) {
			if as.Op == token.ASSIGN && bind(as.LHS) != nil {
				assigned = true
				break
			}
		}
		if !assigned {
			return nil, c.unbound(f)
		}
		ast.Walk(f.Body, func(n ast.Node) bool {
			if s, ok := n.(ast.Stmt); ok && site == nil {
				if target, _, dir, ok := ast.MinMaxUpdateLV(s); ok && dir == c.Kind {
					site = bind(target)
				}
			}
			return site == nil
		})
		if site == nil {
			return nil, nil
		}
	} else {
		ast.Walk(f.Body, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && site == nil {
				if acc, _, kind := ReductionUpdate(e); kind == c.Kind {
					site = bind(acc)
				}
			}
			return site == nil
		})
		if site == nil {
			return nil, c.unbound(f)
		}
	}
	if sym := info.Ref[site]; !c.Array && (sym.IsArray() || sym.Type == nil || sym.Type.IsPtr()) {
		return nil, fmt.Errorf("%s: %s names a non-scalar accumulator", f.Pos(), c)
	}
	return site, nil
}

// ReductionUpdate is the one definition of a reduction update: Resolve
// binds clauses to it and scop recognizes the reductions transform
// writes clauses for with it. It reports the accumulator lvalue e
// updates, the operand e folds into it (nil for ++ and --) and the
// operator, for
//
//   - `acc op= data` with op from the operator table;
//   - `s = s - data` on a scalar s, the spelled-out "-" update
//     (s = data - s is not one);
//   - `A[e]++` and `A[e]--` on an array element, sum contributions
//     of the "+" clause.
//
// acc is nil and kind token.ILLEGAL when e is no reduction update.
func ReductionUpdate(e ast.Expr) (acc, data ast.Expr, kind token.Kind) {
	lhs, op, rhs := ast.Update(e)
	switch {
	case lhs == nil:
	case rhs == nil:
		if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			return lhs, nil, token.ADD
		}
	case op == token.ASSIGN:
		s, isID := lhs.(*ast.Ident)
		if b, ok := ast.Unparen(rhs).(*ast.BinaryExpr); isID && ok && b.Op == token.SUB {
			if x, ok := ast.Unparen(b.X).(*ast.Ident); ok && x.Name == s.Name {
				return lhs, b.Y, token.SUB
			}
		}
	default:
		for _, o := range ops {
			if o.kind == op {
				return lhs, rhs, op
			}
		}
	}
	return nil, nil, token.ILLEGAL
}

// unbound is the error of a clause whose loop has no update to bind.
func (c Clause) unbound(f *ast.ForStmt) error {
	lhs, op := c.Var, c.Op+"="
	if c.Array {
		lhs += "[...]"
	}
	if c.minMax() {
		op = "="
	}
	return fmt.Errorf("%s: %s has no matching '%s %s' update in the annotated loop", f.Pos(), c, lhs, op)
}

// Loop is the shape of a canonical loop, `for (int i = lb; i < ub; i++)`:
// the iterator may also be assigned (`i = lb`), the bound inclusive
// (`i <= ub`) and the step `++i` or `i += 1`; parentheses around the
// iterator are allowed.
type Loop struct {
	// Iter is the iterator, an int scalar.
	Iter  *sema.Symbol
	Lower ast.Expr
	// Upper is the condition's bound as written; Inclusive marks `<=`.
	Upper     ast.Expr
	Inclusive bool
}

// Canonical matches f against the canonical shape: the loops an omp
// parallel for may annotate (with a local iterator), the only loops the
// compiler fuses, and the loops value-range analysis bounds exactly.
func Canonical(info *sema.Info, f *ast.ForStmt) (Loop, bool) {
	var l Loop
	var name string
	switch init := f.Init.(type) {
	case *ast.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			return l, false
		}
		name, l.Lower = init.Decls[0].Name, init.Decls[0].Init
	case *ast.ExprStmt:
		as, ok := init.X.(*ast.AssignExpr)
		if !ok || as.Op != token.ASSIGN {
			return l, false
		}
		id, ok := ast.Unparen(as.LHS).(*ast.Ident)
		if !ok {
			return l, false
		}
		name, l.Lower = id.Name, as.RHS
	default:
		return l, false
	}
	cond, ok := ast.Unparen(f.Cond).(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return l, false
	}
	id, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok || id.Name != name {
		return l, false
	}
	l.Iter = info.Ref[id]
	if l.Iter == nil || l.Iter.IsArray() || l.Iter.Type == nil || l.Iter.Type.Kind != types.Int {
		return l, false
	}
	l.Upper, l.Inclusive = cond.Y, cond.Op == token.LEQ
	var step ast.Expr
	switch post := f.Post.(type) {
	case *ast.PostfixExpr:
		if post.Op == token.INC {
			step = post.X
		}
	case *ast.UnaryExpr:
		if post.Op == token.INC {
			step = post.X
		}
	case *ast.AssignExpr:
		if v, ok := sema.ConstInt(post.RHS); post.Op == token.ADDASSIGN && ok && v == 1 {
			step = post.LHS
		}
	}
	if s, ok := ast.Unparen(step).(*ast.Ident); !ok || s.Name != name {
		return l, false
	}
	return l, true
}
