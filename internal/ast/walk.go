package ast

import (
	"slices"

	"purec/internal/token"
)

// Visitor is invoked by Walk for each node; if the result is false the
// children of the node are not visited.
type Visitor func(Node) bool

// Walk traverses the tree rooted at n in depth-first order, calling v for
// every node before its children. Nil nodes are skipped.
func Walk(n Node, v Visitor) {
	if n == nil || isNilNode(n) {
		return
	}
	if !v(n) {
		return
	}
	switch x := n.(type) {
	case *File:
		for _, d := range x.Decls {
			Walk(d, v)
		}
	case *FuncDecl:
		for i := range x.Params {
			Walk(x.Params[i].Type, v)
		}
		Walk(x.Ret, v)
		if x.Body != nil {
			Walk(x.Body, v)
		}
	case *VarDeclGroup:
		for _, d := range x.Decls {
			Walk(d, v)
		}
	case *VarDecl:
		Walk(x.Type, v)
		for _, l := range x.ArrayLens {
			Walk(l, v)
		}
		Walk(x.Init, v)
	case *StructDecl:
		for i := range x.Fields {
			Walk(x.Fields[i].Type, v)
			for _, l := range x.Fields[i].ArrayLens {
				Walk(l, v)
			}
		}
	case *PragmaDecl, *PragmaStmt, *TypeExpr:
		// leaves
	case *DeclStmt:
		for _, d := range x.Decls {
			Walk(d, v)
		}
	case *ExprStmt:
		Walk(x.X, v)
	case *BlockStmt:
		for _, s := range x.List {
			Walk(s, v)
		}
	case *IfStmt:
		Walk(x.Cond, v)
		Walk(x.Then, v)
		Walk(x.Else, v)
	case *ForStmt:
		Walk(x.Init, v)
		Walk(x.Cond, v)
		Walk(x.Post, v)
		Walk(x.Body, v)
	case *WhileStmt:
		Walk(x.Cond, v)
		Walk(x.Body, v)
	case *DoStmt:
		Walk(x.Body, v)
		Walk(x.Cond, v)
	case *ReturnStmt:
		Walk(x.X, v)
	case *SwitchStmt:
		Walk(x.Tag, v)
		for _, c := range x.Cases {
			Walk(c, v)
		}
	case *CaseClause:
		Walk(x.Value, v)
		for _, s := range x.Body {
			Walk(s, v)
		}
	case *BinaryExpr:
		Walk(x.X, v)
		Walk(x.Y, v)
	case *UnaryExpr:
		Walk(x.X, v)
	case *PostfixExpr:
		Walk(x.X, v)
	case *AssignExpr:
		Walk(x.LHS, v)
		Walk(x.RHS, v)
	case *CondExpr:
		Walk(x.Cond, v)
		Walk(x.Then, v)
		Walk(x.Else, v)
	case *CallExpr:
		Walk(x.Fun, v)
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *IndexExpr:
		Walk(x.X, v)
		Walk(x.Index, v)
	case *MemberExpr:
		Walk(x.X, v)
	case *CastExpr:
		Walk(x.Type, v)
		Walk(x.X, v)
	case *SizeofExpr:
		Walk(x.Type, v)
		Walk(x.X, v)
	case *ParenExpr:
		Walk(x.X, v)
	}
}

// isNilNode reports whether n is a typed nil inside the Node interface.
func isNilNode(n Node) bool {
	switch x := n.(type) {
	case *TypeExpr:
		return x == nil
	case *BlockStmt:
		return x == nil
	case *Ident:
		return x == nil
	case *VarDecl:
		return x == nil
	}
	// Expr/Stmt interface values holding nil pointers of other concrete
	// types do not occur: the parser never stores them.
	return false
}

// Idents returns every identifier use under n in source order.
func Idents(n Node) []*Ident {
	var out []*Ident
	Walk(n, func(m Node) bool {
		if id, ok := m.(*Ident); ok {
			out = append(out, id)
		}
		return true
	})
	return out
}

// Assignments returns every assignment expression under n, including
// compound assignments; ++/-- are reported separately by IncDecs.
func Assignments(n Node) []*AssignExpr {
	var out []*AssignExpr
	Walk(n, func(m Node) bool {
		if a, ok := m.(*AssignExpr); ok {
			out = append(out, a)
		}
		return true
	})
	return out
}

// Update normalises an update expression to `lhs op= rhs`: op is
// token.ASSIGN for a plain store and the binary operator of a compound
// one; x++ and ++x are x += 1, x-- and --x are x -= 1, with a nil rhs.
// lhs is nil when e is no assignment, increment or decrement.
func Update(e Expr) (lhs Expr, op token.Kind, rhs Expr) {
	var step token.Kind
	switch u := e.(type) {
	case *AssignExpr:
		if bin, compound := u.Op.AssignBinOp(); compound {
			return u.LHS, bin, u.RHS
		}
		return u.LHS, token.ASSIGN, u.RHS
	case *PostfixExpr:
		lhs, step = u.X, u.Op
	case *UnaryExpr:
		lhs, step = u.X, u.Op
	}
	switch step {
	case token.INC:
		return lhs, token.ADD, nil
	case token.DEC:
		return lhs, token.SUB, nil
	}
	return nil, 0, nil
}

// MinMaxUpdateLV matches the canonical guarded min/max accumulator
// update statements
//
//	if (x < m) m = x;            (if-pattern; also with m on the left)
//	m = x < m ? x : m;           (conditional form; also keep-current)
//
// returning the accumulator m (the assignment target: a scalar or an
// array element, `if (x < lo[b[i]]) lo[b[i]] = x;`), the data
// expression x, and the direction: token.LSS for a minimum ("replace m
// when the data is smaller"), token.GTR for a maximum. The target
// expression must be syntactically identical everywhere it appears in
// the pattern (compared by printed form), and the data expression must
// not mention the target's base variable at all — a read of the
// accumulator array through another subscript is a real dependence,
// not a reduction. Only strict comparisons qualify — with <= or >= a
// tie overwrites the accumulator, which is not the fold the parallel
// combine performs (observable through float signed zeros).
func MinMaxUpdateLV(s Stmt) (target Expr, data Expr, dir token.Kind, ok bool) {
	fail := func() (Expr, Expr, token.Kind, bool) { return nil, nil, 0, false }
	switch x := s.(type) {
	case *IfStmt:
		if x.Else != nil {
			return fail()
		}
		cond, okC := Unparen(x.Cond).(*BinaryExpr)
		if !okC {
			return fail()
		}
		as := singleAssign(x.Then)
		if as == nil || as.Op != token.ASSIGN {
			return fail()
		}
		target = Unparen(as.LHS)
		base := BaseIdent(target)
		if base == nil {
			return fail()
		}
		data, smaller, okD := relAgainstExpr(cond, target, base.Name)
		if !okD || PrintExpr(Unparen(as.RHS)) != PrintExpr(data) {
			return fail()
		}
		// The if-form takes the data when the condition holds.
		if smaller {
			return target, data, token.LSS, true
		}
		return target, data, token.GTR, true
	case *ExprStmt:
		as, okA := x.X.(*AssignExpr)
		if !okA || as.Op != token.ASSIGN {
			return fail()
		}
		target = Unparen(as.LHS)
		base := BaseIdent(target)
		if base == nil {
			return fail()
		}
		ce, okCE := Unparen(as.RHS).(*CondExpr)
		if !okCE {
			return fail()
		}
		cond, okC := Unparen(ce.Cond).(*BinaryExpr)
		if !okC {
			return fail()
		}
		data, smaller, okD := relAgainstExpr(cond, target, base.Name)
		if !okD {
			return fail()
		}
		then, els := Unparen(ce.Then), Unparen(ce.Else)
		dataS, targetS := PrintExpr(data), PrintExpr(target)
		takeData := false
		switch {
		case PrintExpr(then) == dataS && PrintExpr(els) == targetS:
			takeData = true // m = cond ? x : m
		case PrintExpr(then) == targetS && PrintExpr(els) == dataS:
			takeData = false // m = cond ? m : x
		default:
			return fail()
		}
		// takeData: data replaces m exactly when the condition holds;
		// otherwise the condition holding keeps m.
		if takeData == smaller {
			return target, data, token.LSS, true
		}
		return target, data, token.GTR, true
	}
	return fail()
}

// BaseIdent returns the base identifier of an lvalue expression: the
// identifier itself, or the root array of an index chain like
// A[i][j]. Nil when the expression has no identifier base.
func BaseIdent(e Expr) *Ident {
	for {
		switch x := Unparen(e).(type) {
		case *Ident:
			return x
		case *IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// relAgainstExpr interprets a strict comparison with the accumulator
// lvalue on one side (matched by printed form): it returns the other
// side (the data expression) and whether a true condition means the
// data is smaller than the accumulator. The data side must not mention
// the accumulator's base variable.
func relAgainstExpr(cond *BinaryExpr, target Expr, baseName string) (data Expr, smaller, ok bool) {
	if cond.Op != token.LSS && cond.Op != token.GTR {
		return nil, false, false
	}
	targetS := PrintExpr(target)
	switch {
	case PrintExpr(Unparen(cond.X)) == targetS && !mentions(cond.Y, baseName):
		// m < x: data larger when true; m > x: data smaller.
		return cond.Y, cond.Op == token.GTR, true
	case PrintExpr(Unparen(cond.Y)) == targetS && !mentions(cond.X, baseName):
		// x < m: data smaller when true; x > m: data larger.
		return cond.X, cond.Op == token.LSS, true
	}
	return nil, false, false
}

func mentions(e Expr, name string) bool {
	found := false
	Walk(e, func(n Node) bool {
		if id, ok := n.(*Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// singleAssign unwraps a statement (possibly a one-statement block)
// into its single assignment expression, nil otherwise.
func singleAssign(s Stmt) *AssignExpr {
	if b, ok := s.(*BlockStmt); ok {
		if len(b.List) != 1 {
			return nil
		}
		s = b.List[0]
	}
	es, ok := s.(*ExprStmt)
	if !ok {
		return nil
	}
	as, ok := es.X.(*AssignExpr)
	if !ok {
		return nil
	}
	return as
}

// Unparen strips any number of enclosing parentheses from an
// expression — the shared helper behind every structural matcher that
// must see through (x).
func Unparen(e Expr) Expr {
	for {
		p, ok := e.(*ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// IndexChain flattens A[e1][e2]... into its subscripts, outermost
// first, and the base the chain indexes (e itself when it is not an
// IndexExpr).
func IndexChain(e Expr) (subs []Expr, base Expr) {
	base = e
	for {
		ix, ok := base.(*IndexExpr)
		if !ok {
			slices.Reverse(subs)
			return subs, base
		}
		subs = append(subs, ix.Index)
		base = ix.X
	}
}

// RewriteExpr applies f to every expression under n bottom-up, replacing
// each expression by f's result. It covers the expression positions of all
// statement and declaration forms.
func RewriteExpr(n Node, f func(Expr) Expr) {
	var rw func(e Expr) Expr
	rw = func(e Expr) Expr {
		if e == nil {
			return nil
		}
		switch x := e.(type) {
		case *BinaryExpr:
			x.X, x.Y = rw(x.X), rw(x.Y)
		case *UnaryExpr:
			x.X = rw(x.X)
		case *PostfixExpr:
			x.X = rw(x.X)
		case *AssignExpr:
			x.LHS, x.RHS = rw(x.LHS), rw(x.RHS)
		case *CondExpr:
			x.Cond, x.Then, x.Else = rw(x.Cond), rw(x.Then), rw(x.Else)
		case *CallExpr:
			for i := range x.Args {
				x.Args[i] = rw(x.Args[i])
			}
		case *IndexExpr:
			x.X, x.Index = rw(x.X), rw(x.Index)
		case *MemberExpr:
			x.X = rw(x.X)
		case *CastExpr:
			x.X = rw(x.X)
		case *SizeofExpr:
			x.X = rw(x.X)
		case *ParenExpr:
			x.X = rw(x.X)
		}
		return f(e)
	}
	var ws func(s Stmt)
	ws = func(s Stmt) {
		switch x := s.(type) {
		case *DeclStmt:
			for _, d := range x.Decls {
				d.Init = rw(d.Init)
				for i := range d.ArrayLens {
					d.ArrayLens[i] = rw(d.ArrayLens[i])
				}
			}
		case *ExprStmt:
			x.X = rw(x.X)
		case *BlockStmt:
			for _, s2 := range x.List {
				ws(s2)
			}
		case *IfStmt:
			x.Cond = rw(x.Cond)
			ws(x.Then)
			if x.Else != nil {
				ws(x.Else)
			}
		case *ForStmt:
			if x.Init != nil {
				ws(x.Init)
			}
			x.Cond = rw(x.Cond)
			x.Post = rw(x.Post)
			ws(x.Body)
		case *WhileStmt:
			x.Cond = rw(x.Cond)
			ws(x.Body)
		case *DoStmt:
			ws(x.Body)
			x.Cond = rw(x.Cond)
		case *ReturnStmt:
			x.X = rw(x.X)
		case *SwitchStmt:
			x.Tag = rw(x.Tag)
			for _, c := range x.Cases {
				c.Value = rw(c.Value)
				for _, s2 := range c.Body {
					ws(s2)
				}
			}
		}
	}
	switch x := n.(type) {
	case *File:
		for _, d := range x.Decls {
			RewriteExpr(d, f)
		}
	case *FuncDecl:
		if x.Body != nil {
			ws(x.Body)
		}
	case *VarDeclGroup:
		for _, d := range x.Decls {
			d.Init = rw(d.Init)
			for i := range d.ArrayLens {
				d.ArrayLens[i] = rw(d.ArrayLens[i])
			}
		}
	default:
		if s, ok := n.(Stmt); ok {
			ws(s)
		} else if e, ok := n.(Expr); ok {
			rw(e)
		}
	}
}
