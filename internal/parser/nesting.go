package parser

import (
	"purec/internal/ast"
	"purec/internal/token"
)

// CheckNesting applies the nesting limits (MaxStmtDepth, MaxExprDepth)
// to a tree that is already placed where its printed text puts it
// (ast.PrintPlaced), and returns the error parsing that text would
// report: the first limit the parser would hit, at the same position,
// with the same message. It counts levels as the parser does — an else
// if is one statement level deeper, and each link of an operator or
// postfix chain one expression level — so a tree built by rewrites
// (tiling adds loop levels) is held to the limits of the text it prints.
func CheckNesting(f *ast.File) error {
	for _, d := range f.Decls {
		var err error
		switch x := d.(type) {
		case *ast.VarDeclGroup:
			err = varDecls(x.Decls)
		case *ast.StructDecl:
			for _, fld := range x.Fields {
				if err = exprs(fld.ArrayLens); err != nil {
					break
				}
			}
		case *ast.FuncDecl:
			if x.Body != nil {
				err = stmts(x.Body.List, 0)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func varDecls(ds []*ast.VarDecl) error {
	for _, d := range ds {
		if err := exprs(d.ArrayLens); err != nil {
			return err
		}
		if d.Init != nil {
			if err := assignExpr(d.Init, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

func exprs(es []ast.Expr) error {
	for _, e := range es {
		if err := assignExpr(e, 0); err != nil {
			return err
		}
	}
	return nil
}

func stmts(list []ast.Stmt, depth int) error {
	for _, s := range list {
		if err := stmt(s, depth); err != nil {
			return err
		}
	}
	return nil
}

// stmt mirrors parser.stmt at statement depth depth.
func stmt(s ast.Stmt, depth int) error {
	switch s.(type) {
	case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.WhileStmt, *ast.DoStmt, *ast.SwitchStmt:
		if depth == MaxStmtDepth {
			return tooDeep(s.Pos(), "statement", MaxStmtDepth)
		}
		depth++
	}
	opt := func(e ast.Expr) error {
		if e == nil {
			return nil
		}
		return assignExpr(e, 0)
	}
	switch x := s.(type) {
	case *ast.BlockStmt:
		return stmts(x.List, depth)
	case *ast.IfStmt:
		if err := opt(x.Cond); err != nil {
			return err
		}
		if err := stmt(x.Then, depth); err != nil {
			return err
		}
		if x.Else != nil {
			return stmt(x.Else, depth)
		}
	case *ast.ForStmt:
		switch init := x.Init.(type) {
		case *ast.DeclStmt:
			if err := varDecls(init.Decls); err != nil {
				return err
			}
		case *ast.ExprStmt:
			if err := opt(init.X); err != nil {
				return err
			}
		}
		if err := opt(x.Cond); err != nil {
			return err
		}
		if err := opt(x.Post); err != nil {
			return err
		}
		return stmt(x.Body, depth)
	case *ast.WhileStmt:
		if err := opt(x.Cond); err != nil {
			return err
		}
		return stmt(x.Body, depth)
	case *ast.DoStmt:
		if err := stmt(x.Body, depth); err != nil {
			return err
		}
		return opt(x.Cond)
	case *ast.SwitchStmt:
		if err := opt(x.Tag); err != nil {
			return err
		}
		for _, c := range x.Cases {
			if err := opt(c.Value); err != nil {
				return err
			}
			if err := stmts(c.Body, depth); err != nil {
				return err
			}
		}
	case *ast.DeclStmt:
		return varDecls(x.Decls)
	case *ast.ExprStmt:
		return opt(x.X)
	case *ast.ReturnStmt:
		return opt(x.X)
	}
	return nil
}

// deeper is parser.deeper: entering level depth at pos.
func deeper(depth int, pos token.Pos) error {
	if depth > MaxExprDepth {
		return tooDeep(pos, "expression", MaxExprDepth)
	}
	return nil
}

// assignExpr mirrors parser.assignExpr at expression depth depth.
func assignExpr(e ast.Expr, depth int) error {
	x, ok := e.(*ast.AssignExpr)
	if !ok {
		return condExpr(e, depth)
	}
	if err := condExpr(x.LHS, depth); err != nil {
		return err
	}
	if err := deeper(depth+1, x.RHS.Pos()); err != nil {
		return err
	}
	return assignExpr(x.RHS, depth+1)
}

// condExpr mirrors parser.condExpr.
func condExpr(e ast.Expr, depth int) error {
	x, ok := e.(*ast.CondExpr)
	if !ok {
		_, err := binChain(e, depth)
		return err
	}
	if _, err := binChain(x.Cond, depth); err != nil {
		return err
	}
	if err := deeper(depth+1, x.Then.Pos()); err != nil {
		return err
	}
	if err := assignExpr(x.Then, depth+1); err != nil {
		return err
	}
	return condExpr(x.Else, depth+1)
}

// binChain mirrors parser.binExpr: the left spine of a placed operator
// chain is one binExpr loop, whose k-th link parses its right operand
// k levels deeper. It returns the depth of the chain's last link.
func binChain(e ast.Expr, depth int) (int, error) {
	x, ok := e.(*ast.BinaryExpr)
	if !ok {
		return depth, unaryExpr(e, depth)
	}
	d, err := binChain(x.X, depth)
	if err != nil {
		return 0, err
	}
	d++
	if err := deeper(d, x.Y.Pos()); err != nil {
		return 0, err
	}
	_, err = binChain(x.Y, d)
	return d, err
}

// unaryExpr mirrors parser.unaryExpr and parser.unary.
func unaryExpr(e ast.Expr, depth int) error {
	depth++
	if err := deeper(depth, e.Pos()); err != nil {
		return err
	}
	switch x := e.(type) {
	case *ast.UnaryExpr:
		return unaryExpr(x.X, depth)
	case *ast.CastExpr:
		return unaryExpr(x.X, depth)
	case *ast.SizeofExpr:
		if x.X != nil {
			return unaryExpr(x.X, depth)
		}
		return nil
	}
	_, err := postfixChain(e, depth)
	return err
}

// postfixChain mirrors parser.postfixExpr: every postfix link is one
// level deeper than the one it applies to, counted at its operator
// token, which directly follows the operand's text. It returns the depth
// of e's last link.
func postfixChain(e ast.Expr, depth int) (int, error) {
	var base ast.Expr
	switch x := e.(type) {
	case *ast.IndexExpr:
		base = x.X
	case *ast.CallExpr:
		base = x.Fun
	case *ast.MemberExpr:
		base = x.X
	case *ast.PostfixExpr:
		base = x.X
	case *ast.ParenExpr:
		return depth, assignExpr(x.X, depth)
	default:
		return depth, nil
	}
	d, err := postfixChain(base, depth)
	if err != nil {
		return 0, err
	}
	if d++; d > MaxExprDepth {
		return 0, tooDeep(after(base), "expression", MaxExprDepth)
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		err = assignExpr(x.Index, d)
	case *ast.CallExpr:
		for _, a := range x.Args {
			if err = assignExpr(a, d); err != nil {
				break
			}
		}
	}
	return d, err
}

// after is the position just past a placed expression's text.
func after(e ast.Expr) token.Pos {
	pos := e.Pos()
	pos.Col += len(ast.PrintExpr(e))
	return pos
}
