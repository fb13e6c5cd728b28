package parser

import (
	"fmt"
	"math/rand"
	"testing"

	"purec/internal/ast"
	"purec/internal/token"
)

// wrappers each build one expression around e, the shapes whose levels
// the parser counts differently: operator chains on either side,
// prefix, cast, postfix, call, member, assignment and conditional links,
// and parentheses (inserted by the printer where the shape needs them).
var wrappers = []func(e ast.Expr) ast.Expr{
	func(e ast.Expr) ast.Expr { return &ast.BinaryExpr{X: e, Op: token.ADD, Y: one()} },
	func(e ast.Expr) ast.Expr { return &ast.BinaryExpr{X: one(), Op: token.SUB, Y: e} },
	func(e ast.Expr) ast.Expr { return &ast.BinaryExpr{X: one(), Op: token.LOR, Y: e} },
	func(e ast.Expr) ast.Expr { return &ast.UnaryExpr{Op: token.SUB, X: e} },
	func(e ast.Expr) ast.Expr { return &ast.ParenExpr{X: e} },
	func(e ast.Expr) ast.Expr { return &ast.IndexExpr{X: e, Index: one()} },
	func(e ast.Expr) ast.Expr { return &ast.IndexExpr{X: &ast.Ident{Name: "a"}, Index: e} },
	func(e ast.Expr) ast.Expr {
		return &ast.CallExpr{Fun: &ast.Ident{Name: "f"}, Args: []ast.Expr{one(), e}}
	},
	func(e ast.Expr) ast.Expr { return &ast.MemberExpr{X: e, Name: "m", Arrow: true} },
	func(e ast.Expr) ast.Expr { return &ast.PostfixExpr{X: e, Op: token.INC} },
	func(e ast.Expr) ast.Expr {
		return &ast.AssignExpr{LHS: &ast.Ident{Name: "x"}, Op: token.ADDASSIGN, RHS: e}
	},
	func(e ast.Expr) ast.Expr { return &ast.CondExpr{Cond: one(), Then: e, Else: one()} },
	func(e ast.Expr) ast.Expr { return &ast.CondExpr{Cond: e, Then: one(), Else: one()} },
	func(e ast.Expr) ast.Expr { return &ast.CondExpr{Cond: one(), Then: one(), Else: e} },
	func(e ast.Expr) ast.Expr {
		return &ast.CastExpr{Type: &ast.TypeExpr{Base: ast.Int}, X: e}
	},
	func(e ast.Expr) ast.Expr { return &ast.SizeofExpr{X: e} },
}

func one() ast.Expr { return &ast.IntLit{Value: 1} }

// inFunc places one expression statement and one statement into main.
func inFunc(s ast.Stmt) *ast.File {
	body := &ast.BlockStmt{List: []ast.Stmt{s, &ast.ReturnStmt{X: one()}}}
	return &ast.File{Name: "t.c", Decls: []ast.Decl{
		&ast.FuncDecl{Ret: &ast.TypeExpr{Base: ast.Int}, Name: "main", Body: body},
	}}
}

// sameLimitError: CheckNesting on a placed tree reports exactly what
// parsing the tree's printed text reports.
func sameLimitError(t *testing.T, name string, f *ast.File) (tooDeep bool) {
	t.Helper()
	src, err := ast.PrintPlaced(f, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, perr := Parse("t.c", src)
	cerr := CheckNesting(f, src)
	if fmt.Sprint(perr) != fmt.Sprint(cerr) {
		t.Fatalf("%s: CheckNesting says %v, the parse says %v", name, cerr, perr)
	}
	return perr != nil
}

func TestCheckNestingIsTheParse(t *testing.T) {
	// Statement levels: blocks, else-if chains and loops around an
	// expression that also counts, so the first limit hit is the one
	// in text order.
	for _, n := range []int{MaxStmtDepth - 1, MaxStmtDepth, MaxStmtDepth + 1} {
		var s ast.Stmt = &ast.ExprStmt{X: &ast.Ident{Name: "x"}}
		for i := 0; i < n; i++ {
			switch i % 4 {
			case 0:
				s = &ast.BlockStmt{List: []ast.Stmt{s}}
			case 1:
				s = &ast.IfStmt{Cond: one(), Then: &ast.EmptyStmt{}, Else: s}
			case 2:
				s = &ast.ForStmt{Cond: one(), Body: s}
			case 3:
				s = &ast.WhileStmt{Cond: one(), Body: s}
			}
		}
		if deep := sameLimitError(t, fmt.Sprintf("statements/%d", n), inFunc(s)); deep != (n > MaxStmtDepth) {
			t.Fatalf("statements/%d: too deep = %v", n, deep)
		}
	}
	// An operator chain whose last operand is nested parentheses enters
	// about one level per link and one per parenthesis, but its tree is
	// only as tall as the longer of the two: a check that measured tree
	// height would pass the 600 + 600 row.
	for _, n := range []int{400, 600} {
		parens := ast.Expr(&ast.Ident{Name: "x"})
		for i := 0; i < n; i++ {
			parens = &ast.ParenExpr{X: parens}
		}
		chain := one()
		for i := 1; i < n; i++ {
			chain = &ast.BinaryExpr{X: chain, Op: token.ADD, Y: one()}
		}
		chain = &ast.BinaryExpr{X: chain, Op: token.ADD, Y: parens}
		if deep := sameLimitError(t, fmt.Sprintf("chain+parens/%d", n), inFunc(&ast.ExprStmt{X: chain})); deep != (2*n > MaxExprDepth) {
			t.Fatalf("chain+parens/%d: too deep = %v", n, deep)
		}
	}
	// Expression levels: one shape repeated up to and past the limit,
	// then random mixes of every shape in every statement position.
	for w, wrap := range wrappers {
		deepAt := func(n int) bool {
			e := ast.Expr(&ast.Ident{Name: "x"})
			for i := 0; i < n; i++ {
				e = wrap(e)
			}
			return sameLimitError(t, fmt.Sprintf("wrapper %d × %d", w, n), inFunc(&ast.ExprStmt{X: e}))
		}
		lo, hi := 1, MaxExprDepth+1 // shallow at lo, too deep at hi
		if deepAt(lo) || !deepAt(hi) {
			t.Fatalf("wrapper %d: the limit is not between %d and %d applications", w, lo, hi)
		}
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; deepAt(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		t.Logf("wrapper %d: %d applications are too deep", w, hi)
	}
	r := rand.New(rand.NewSource(1))
	deep := 0
	for round := 0; round < 200; round++ {
		e := ast.Expr(&ast.Ident{Name: "x"})
		for n := 400 + r.Intn(900); n > 0; n-- {
			e = wrappers[r.Intn(len(wrappers))](e)
		}
		var s ast.Stmt
		switch round % 4 {
		case 0:
			s = &ast.ExprStmt{X: e}
		case 1:
			s = &ast.ReturnStmt{X: e}
		case 2:
			s = &ast.ForStmt{Post: e, Body: &ast.EmptyStmt{}}
		case 3:
			s = &ast.DeclStmt{Decls: []*ast.VarDecl{{Type: &ast.TypeExpr{Base: ast.Int}, Name: "v", Init: e}}}
		}
		if sameLimitError(t, fmt.Sprintf("random round %d", round), inFunc(s)) {
			deep++
		}
	}
	t.Logf("%d of 200 random expressions too deep", deep)
	if deep == 0 || deep == 200 {
		t.Errorf("%d of 200 random expressions too deep: the mix must land on both sides of the limit", deep)
	}
}
