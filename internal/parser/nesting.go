package parser

import "purec/internal/ast"

// CheckNesting returns the error parsing src, the text f prints
// (ast.PrintPlaced), reports for the nesting limits (MaxStmtDepth,
// MaxExprDepth), so a tree built by rewrites (tiling adds loop levels)
// is held to the limits of the text it prints. A walk that never counts
// fewer levels than the parser decides first whether src can be too
// deep; only then is src parsed, and that parse's error is the answer.
func CheckNesting(f *ast.File, src string) error {
	if !mayNestPast(f, 0) {
		return nil
	}
	_, err := Parse(f.Name, src)
	return err
}

// mayNestPast reports whether the statements under n, at statement
// depth depth, can nest past a limit. Statement levels are counted as
// the parser counts them (an else-if is one level deeper). An expression
// is measured by its node count: every level the parser enters builds a
// distinct node, so the count bounds the levels. Tree height does not:
// a+…+a+((…(a)…)) is as tall as the longer of its chain and its
// parentheses but enters a level for each link and each parenthesis.
func mayNestPast(n ast.Node, depth int) bool {
	past := false
	ast.Walk(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncDecl:
			// The body's braces are the function's, not a statement.
			past = past || x.Body != nil && mayNestPast(x.Body, depth)
			return false
		case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.WhileStmt, *ast.DoStmt, *ast.SwitchStmt:
			if m != n {
				past = past || depth == MaxStmtDepth || mayNestPast(m, depth+1)
				return false
			}
		case ast.Expr:
			nodes := 0
			ast.Walk(x, func(ast.Node) bool {
				nodes++
				return nodes <= MaxExprDepth
			})
			past = past || nodes > MaxExprDepth
			return false
		}
		return !past
	})
	return past
}
