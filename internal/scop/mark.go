package scop

import (
	"fmt"
	"strings"

	"purec/internal/ast"
)

// MarkPragmas surrounds every detected SCoP's outer loop with
// #pragma scop / #pragma endscop statements, rewriting the enclosing
// function bodies in place — the marking step of the paper's PC-CC stage.
func MarkPragmas(scops []*SCoP) {
	for _, sc := range scops {
		insertAround(sc.Func.Body, sc.Outer,
			&ast.PragmaStmt{PragmaPos: sc.Outer.Pos(), Text: "#pragma scop"},
			&ast.PragmaStmt{PragmaPos: sc.Outer.Pos(), Text: "#pragma endscop"})
	}
}

// insertAround walks the statement tree and brackets target with before/
// after wherever it appears in a block.
func insertAround(b *ast.BlockStmt, target ast.Stmt, before, after ast.Stmt) bool {
	for i, s := range b.List {
		if s == target {
			out := make([]ast.Stmt, 0, len(b.List)+2)
			out = append(out, b.List[:i]...)
			out = append(out, before, target, after)
			out = append(out, b.List[i+1:]...)
			b.List = out
			return true
		}
		if inner, ok := s.(*ast.BlockStmt); ok {
			if insertAround(inner, target, before, after) {
				return true
			}
		}
		if f, ok := s.(*ast.ForStmt); ok {
			if inner, ok := f.Body.(*ast.BlockStmt); ok && insertAround(inner, target, before, after) {
				return true
			}
		}
		if iff, ok := s.(*ast.IfStmt); ok {
			if inner, ok := iff.Then.(*ast.BlockStmt); ok && insertAround(inner, target, before, after) {
				return true
			}
			if inner, ok := iff.Else.(*ast.BlockStmt); ok && insertAround(inner, target, before, after) {
				return true
			}
		}
	}
	return false
}

// Substitution records one temporarily replaced pure call, keyed by the
// unique placeholder name (the paper's tmpConst_fnAB mechanism).
type Substitution struct {
	Name string
	Call *ast.CallExpr
}

// SubstituteCalls replaces every pure call in the SCoP body by a unique
// placeholder identifier tmpConst_<fn>_<k> so the polyhedral stage sees
// the calls as constants (Sect. 3.3). It returns the substitutions needed
// to restore them, and records them in sc.Substituted.
func SubstituteCalls(sc *SCoP) []Substitution {
	var subs []Substitution
	seq := 0
	for _, stmt := range sc.BodyStmts {
		ast.RewriteExpr(stmt, func(e ast.Expr) ast.Expr {
			call, ok := e.(*ast.CallExpr)
			if !ok || !isPureCallOf(sc, call) {
				return e
			}
			name := fmt.Sprintf("tmpConst_%s_%d", call.Fun.Name, seq)
			seq++
			subs = append(subs, Substitution{Name: name, Call: call})
			return &ast.Ident{NamePos: call.Pos(), Name: name}
		})
	}
	sc.Substituted = subs
	return subs
}

// Placeholder returns the call that the placeholder name stands for
// while SubstituteCalls has the calls out of the body, nil when name is
// no placeholder of sc.
func (sc *SCoP) Placeholder(name string) *ast.CallExpr {
	if !IsPlaceholder(name) {
		return nil
	}
	for _, s := range sc.Substituted {
		if s.Name == name {
			return s.Call
		}
	}
	return nil
}

// RestoreCalls re-inserts the substituted calls, the inverse of
// SubstituteCalls after the polyhedral stage has finished.
func RestoreCalls(sc *SCoP, subs []Substitution) {
	byName := make(map[string]*ast.CallExpr, len(subs))
	for _, s := range subs {
		byName[s.Name] = s.Call
	}
	// A call nested in the arguments of another was substituted first,
	// so its placeholder sits inside the outer call: restore into the
	// arguments of every call put back.
	var restore func(e ast.Expr) ast.Expr
	restore = func(e ast.Expr) ast.Expr {
		id, ok := e.(*ast.Ident)
		if !ok {
			return e
		}
		if call, hit := byName[id.Name]; hit {
			ast.RewriteExpr(call, restore)
			return call
		}
		return e
	}
	for _, stmt := range sc.BodyStmts {
		ast.RewriteExpr(stmt, restore)
	}
	sc.Substituted = nil
}

// IsPlaceholder reports whether name is a tmpConst_ substitution
// placeholder.
func IsPlaceholder(name string) bool { return strings.HasPrefix(name, "tmpConst_") }

func isPureCallOf(sc *SCoP, call *ast.CallExpr) bool {
	for _, c := range sc.PureCalls {
		if c == call {
			return true
		}
	}
	return false
}
