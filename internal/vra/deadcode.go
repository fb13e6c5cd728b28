package vra

import (
	"fmt"

	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
)

// deadCode runs the liveness diagnostics per function: locals that are
// declared but never used, and stores whose value is never read —
// either because the variable has no reads at all, or because a later
// store in the same straight-line block overwrites it first.
// Address-taken variables are exempt (a pointer may read them), as are
// globals and parameters.
func (a *analyzer) deadCode() {
	d := &liveness{
		a:           a,
		reads:       map[*sema.Symbol]int{},
		stores:      map[*sema.Symbol][]*ast.AssignExpr{},
		pending:     map[*sema.Symbol]*ast.AssignExpr{},
		overwritten: map[*ast.AssignExpr]bool{},
	}
	for _, fd := range a.info.File.Funcs() {
		if fd.Body == nil {
			continue
		}
		d.function(fd)
	}
}

// liveness holds the maps of the dead-code pass, cleared per function
// (and pending per block) rather than made anew. A store is kept as its
// assignment node and printed only into a finding.
type liveness struct {
	a           *analyzer
	reads       map[*sema.Symbol]int
	stores      map[*sema.Symbol][]*ast.AssignExpr
	pending     map[*sema.Symbol]*ast.AssignExpr
	overwritten map[*ast.AssignExpr]bool
}

func (d *liveness) eligible(sym *sema.Symbol) bool {
	return sym != nil && sym.Kind == sema.SymLocal && !sym.IsArray() &&
		!d.a.addrTaken[sym]
}

func (d *liveness) function(fd *ast.FuncDecl) {
	a := d.a
	clear(d.reads)
	clear(d.stores)
	clear(d.overwritten)

	// Reference census: every identifier occurrence is a use, except
	// the target of a plain assignment (compound assigns and ++/--
	// read the old value, so their targets stay uses). The walk is
	// pre-order, so it meets an assignment before the target
	// identifier under its parentheses.
	var target *ast.Ident
	ast.Walk(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignExpr:
			if x.Op != token.ASSIGN {
				break
			}
			if id, ok := ast.Unparen(x.LHS).(*ast.Ident); ok {
				target = id
				if sym := a.info.Ref[id]; d.eligible(sym) {
					d.stores[sym] = append(d.stores[sym], x)
				}
			}
		case *ast.Ident:
			if x == target {
				target = nil
			} else if sym := a.info.Ref[x]; sym != nil {
				d.reads[sym]++
			}
		}
		return true
	})

	for _, sym := range a.info.FuncLocals[fd.Name] {
		if !d.eligible(sym) || sym.Decl == nil || d.reads[sym] > 0 {
			continue
		}
		switch {
		case len(d.stores[sym]) == 0:
			a.res.Findings = append(a.res.Findings, Finding{
				Kind: UnusedVar,
				Pos:  sym.Decl.Pos(),
				Expr: sym.Name,
				Msg: fmt.Sprintf("%s is declared but never used (declared at %s)",
					sym.Name, sym.Decl.Pos()),
			})
		default:
			for _, as := range d.stores[sym] {
				expr := ast.PrintExpr(as)
				a.res.Findings = append(a.res.Findings, Finding{
					Kind: DeadStore,
					Pos:  as.Pos(),
					Expr: expr,
					Msg: fmt.Sprintf("value stored by %s is never read (%s has no reads in %s)",
						expr, sym.Name, fd.Name),
				})
			}
		}
	}

	// Straight-line overwrites: x = e1; x = e2; with no intervening
	// read of x, no control flow and no calls makes e1's store dead
	// even when x is live later.
	ast.Walk(fd.Body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		clear(d.pending)
		for _, st := range blk.List {
			as := plainAssign(st)
			if as == nil {
				// Any other statement may read or branch: forget all.
				clear(d.pending)
				continue
			}
			id, _ := ast.Unparen(as.LHS).(*ast.Ident)
			sym := a.info.Ref[id]
			// Reads inside this statement kill the pending stores of
			// what they read.
			ast.Walk(as.RHS, func(m ast.Node) bool {
				if rid, ok := m.(*ast.Ident); ok {
					delete(d.pending, a.info.Ref[rid])
				}
				return true
			})
			if !d.eligible(sym) || !effectFree(as.RHS) || hasCall(as.RHS) {
				delete(d.pending, sym)
				continue
			}
			if prev, okP := d.pending[sym]; okP && !d.overwritten[prev] {
				d.overwritten[prev] = true
				expr := ast.PrintExpr(prev)
				a.res.Findings = append(a.res.Findings, Finding{
					Kind: DeadStore,
					Pos:  prev.Pos(),
					Expr: expr,
					Msg: fmt.Sprintf("value stored by %s is overwritten by %s before any read",
						expr, as2line(as)),
				})
			}
			d.pending[sym] = as
		}
		return true
	})
}

// plainAssign matches an expression statement that is exactly
// `ident = rhs`.
func plainAssign(st ast.Stmt) *ast.AssignExpr {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	as, ok := ast.Unparen(es.X).(*ast.AssignExpr)
	if !ok || as.Op != token.ASSIGN {
		return nil
	}
	if _, ok := ast.Unparen(as.LHS).(*ast.Ident); !ok {
		return nil
	}
	return as
}

// effectFree reports whether evaluating e cannot write any variable.
func effectFree(e ast.Expr) bool {
	free := true
	ast.Walk(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignExpr, *ast.PostfixExpr:
			free = false
		case *ast.UnaryExpr:
			if x.Op == token.INC || x.Op == token.DEC {
				free = false
			}
		}
		return free
	})
	return free
}

func hasCall(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

func as2line(as *ast.AssignExpr) string {
	return fmt.Sprintf("%s at %s", ast.PrintExpr(as), as.Pos())
}
