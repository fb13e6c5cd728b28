package sema

import (
	"fmt"
	"strings"

	"purec/internal/ast"
	"purec/internal/types"
)

// Edits records what a rewrite did to a checked tree, so that Recheck
// can bring the Info up to date by checking only that. Loops the
// rewrite built are recorded in Built; the blocks and pragmas it built
// hold no expressions and need no record. Statements it kept and
// edited in place are recorded in Edited.
type Edits struct {
	// Funcs lists each function whose body the rewrite changed, once.
	Funcs []*ast.FuncDecl
	// Built holds every loop the rewrite built.
	Built map[*ast.ForStmt]bool
	// Edited holds every kept statement in which the rewrite replaced
	// an expression.
	Edited map[ast.Stmt]bool
	// Redeclares maps a built declaration of a loop iterator to the
	// kept declaration of the same iterator that it takes over from.
	Redeclares map[*ast.VarDecl]*ast.VarDecl
	// Rebinds holds each built declaration of an iterator that the
	// original loop declared outside its header (`int i; for (i = 0;
	// ...)`): the kept statements under it read that name, which now
	// names the built declaration. A built declaration in neither
	// Redeclares nor Rebinds names an iterator the nest did not
	// mention.
	Rebinds map[*ast.VarDecl]bool
	// Dropped holds the subtrees the rewrite took out of the tree.
	Dropped []ast.Node
}

// Recheck updates in, the Info Check built for a tree, to the model
// Check would build for the tree after the rewrite ed describes. It
// forgets the dropped subtrees and checks the headers of the built
// loops and the edited statements; every other statement keeps its
// types and bindings and is only walked for its declarations. A built
// iterator declaration that takes over a kept one keeps the kept
// symbol, to which the kept statements are bound, when the types
// agree. Otherwise it gets a new symbol, and when kept statements under
// it read its name (it is in Rebinds, or the kept symbol is dropped)
// those statements are checked again. The
// FuncLocals of each changed function are rebuilt in declaration order,
// so symbol indices and frame layout are those of a fresh Check.
func Recheck(in *Info, ed *Edits) error {
	// Forget the dropped identifiers: the Info does not keep them
	// alive. Types live on the nodes and go with them.
	for _, n := range ed.Dropped {
		ast.Walk(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				delete(in.Ref, id)
			}
			return true
		})
	}
	c := &checker{info: in, ed: ed}
	n := len(in.errs)
	for _, fd := range ed.Funcs {
		c.recheckFunc(fd)
	}
	if len(in.errs) == n {
		return nil
	}
	msgs := make([]string, 0, len(in.errs)-n)
	for _, e := range in.errs[n:] {
		msgs = append(msgs, e.Error())
	}
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}

func (c *checker) recheckFunc(fd *ast.FuncDecl) {
	c.old = c.info.FuncLocals[fd.Name]
	c.next = 0
	c.info.FuncLocals[fd.Name] = make([]*Symbol, 0, len(c.old)+8)
	c.cur = c.info.Funcs[fd.Name]
	c.curFn = fd
	c.locals = 0
	c.push()
	for _, p := range fd.Params {
		if p.Name != "" {
			c.declare(c.old[c.next], p.NamePos)
			c.next++
		}
	}
	c.stmt(fd.Body)
	c.pop()
	c.cur = nil
	c.curFn = nil
	c.old = nil
}

// recheckStmt handles s on a recheck and reports whether it did. A built
// loop gets its header checked, a kept statement the rewrite edited is
// checked again, and any other kept statement is walked for its
// declarations. While kept statements are being checked again, only
// built loops are handled here.
func (c *checker) recheckStmt(s ast.Stmt) bool {
	if f, ok := s.(*ast.ForStmt); ok && c.ed.Built[f] {
		c.builtLoop(f)
		return true
	}
	if c.retype {
		return false
	}
	if c.ed.Edited[s] {
		c.retype = true
		c.stmt(s)
		c.retype = false
		return true
	}
	c.declarations(s)
	return true
}

// builtLoop checks the header of a loop the rewrite built, in the
// scope Check opens for a for statement, and goes on into its body.
func (c *checker) builtLoop(f *ast.ForStmt) {
	retype := c.retype
	c.push()
	if init, ok := f.Init.(*ast.DeclStmt); ok {
		for _, d := range init.Decls {
			c.local(d, c.builtSymbol(d))
		}
	}
	if f.Cond != nil {
		c.condition(f.Cond)
	}
	if f.Post != nil {
		c.expr(f.Post)
	}
	c.stmt(f.Body)
	c.pop()
	c.retype = retype
}

// builtSymbol returns the symbol of a built declaration: the kept
// symbol of the iterator it takes over when the two agree, else a new
// one. A new symbol sets retype when identifiers of the kept statements
// under the declaration read its name: they were bound to the kept
// symbol it does not take over, or to a declaration outside the loop
// (Rebinds).
func (c *checker) builtSymbol(d *ast.VarDecl) *Symbol {
	if old, ok := c.ed.Redeclares[d]; ok {
		prev := c.kept(old)
		if prev != nil && len(d.ArrayLens) == 0 && !prev.IsArray() &&
			types.Equal(prev.Type, c.typeOfAST(d.Type, d.Pos())) {
			prev.Decl = d
			return prev
		}
		c.retype = true
	} else if c.ed.Rebinds[d] {
		c.retype = true
	}
	return c.makeVarSymbol(d, SymLocal)
}

// kept returns the symbol Check made for the kept declaration d of the
// function being rechecked, nil when there is none. Kept declarations
// keep their order, so the search resumes after the last one found.
func (c *checker) kept(d *ast.VarDecl) *Symbol {
	for i := c.next; i < len(c.old); i++ {
		if c.old[i].Decl == d {
			c.next = i + 1
			return c.old[i]
		}
	}
	for i := 0; i < c.next; i++ {
		if c.old[i].Decl == d {
			return c.old[i]
		}
	}
	return nil
}

// declarations walks a kept statement: it declares the kept symbols of
// its declarations in the scopes Check opens for it, and hands every
// statement inside it back to stmt, which finds the built and edited
// ones.
func (c *checker) declarations(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			c.declare(c.symbolOf(d), d.Pos())
		}
	case *ast.BlockStmt:
		c.push()
		for _, s2 := range x.List {
			c.stmt(s2)
		}
		c.pop()
	case *ast.IfStmt:
		c.stmt(x.Then)
		if x.Else != nil {
			c.stmt(x.Else)
		}
	case *ast.ForStmt:
		c.push()
		if x.Init != nil {
			c.stmt(x.Init)
		}
		c.stmt(x.Body)
		c.pop()
	case *ast.WhileStmt:
		c.stmt(x.Body)
	case *ast.DoStmt:
		c.stmt(x.Body)
	case *ast.SwitchStmt:
		for _, cl := range x.Cases {
			c.push()
			for _, s2 := range cl.Body {
				c.stmt(s2)
			}
			c.pop()
		}
	}
}
