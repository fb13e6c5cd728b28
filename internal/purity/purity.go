// Package purity implements the paper's verification pass for pure
// functions (Sect. 3.2).
//
// A function marked pure must not change the state of any variable
// outside its scope. The pass verifies, per the paper:
//
//   - a pure function only calls functions from the pure hashset, which is
//     seeded with the side-effect-free C standard functions (sin, cos,
//     log, ...) plus malloc and free, and contains every function declared
//     pure (including the function itself, enabling recursion);
//   - free only releases memory that was allocated by malloc inside the
//     same pure function;
//   - assignments never modify function-external data: globals and
//     parameters are read-only, external pointers may only be read after a
//     (pure T*) cast into a pure-declared pointer (Listings 3 and 4);
//   - pure pointers are assigned at most once and their content is never
//     written (Sect. 3.1);
//   - pointer parameters of pure functions must themselves be declared
//     pure, which is what lets callers pass read-only views.
//
// Unlike GCC's __attribute__((pure)), which is an unchecked programmer
// promise, this pass rejects the program when a marked function is not
// actually side-effect free — that distinction is the paper's main point.
package purity

import (
	"fmt"
	"strings"

	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
)

// Result reports the verified purity information for a translation unit.
type Result struct {
	// PureFuncs contains the user-defined functions that were declared
	// pure and passed verification.
	PureFuncs map[string]bool
	// Errors lists every purity violation found.
	Errors []error
}

// IsPure reports whether name may be called from a pure context: either a
// verified pure user function or one of the pure standard functions of
// the initial hashset.
func (r *Result) IsPure(name string) bool {
	return r.PureFuncs[name] || sema.IsPureBuiltin(name)
}

// Err returns all violations joined, or nil.
func (r *Result) Err() error {
	if len(r.Errors) == 0 {
		return nil
	}
	msgs := make([]string, len(r.Errors))
	for i, e := range r.Errors {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}

// Check verifies all pure-declared functions of the analyzed file.
// The returned Result is usable even when Err() != nil.
func Check(info *sema.Info) *Result {
	c := &checker{
		info: info,
		res:  &Result{PureFuncs: map[string]bool{}},
	}
	// Seed the hashset with every function *declared* pure; the paper
	// inserts names first so that recursion and mutual recursion among
	// pure functions verify (Sect. 3.2).
	for name, sig := range info.Funcs {
		if sig.Pure {
			c.res.PureFuncs[name] = true
		}
	}
	for _, d := range info.File.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Pure {
			c.checkPureFunc(fd)
		} else {
			c.checkImpureFunc(fd)
		}
	}
	c.checkGlobalPurePointers()
	// Functions that failed verification are removed from the set so
	// downstream parallelization never trusts them.
	for name := range c.failed {
		delete(c.res.PureFuncs, name)
	}
	return c.res
}

type prov int

const (
	provUnknown  prov = iota
	provLocal         // points into memory created in this function (malloc, &local, local array)
	provPure          // read-only view of external data (pure pointer)
	provExternal      // external data reachable for writing — forbidden source
)

type checker struct {
	info   *sema.Info
	res    *Result
	failed map[string]bool

	fn  *ast.FuncDecl
	prv map[*sema.Symbol]prov
	// pureAssigns counts assignments to pure pointers (max one) inside
	// the pure function being checked; pureAssignsGlobal does the same
	// for pure pointers assigned in impure functions.
	pureAssigns       map[*sema.Symbol]int
	pureAssignsGlobal map[*sema.Symbol]int
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.res.Errors = append(c.res.Errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
	if c.fn != nil && c.fn.Pure {
		if c.failed == nil {
			c.failed = map[string]bool{}
		}
		c.failed[c.fn.Name] = true
	}
}

// ----------------------------------------------------------------------------
// Pure function verification

func (c *checker) checkPureFunc(fd *ast.FuncDecl) {
	c.fn = fd
	c.prv = map[*sema.Symbol]prov{}
	c.pureAssigns = map[*sema.Symbol]int{}
	defer func() { c.fn = nil }()

	// Parameter rules: pointer parameters must be pure.
	for _, p := range fd.Params {
		if len(p.Type.Ptrs) > 0 && !p.Type.Ptrs[len(p.Type.Ptrs)-1].Pure {
			c.errorf(p.NamePos, "pure function %s: pointer parameter %s must be declared pure", fd.Name, p.Name)
		}
	}
	for _, sym := range c.info.FuncLocals[fd.Name] {
		if sym.Kind == sema.SymParam {
			if sym.Pure {
				c.prv[sym] = provPure
			} else if sym.Type.IsPtr() {
				c.prv[sym] = provExternal
			}
		}
	}
	c.stmts(fd.Body.List)
}

func (c *checker) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

func (c *checker) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			c.localDecl(d)
		}
	case *ast.ExprStmt:
		c.expr(x.X)
	case *ast.BlockStmt:
		c.stmts(x.List)
	case *ast.IfStmt:
		c.expr(x.Cond)
		c.stmt(x.Then)
		if x.Else != nil {
			c.stmt(x.Else)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			c.stmt(x.Init)
		}
		if x.Cond != nil {
			c.expr(x.Cond)
		}
		if x.Post != nil {
			c.expr(x.Post)
		}
		c.stmt(x.Body)
	case *ast.WhileStmt:
		c.expr(x.Cond)
		c.stmt(x.Body)
	case *ast.DoStmt:
		c.stmt(x.Body)
		c.expr(x.Cond)
	case *ast.ReturnStmt:
		if x.X != nil {
			c.expr(x.X)
		}
	case *ast.SwitchStmt:
		c.expr(x.Tag)
		for _, cl := range x.Cases {
			c.stmts(cl.Body)
		}
	}
}

func (c *checker) localDecl(d *ast.VarDecl) {
	sym := c.symOf(d)
	if sym == nil {
		return
	}
	if sym.IsArray() {
		c.prv[sym] = provLocal
		return
	}
	if d.Init == nil {
		return
	}
	c.expr(d.Init)
	if sym.Type.IsPtr() {
		c.assignPointer(sym, d.Init, d.Pos(), true)
	}
}

// symOf finds the sema symbol for a local declaration.
func (c *checker) symOf(d *ast.VarDecl) *sema.Symbol {
	for _, s := range c.info.FuncLocals[c.fn.Name] {
		if s.Decl == d {
			return s
		}
	}
	return nil
}

// expr walks an expression inside a pure function, flagging violations.
func (c *checker) expr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
		return
	case *ast.AssignExpr:
		c.expr(x.RHS)
		c.checkWrite(x.LHS, x.RHS, x.Pos(), x.Op == token.ASSIGN)
	case *ast.UnaryExpr:
		if x.Op == token.INC || x.Op == token.DEC {
			c.checkWrite(x.X, nil, x.Pos(), false)
			return
		}
		c.expr(x.X)
	case *ast.PostfixExpr:
		c.checkWrite(x.X, nil, x.Pos(), false)
	case *ast.CallExpr:
		c.call(x)
	case *ast.BinaryExpr:
		c.expr(x.X)
		c.expr(x.Y)
	case *ast.CondExpr:
		c.expr(x.Cond)
		c.expr(x.Then)
		c.expr(x.Else)
	case *ast.IndexExpr:
		c.expr(x.X)
		c.expr(x.Index)
	case *ast.MemberExpr:
		c.expr(x.X)
	case *ast.CastExpr:
		c.expr(x.X)
	case *ast.ParenExpr:
		c.expr(x.X)
	case *ast.SizeofExpr:
		// compile-time only
	}
}

func (c *checker) call(x *ast.CallExpr) {
	name := x.Fun.Name
	for _, a := range x.Args {
		c.expr(a)
	}
	if name == "free" {
		if len(x.Args) == 1 && c.classify(x.Args[0]) != provLocal {
			c.errorf(x.Pos(), "pure function %s: free may only release memory allocated with malloc in the same function (paper Sect. 3.2)", c.fn.Name)
		}
		return
	}
	if c.res.PureFuncs[name] || sema.IsPureBuiltin(name) {
		return
	}
	if _, known := c.info.Funcs[name]; known {
		c.errorf(x.Pos(), "pure function %s calls impure function %s (Listing 2)", c.fn.Name, name)
		return
	}
	c.errorf(x.Pos(), "pure function %s calls unknown function %s, which cannot be verified pure", c.fn.Name, name)
}

// checkWrite validates a store to lhs. rhs is the assigned expression for
// plain assignments (nil for ++/--/compound), isPlain marks `=`.
func (c *checker) checkWrite(lhs ast.Expr, rhs ast.Expr, pos token.Pos, isPlain bool) {
	switch x := lhs.(type) {
	case *ast.Ident:
		sym := c.info.Ref[x]
		if sym == nil {
			return
		}
		switch sym.Kind {
		case sema.SymGlobal:
			c.errorf(pos, "pure function %s modifies global %s (side-effect)", c.fn.Name, sym.Name)
		case sema.SymParam:
			c.errorf(pos, "pure function %s modifies parameter %s (parameters are read-only in pure functions)", c.fn.Name, sym.Name)
		case sema.SymLocal:
			if sym.Type.IsPtr() {
				c.assignPointer(sym, rhs, pos, isPlain)
			}
		}
	case *ast.IndexExpr:
		c.expr(x.Index)
		c.checkStoreBase(x.X, pos)
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			c.checkStoreBase(x.X, pos)
			return
		}
		c.errorf(pos, "invalid store target in pure function %s", c.fn.Name)
	case *ast.MemberExpr:
		if x.Arrow {
			c.checkStoreBase(x.X, pos)
			return
		}
		c.checkStoreBase(x.X, pos)
	case *ast.ParenExpr:
		c.checkWrite(x.X, rhs, pos, isPlain)
	default:
		c.errorf(pos, "invalid store target in pure function %s", c.fn.Name)
	}
}

// checkStoreBase validates that the object ultimately written through base
// was created inside the function scope (paper Listing 4: "If the data is
// assigned to a target which was declared outside of the scope, this code
// would imply a side-effect").
func (c *checker) checkStoreBase(base ast.Expr, pos token.Pos) {
	switch x := base.(type) {
	case *ast.Ident:
		sym := c.info.Ref[x]
		if sym == nil {
			return
		}
		switch sym.Kind {
		case sema.SymGlobal:
			c.errorf(pos, "pure function %s stores through global %s (side-effect)", c.fn.Name, sym.Name)
			return
		case sema.SymParam:
			c.errorf(pos, "pure function %s stores through parameter %s (side-effect)", c.fn.Name, sym.Name)
			return
		}
		if sym.IsArray() {
			return // local array: in-scope storage
		}
		if sym.Pure {
			c.errorf(pos, "pure function %s stores through pure pointer %s (pure pointers are read-only)", c.fn.Name, sym.Name)
			return
		}
		switch c.prv[sym] {
		case provLocal:
			// ok: locally allocated
		case provPure:
			c.errorf(pos, "pure function %s stores through pure pointer %s", c.fn.Name, sym.Name)
		default:
			c.errorf(pos, "pure function %s stores through pointer %s which may reference external data", c.fn.Name, sym.Name)
		}
	case *ast.IndexExpr:
		// multi-dimensional store a[i][j]: validate the ultimate base
		c.expr(x.Index)
		c.checkStoreBase(x.X, pos)
	case *ast.MemberExpr:
		c.checkStoreBase(x.X, pos)
	case *ast.ParenExpr:
		c.checkStoreBase(x.X, pos)
	case *ast.CastExpr:
		c.checkStoreBase(x.X, pos)
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			c.checkStoreBase(x.X, pos)
			return
		}
		c.errorf(pos, "pure function %s: unsupported store base", c.fn.Name)
	case *ast.BinaryExpr:
		// pointer arithmetic: the base pointer determines the object
		tl := x.X.Checked()
		if tl != nil && tl.IsPtr() {
			c.checkStoreBase(x.X, pos)
			return
		}
		c.checkStoreBase(x.Y, pos)
	default:
		c.errorf(pos, "pure function %s: unsupported store base", c.fn.Name)
	}
}

// assignPointer enforces the pointer assignment rules of Sect. 3.1/3.2 for
// an assignment (or initialization) of rhs to the local pointer sym.
func (c *checker) assignPointer(sym *sema.Symbol, rhs ast.Expr, pos token.Pos, isPlain bool) {
	if sym.Pure {
		c.pureAssigns[sym]++
		if c.pureAssigns[sym] > 1 {
			c.errorf(pos, "pure pointer %s assigned more than once (pure pointers can only be assigned once)", sym.Name)
		}
		if rhs == nil {
			c.errorf(pos, "pure pointer %s cannot be modified in place", sym.Name)
			return
		}
		switch c.classify(rhs) {
		case provPure, provLocal:
			c.prv[sym] = provPure
		default:
			c.errorf(pos, "pure pointer %s must be assigned pure data — use a (pure %s) cast (Listing 3)", sym.Name, c.castHint(sym))
		}
		return
	}
	if rhs == nil {
		return // ++/-- on a local pointer moves within its object
	}
	switch c.classify(rhs) {
	case provLocal:
		c.prv[sym] = provLocal
	case provPure:
		c.errorf(pos, "cannot assign pure data to non-pure pointer %s (would allow external writes)", sym.Name)
		c.prv[sym] = provExternal
	case provExternal:
		c.errorf(pos, "pointer %s assigns function-external data; declare it pure and cast the source (Listing 4: intPtr = extPtr is invalid)", sym.Name)
		c.prv[sym] = provExternal
	default:
		c.prv[sym] = provUnknown
	}
}

func (c *checker) castHint(sym *sema.Symbol) string {
	if sym.Type != nil && sym.Type.Elem != nil {
		return sym.Type.Elem.String() + "*"
	}
	return "T*"
}

// classify determines the provenance of a pointer-valued expression.
func (c *checker) classify(e ast.Expr) prov {
	switch x := e.(type) {
	case *ast.Ident:
		sym := c.info.Ref[x]
		if sym == nil {
			return provUnknown
		}
		switch sym.Kind {
		case sema.SymGlobal:
			if sym.Pure {
				return provPure
			}
			return provExternal
		case sema.SymParam:
			if sym.Pure {
				return provPure
			}
			if sym.Type.IsPtr() {
				return provExternal
			}
			return provLocal
		case sema.SymLocal:
			if sym.IsArray() {
				return provLocal
			}
			if sym.Pure {
				return provPure
			}
			if p, ok := c.prv[sym]; ok {
				return p
			}
			return provUnknown
		}
		return provUnknown
	case *ast.CallExpr:
		if x.Fun.Name == "malloc" {
			return provLocal
		}
		// Pointers returned by (pure) functions must be laundered
		// through a pure cast before use (Listing 2, extPtr3).
		return provExternal
	case *ast.CastExpr:
		t := x.Checked()
		if t != nil && t.IsPtr() && t.Pure {
			return provPure
		}
		return c.classify(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return c.addrProv(x.X)
		}
		return provUnknown
	case *ast.BinaryExpr:
		tl := x.X.Checked()
		if tl != nil && tl.IsPtr() {
			return c.classify(x.X)
		}
		return c.classify(x.Y)
	case *ast.ParenExpr:
		return c.classify(x.X)
	case *ast.CondExpr:
		a, b := c.classify(x.Then), c.classify(x.Else)
		if a == provExternal || b == provExternal {
			return provExternal
		}
		if a == provUnknown || b == provUnknown {
			return provUnknown
		}
		if a == provPure || b == provPure {
			return provPure
		}
		return provLocal
	case *ast.IndexExpr:
		// Loading a pointer stored in an array: conservatively external.
		return provExternal
	case *ast.IntLit:
		return provLocal // NULL
	}
	return provUnknown
}

// addrProv classifies &expr by the storage of expr.
func (c *checker) addrProv(e ast.Expr) prov {
	switch x := e.(type) {
	case *ast.Ident:
		sym := c.info.Ref[x]
		if sym == nil {
			return provUnknown
		}
		switch sym.Kind {
		case sema.SymLocal:
			return provLocal
		case sema.SymParam:
			return provLocal // scalar parameter copy lives in the frame
		default:
			return provExternal
		}
	case *ast.IndexExpr:
		return c.classify(x.X)
	case *ast.MemberExpr:
		return c.addrProv(x.X)
	case *ast.ParenExpr:
		return c.addrProv(x.X)
	}
	return provUnknown
}

// ----------------------------------------------------------------------------
// Checks outside pure functions

// checkImpureFunc enforces the pure-pointer rules that hold everywhere:
// pure pointers are single-assignment and never written through, and pure
// casts may only be assigned to pure-declared pointers.
func (c *checker) checkImpureFunc(fd *ast.FuncDecl) {
	for _, a := range ast.Assignments(fd.Body) {
		if base, sym := c.writeBase(a.LHS); base != nil && sym != nil && sym.Pure {
			if !sameIdentTarget(a.LHS) {
				c.errorf(a.Pos(), "function %s stores through pure pointer %s (pure pointers are read-only)", fd.Name, sym.Name)
			}
		}
		// Direct reassignment of a pure pointer variable.
		if id, ok := a.LHS.(*ast.Ident); ok {
			sym := c.info.Ref[id]
			if sym != nil && sym.Pure {
				if c.pureAssignsGlobal == nil {
					c.pureAssignsGlobal = map[*sema.Symbol]int{}
				}
				c.pureAssignsGlobal[sym]++
				if c.pureAssignsGlobal[sym] > 1 || (sym.Decl != nil && sym.Decl.Init != nil) {
					c.errorf(a.Pos(), "pure pointer %s assigned more than once", sym.Name)
				}
			}
		}
	}
}

// writeBase returns the ultimate identifier written through by lhs, or nil.
func (c *checker) writeBase(lhs ast.Expr) (ast.Expr, *sema.Symbol) {
	switch x := lhs.(type) {
	case *ast.IndexExpr:
		return c.writeBase(x.X)
	case *ast.MemberExpr:
		if x.Arrow {
			return c.writeBase(x.X)
		}
		return c.writeBase(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return c.writeBase(x.X)
		}
	case *ast.ParenExpr:
		return c.writeBase(x.X)
	case *ast.Ident:
		return x, c.info.Ref[x]
	}
	return nil, nil
}

// sameIdentTarget reports whether lhs is a bare identifier (variable
// reassignment rather than a store through it).
func sameIdentTarget(lhs ast.Expr) bool {
	_, ok := lhs.(*ast.Ident)
	return ok
}

// checkGlobalPurePointers verifies that file-scope pure pointers keep the
// single-assignment property across the program.
func (c *checker) checkGlobalPurePointers() {
	// Counting happens in checkImpureFunc/checkPureFunc via Ref symbols;
	// here we only validate initializers of global pure pointers.
	for _, g := range c.info.Globals {
		if !g.Pure || g.Decl == nil || g.Decl.Init == nil {
			continue
		}
		if _, ok := g.Decl.Init.(*ast.CastExpr); !ok {
			ct := g.Decl.Init.Checked()
			if ct == nil || !ct.IsPtr() || !ct.Pure {
				c.res.Errors = append(c.res.Errors, fmt.Errorf("%s: global pure pointer %s must be initialized from a (pure T*) cast", g.Decl.Pos(), g.Name))
			}
		}
	}
}

// pureAssignsGlobal counts assignments to pure pointers outside pure
// functions (field declared on checker, initialized lazily).
