// Package sema performs name resolution and type checking on parsed
// translation units.
//
// It produces an Info structure that downstream passes consume: the purity
// checker (internal/purity) needs to know whether an identifier is a
// parameter, a local, or a global; the SCoP detector and the polyhedral
// engine need expression types; the compiler (internal/comp) needs symbol
// layout. Together with internal/purity this corresponds to the semantic
// analysis half of the paper's PC-CC stage.
package sema

import (
	"fmt"
	"strings"

	"purec/internal/ast"
	"purec/internal/token"
	"purec/internal/types"
)

// SymKind classifies a resolved symbol.
type SymKind int

// Symbol kinds.
const (
	SymGlobal SymKind = iota
	SymParam
	SymLocal
	SymFunc
	SymBuiltin
)

var symKindNames = [...]string{"global", "parameter", "local", "function", "builtin"}

// String returns the human-readable kind name.
func (k SymKind) String() string { return symKindNames[k] }

// Symbol is a named program entity.
type Symbol struct {
	Name  string
	Kind  SymKind
	Type  *types.Type // decayed type for arrays (pointer to element)
	Dims  []int       // array dimensions for array variables (constant)
	Func  *ast.FuncDecl
	Decl  *ast.VarDecl // defining declaration for variables
	Pure  bool         // pure function (SymFunc/SymBuiltin) or pure pointer
	Index int          // per-function ordinal for locals/params (layout)
}

// IsArray reports whether the symbol is an array variable.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// ElemType returns the type of one cell of an array variable: Type
// with exactly one pointer level stripped per dimension, so the cells
// of `int* keep[2]` are pointers and those of `float m[3][4]` floats.
// For a non-array it is Type itself.
func (s *Symbol) ElemType() *types.Type {
	t := s.Type
	for range s.Dims {
		t = t.Elem
	}
	return t
}

// Cells returns how many memory cells the variable's storage holds:
// for an array, its elements times the cells of one element (a struct
// element has one cell per scalar field cell).
func (s *Symbol) Cells() int {
	n := s.ElemType().Cells()
	for _, d := range s.Dims {
		n *= d
	}
	return n
}

// Sig is a function signature.
type Sig struct {
	Name     string
	Pure     bool
	Ret      *types.Type
	Params   []*types.Type
	Variadic bool
	Builtin  bool
	Decl     *ast.FuncDecl // nil for builtins
}

// Builtin purity classification mirrors the paper's initial hashset: the
// side-effect-free C standard functions plus malloc and free, whose
// side-effects "do not affect other threads" (Sect. 3.2).
type builtinSpec struct {
	ret      *types.Type
	params   []*types.Type
	variadic bool
	pure     bool
}

var dbl = types.DoubleType
var voidPtr = types.PointerTo(types.VoidType, false, false)

// Builtins is the table of known C standard functions. Math functions,
// malloc and free are in the paper's pure hashset; printf and friends are
// not.
var Builtins = map[string]builtinSpec{
	"sin":   {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"cos":   {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"tan":   {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"asin":  {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"acos":  {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"atan":  {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"atan2": {ret: dbl, params: []*types.Type{dbl, dbl}, pure: true},
	"exp":   {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"log":   {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"log10": {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"sqrt":  {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"pow":   {ret: dbl, params: []*types.Type{dbl, dbl}, pure: true},
	"fabs":  {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"floor": {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"ceil":  {ret: dbl, params: []*types.Type{dbl}, pure: true},
	"fmod":  {ret: dbl, params: []*types.Type{dbl, dbl}, pure: true},
	"fmin":  {ret: dbl, params: []*types.Type{dbl, dbl}, pure: true},
	"fmax":  {ret: dbl, params: []*types.Type{dbl, dbl}, pure: true},
	"abs":   {ret: types.IntType, params: []*types.Type{types.IntType}, pure: true},
	"expf":  {ret: types.FloatType, params: []*types.Type{types.FloatType}, pure: true},
	"sqrtf": {ret: types.FloatType, params: []*types.Type{types.FloatType}, pure: true},
	"fabsf": {ret: types.FloatType, params: []*types.Type{types.FloatType}, pure: true},

	// malloc and free: treated as pure per the paper (their side-effects
	// do not affect other threads); free is additionally checked by the
	// purity pass to only release locally allocated memory.
	"malloc": {ret: voidPtr, params: []*types.Type{types.LongType}, pure: true},
	"free":   {ret: types.VoidType, params: []*types.Type{voidPtr}, pure: true},

	// Integer helpers emitted by the polyhedral code generator for tiled
	// loop bounds, mirroring the floord/ceild/min/max macros in
	// PluTo-generated code. All are side-effect free.
	"floord": {ret: types.LongType, params: []*types.Type{types.LongType, types.LongType}, pure: true},
	"ceild":  {ret: types.LongType, params: []*types.Type{types.LongType, types.LongType}, pure: true},
	"imin":   {ret: types.LongType, params: []*types.Type{types.LongType, types.LongType}, pure: true},
	"imax":   {ret: types.LongType, params: []*types.Type{types.LongType, types.LongType}, pure: true},

	// Impure standard functions (known, callable outside pure contexts).
	"printf": {ret: types.IntType, params: []*types.Type{types.PointerTo(types.CharType, false, false)}, variadic: true},
	"rand":   {ret: types.IntType},
	"srand":  {ret: types.VoidType, params: []*types.Type{types.UnsignedType}},
	"clock":  {ret: types.LongType},
}

// IsPureBuiltin reports whether name is in the paper's initial pure
// hashset of standard functions.
func IsPureBuiltin(name string) bool {
	b, ok := Builtins[name]
	return ok && b.pure
}

// Info is the result of semantic analysis.
type Info struct {
	File *ast.File
	// Every expression of File carries its type (ast.Expr.Checked).
	Ref       map[*ast.Ident]*Symbol
	Funcs     map[string]*Sig
	Structs   map[string]*types.Type
	Globals   []*Symbol
	GlobalMap map[string]*Symbol
	// FuncLocals lists, per function name, all local and parameter
	// symbols in declaration order (parameters first).
	FuncLocals map[string][]*Symbol
	errs       []error
}

// Check analyzes f and returns the populated Info. The error joins all
// diagnostics; Info is still usable for inspection when err != nil.
func Check(f *ast.File) (*Info, error) {
	in := &Info{
		File:       f,
		Ref:        make(map[*ast.Ident]*Symbol),
		Funcs:      make(map[string]*Sig),
		Structs:    make(map[string]*types.Type),
		GlobalMap:  make(map[string]*Symbol),
		FuncLocals: make(map[string][]*Symbol),
	}
	c := &checker{info: in}
	c.collectTop(f)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			c.checkFunc(fd)
		}
	}
	if len(in.errs) > 0 {
		msgs := make([]string, len(in.errs))
		for i, e := range in.errs {
			msgs[i] = e.Error()
		}
		return in, fmt.Errorf("%s", strings.Join(msgs, "\n"))
	}
	return in, nil
}

type checker struct {
	info   *Info
	scopes []map[string]*Symbol
	// depth is the number of open scopes; scopes keeps the maps of
	// closed ones for reuse.
	depth  int
	cur    *Sig // function being checked
	curFn  *ast.FuncDecl
	locals int

	// Recheck state: the edits being checked, the function's symbols
	// before them and the position after the last one found, and
	// whether kept statements are being checked again rather than only
	// walked for their declarations.
	ed     *Edits
	old    []*Symbol
	next   int
	retype bool

	// placed is the malloc call whose position is already judged: the
	// operand of the cast being checked, or a dropped result.
	placed *ast.CallExpr
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.info.errs = append(c.info.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) resolveStruct(tag string) (*types.Type, error) {
	if st, ok := c.info.Structs[tag]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("undefined struct %s", tag)
}

// FromAST converts a syntactic type expression into a semantic type.
// resolve may be nil when the type contains no struct references.
func FromAST(te *ast.TypeExpr, resolve types.Resolver) (*types.Type, error) {
	if te == nil {
		return types.VoidType, nil
	}
	var base *types.Type
	switch te.Base {
	case ast.Void:
		base = types.VoidType
	case ast.Char:
		base = types.CharType
	case ast.Short:
		base = types.ShortType
	case ast.Int:
		base = types.IntType
	case ast.Long:
		base = types.LongType
	case ast.Unsigned:
		base = types.UnsignedType
	case ast.Float:
		base = types.FloatType
	case ast.Double:
		base = types.DoubleType
	case ast.Struct:
		if resolve == nil {
			return nil, fmt.Errorf("struct %s used where no struct resolver is available", te.StructName)
		}
		st, err := resolve(te.StructName)
		if err != nil {
			return nil, err
		}
		base = st
	default:
		return nil, fmt.Errorf("unsupported base type %v", te.Base)
	}
	t := base
	for _, q := range te.Ptrs {
		t = types.PointerTo(t, q.Pure, q.Const)
	}
	return t, nil
}

func (c *checker) typeOfAST(te *ast.TypeExpr, pos token.Pos) *types.Type {
	t, err := FromAST(te, c.resolveStruct)
	if err != nil {
		c.errorf(pos, "%v", err)
		return types.IntType
	}
	return t
}

// collectTop registers structs, globals and function signatures.
func (c *checker) collectTop(f *ast.File) {
	for _, d := range f.Decls {
		switch x := d.(type) {
		case *ast.StructDecl:
			c.collectStruct(x)
		case *ast.VarDeclGroup:
			for _, vd := range x.Decls {
				c.collectGlobal(vd)
			}
		case *ast.FuncDecl:
			c.collectFunc(x)
		}
	}
}

func (c *checker) collectStruct(sd *ast.StructDecl) {
	if _, dup := c.info.Structs[sd.Name]; dup {
		c.errorf(sd.Pos(), "struct %s redeclared", sd.Name)
		return
	}
	st := &types.Type{Kind: types.Struct, Tag: sd.Name, CName: "struct " + sd.Name}
	off := 0
	for _, fl := range sd.Fields {
		ft := c.typeOfAST(fl.Type, fl.NamePos)
		count := 1
		for _, l := range fl.ArrayLens {
			n, ok := c.constInt(l)
			if !ok || n <= 0 {
				c.errorf(fl.NamePos, "struct field %s: array length must be a positive constant", fl.Name)
				n = 1
			}
			count *= int(n)
		}
		st.Fields = append(st.Fields, types.Field{Name: fl.Name, Type: ft, Count: count, Offset: off})
		off += count
	}
	st.CSize = off * 8
	c.info.Structs[sd.Name] = st
}

func (c *checker) collectGlobal(vd *ast.VarDecl) {
	if _, dup := c.info.GlobalMap[vd.Name]; dup {
		c.errorf(vd.Pos(), "global %s redeclared", vd.Name)
		return
	}
	sym := c.makeVarSymbol(vd, SymGlobal)
	c.info.Globals = append(c.info.Globals, sym)
	c.info.GlobalMap[vd.Name] = sym
	if vd.Init != nil {
		c.initializer(vd, sym)
	}
}

// initializer checks the initializer of sym's declaration vd: an array
// has none (the subset has no brace lists), nor has a local struct; a
// scalar, a pointer or a global struct has one its type can be
// assigned.
func (c *checker) initializer(vd *ast.VarDecl, sym *Symbol) {
	t := c.expr(vd.Init)
	switch {
	case sym.IsArray():
		c.errorf(vd.Pos(), "cannot initialize %s (array of %s) from %s", vd.Name, sym.ElemType(), t)
	case !assignable(sym.Type, t, vd.Init):
		c.errorf(vd.Pos(), "cannot initialize %s (%s) from %s", vd.Name, sym.Type, t)
	case sym.Kind != SymGlobal && sym.Type.Kind == types.Struct:
		c.errorf(vd.Pos(), "cannot initialize local %s (%s): only a global struct takes an initializer", vd.Name, sym.Type)
	}
}

// assignable reports whether the value of e, of type src, converts
// implicitly to dst: types.AssignableLoose, except that an integer
// converts to a pointer only as the null-pointer constant 0.
func assignable(dst, src *types.Type, e ast.Expr) bool {
	if dst != nil && dst.Kind == types.Ptr && src != nil && src.Kind == types.Int {
		v, ok := ConstInt(e)
		return ok && v == 0
	}
	return types.AssignableLoose(dst, src)
}

// makeVarSymbol builds the symbol for a variable declaration, decaying
// array dimensions into Dims and a pointer-shaped type.
func (c *checker) makeVarSymbol(vd *ast.VarDecl, kind SymKind) *Symbol {
	base := c.typeOfAST(vd.Type, vd.Pos())
	sym := &Symbol{Name: vd.Name, Kind: kind, Decl: vd}
	if len(vd.ArrayLens) == 0 {
		sym.Type = base
		sym.Pure = base.IsPtr() && base.Pure
		return sym
	}
	for _, l := range vd.ArrayLens {
		n, ok := c.constInt(l)
		if !ok || n <= 0 {
			c.errorf(vd.Pos(), "array %s: length must be a positive integer constant", vd.Name)
			n = 1
		}
		sym.Dims = append(sym.Dims, int(n))
	}
	// The array value decays to nested pointers, one level per dimension.
	t := base
	for range vd.ArrayLens {
		t = types.PointerTo(t, false, false)
	}
	sym.Type = t
	return sym
}

func (c *checker) collectFunc(fd *ast.FuncDecl) {
	ret := c.typeOfAST(fd.Ret, fd.Pos())
	sig := &Sig{Name: fd.Name, Pure: fd.Pure, Ret: ret, Decl: fd}
	for i, p := range fd.Params {
		t := c.typeOfAST(p.Type, p.NamePos)
		if t.Kind == types.Void {
			// (void) is consumed by the parser; any other void
			// parameter would be a variable without storage.
			c.errorf(fd.Pos(), "parameter %d of %s has type void: void is allowed only as the sole unnamed parameter", i+1, fd.Name)
		}
		sig.Params = append(sig.Params, t)
	}
	if prev, ok := c.info.Funcs[fd.Name]; ok {
		// A definition may follow a prototype; purity and arity must agree.
		if len(prev.Params) != len(sig.Params) {
			c.errorf(fd.Pos(), "function %s redeclared with different parameter count", fd.Name)
		}
		if prev.Pure != sig.Pure {
			c.errorf(fd.Pos(), "function %s redeclared with different purity", fd.Name)
		}
		if fd.Body != nil {
			prev.Decl = fd
		}
		return
	}
	if _, isBuiltin := Builtins[fd.Name]; isBuiltin {
		c.errorf(fd.Pos(), "function %s shadows a standard function", fd.Name)
	}
	c.info.Funcs[fd.Name] = sig
}

// ----------------------------------------------------------------------------
// Function bodies

func (c *checker) push() {
	if c.depth < len(c.scopes) {
		clear(c.scopes[c.depth])
	} else {
		c.scopes = append(c.scopes, map[string]*Symbol{})
	}
	c.depth++
}

func (c *checker) pop() { c.depth-- }

func (c *checker) declare(sym *Symbol, pos token.Pos) {
	top := c.scopes[c.depth-1]
	if _, dup := top[sym.Name]; dup {
		c.errorf(pos, "%s redeclared in this scope", sym.Name)
		return
	}
	sym.Index = c.locals
	c.locals++
	top[sym.Name] = sym
	c.info.FuncLocals[c.curFn.Name] = append(c.info.FuncLocals[c.curFn.Name], sym)
}

func (c *checker) lookup(name string) *Symbol {
	for i := c.depth - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	if g, ok := c.info.GlobalMap[name]; ok {
		return g
	}
	return nil
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	c.cur = c.info.Funcs[fd.Name]
	c.curFn = fd
	c.locals = 0
	c.push()
	for _, p := range fd.Params {
		t := c.typeOfAST(p.Type, p.NamePos)
		sym := &Symbol{Name: p.Name, Kind: SymParam, Type: t, Pure: t.IsPtr() && t.Pure}
		if p.Name != "" {
			c.declare(sym, p.NamePos)
		}
	}
	c.stmt(fd.Body)
	c.pop()
	c.cur = nil
	c.curFn = nil
}

func (c *checker) stmt(s ast.Stmt) {
	if c.ed != nil && c.recheckStmt(s) {
		return
	}
	switch x := s.(type) {
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			c.local(d, c.symbolOf(d))
		}
	case *ast.ExprStmt:
		c.effect(x.X)
	case *ast.BlockStmt:
		c.push()
		for _, s2 := range x.List {
			c.stmt(s2)
		}
		c.pop()
	case *ast.IfStmt:
		c.condition(x.Cond)
		c.stmt(x.Then)
		if x.Else != nil {
			c.stmt(x.Else)
		}
	case *ast.ForStmt:
		c.push()
		if x.Init != nil {
			c.stmt(x.Init)
		}
		if x.Cond != nil {
			c.condition(x.Cond)
		}
		if x.Post != nil {
			c.effect(x.Post)
		}
		c.stmt(x.Body)
		c.pop()
	case *ast.WhileStmt:
		c.condition(x.Cond)
		c.stmt(x.Body)
	case *ast.DoStmt:
		c.stmt(x.Body)
		c.condition(x.Cond)
	case *ast.ReturnStmt:
		if x.X != nil {
			t := c.expr(x.X)
			if c.cur != nil && c.cur.Ret.IsVoid() {
				c.errorf(x.Pos(), "return with a value in void function %s", c.cur.Name)
			} else if c.cur != nil && !assignable(c.cur.Ret, t, x.X) {
				c.errorf(x.Pos(), "cannot return %s from function returning %s", t, c.cur.Ret)
			}
		} else if c.cur != nil && !c.cur.Ret.IsVoid() {
			c.errorf(x.Pos(), "return without a value in function %s returning %s", c.cur.Name, c.cur.Ret)
		}
	case *ast.SwitchStmt:
		t := c.expr(x.Tag)
		if t != nil && t.Kind != types.Int {
			c.errorf(x.Pos(), "switch tag must be an integer, got %s", t)
		}
		for _, cl := range x.Cases {
			if cl.Value != nil {
				if _, ok := c.constInt(cl.Value); !ok {
					c.errorf(cl.Pos(), "case label must be an integer constant")
				}
			}
			c.push()
			for _, s2 := range cl.Body {
				c.stmt(s2)
			}
			c.pop()
		}
	case *ast.BreakStmt, *ast.ContinueStmt, *ast.EmptyStmt, *ast.PragmaStmt:
		// nothing to check
	}
}

// local checks the declaration of sym by d and declares it.
func (c *checker) local(d *ast.VarDecl, sym *Symbol) {
	if d.Init != nil {
		c.initializer(d, sym)
	}
	c.declare(sym, d.Pos())
}

// symbolOf returns the symbol a local declaration defines: a new one,
// or on a recheck the one Check made for it.
func (c *checker) symbolOf(d *ast.VarDecl) *Symbol {
	if c.ed == nil {
		return c.makeVarSymbol(d, SymLocal)
	}
	if sym := c.kept(d); sym != nil {
		return sym
	}
	c.errorf(d.Pos(), "declaration of %s was neither checked nor built", d.Name)
	return c.makeVarSymbol(d, SymLocal)
}

func (c *checker) condition(e ast.Expr) {
	t := c.expr(e)
	if t != nil && !t.IsArith() && !t.IsPtr() {
		c.errorf(e.Pos(), "condition must be scalar, got %s", t)
	}
}

// ----------------------------------------------------------------------------
// Expressions

func (c *checker) expr(e ast.Expr) *types.Type {
	t := c.exprInner(e)
	if t == nil {
		t = types.IntType
	}
	e.SetChecked(t)
	return t
}

func (c *checker) exprInner(e ast.Expr) *types.Type {
	switch x := e.(type) {
	case *ast.Ident:
		sym := c.lookup(x.Name)
		if sym == nil {
			c.errorf(x.Pos(), "undeclared identifier %s", x.Name)
			return types.IntType
		}
		c.info.Ref[x] = sym
		return sym.Type
	case *ast.IntLit:
		return types.IntType
	case *ast.FloatLit:
		if strings.ContainsAny(x.Text, "fF") {
			return types.FloatType
		}
		return types.DoubleType
	case *ast.CharLit:
		return types.CharType
	case *ast.StringLit:
		return types.PointerTo(types.CharType, false, true)
	case *ast.ParenExpr:
		return c.expr(x.X)
	case *ast.BinaryExpr:
		return c.binary(x)
	case *ast.UnaryExpr:
		return c.unary(x)
	case *ast.PostfixExpr:
		t := c.expr(x.X)
		c.requireLvalue(x.X)
		return t
	case *ast.AssignExpr:
		return c.assign(x)
	case *ast.CondExpr:
		c.condition(x.Cond)
		t1 := c.expr(x.Then)
		t2 := c.expr(x.Else)
		switch {
		case t1.IsArith() && t2.IsArith():
			return types.Promote(t1, t2)
		case t1.IsPtr() && t2.IsArith() && !assignable(t1, t2, x.Else):
			c.errorf(x.Else.Pos(), "cannot convert %s to %s in ?:", t2, t1)
		case t2.IsPtr() && t1.IsArith():
			// An integer arm converts to the pointer arm's type; a
			// float arm does not.
			if !assignable(t2, t1, x.Then) {
				c.errorf(x.Then.Pos(), "cannot convert %s to %s in ?:", t1, t2)
			}
			return t2
		}
		return t1
	case *ast.CallExpr:
		return c.call(x)
	case *ast.IndexExpr:
		base := c.expr(x.X)
		it := c.expr(x.Index)
		if it != nil && it.Kind != types.Int {
			c.errorf(x.Index.Pos(), "array index must be an integer, got %s", it)
		}
		if base == nil || base.Kind != types.Ptr {
			c.errorf(x.Pos(), "indexed expression is not a pointer or array (%s)", base)
			return types.IntType
		}
		return base.Elem
	case *ast.MemberExpr:
		return c.member(x)
	case *ast.CastExpr:
		call := mallocCall(x.X)
		c.placed = call
		from := c.expr(x.X)
		t := c.typeOfAST(x.Type, x.Pos())
		switch {
		case call != nil && !t.IsPtr():
			c.errorf(x.Pos(), "malloc cast must be a pointer type")
		case t.IsPtr() && from.IsArith() && from.Kind != types.Int:
			c.errorf(x.Pos(), "unsupported pointer cast from %s", from)
		case t.IsArith() && from.IsPtr():
			c.errorf(x.Pos(), "unsupported cast from pointer %s to %s", from, t)
		}
		return t
	case *ast.SizeofExpr:
		if x.X != nil {
			c.expr(x.X)
		} else {
			c.typeOfAST(x.Type, x.Pos())
		}
		return types.LongType
	}
	c.errorf(e.Pos(), "unsupported expression %T", e)
	return types.IntType
}

func (c *checker) binary(x *ast.BinaryExpr) *types.Type {
	tl := c.expr(x.X)
	tr := c.expr(x.Y)
	switch x.Op {
	case token.LAND, token.LOR, token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return types.IntType
	case token.REM, token.AND, token.OR, token.XOR, token.SHL, token.SHR:
		if tl.Kind != types.Int || tr.Kind != types.Int {
			c.errorf(x.Pos(), "operator %s requires integer operands (%s, %s)", x.Op, tl, tr)
		}
		return types.Promote(tl, tr)
	case token.ADD, token.SUB:
		// pointer arithmetic
		if tl.IsPtr() && tr.Kind == types.Int {
			return tl
		}
		if tr.IsPtr() && tl.Kind == types.Int && x.Op == token.ADD {
			return tr
		}
		if tl.IsPtr() && tr.IsPtr() && x.Op == token.SUB {
			return types.LongType
		}
		fallthrough
	default:
		if !tl.IsArith() || !tr.IsArith() {
			c.errorf(x.Pos(), "invalid operands to %s: %s and %s", x.Op, tl, tr)
			return types.IntType
		}
		return types.Promote(tl, tr)
	}
}

func (c *checker) unary(x *ast.UnaryExpr) *types.Type {
	t := c.expr(x.X)
	switch x.Op {
	case token.SUB:
		if !t.IsArith() {
			c.errorf(x.Pos(), "unary - requires arithmetic operand, got %s", t)
		}
		return t
	case token.NOT:
		return types.IntType
	case token.TILDE:
		if t.Kind != types.Int {
			c.errorf(x.Pos(), "~ requires integer operand, got %s", t)
		}
		return t
	case token.MUL:
		if !t.IsPtr() {
			c.errorf(x.Pos(), "cannot dereference non-pointer %s", t)
			return types.IntType
		}
		return t.Elem
	case token.AND:
		c.requireLvalue(x.X)
		// A scalar variable lives in a frame or global slot, not in
		// addressable memory.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if sym := c.info.Ref[id]; sym != nil && !sym.IsArray() && t.Kind != types.Struct {
				c.errorf(id.Pos(), "cannot take the address of scalar %s (frame storage)", id.Name)
			}
		}
		return types.PointerTo(t, false, false)
	case token.INC, token.DEC:
		c.requireLvalue(x.X)
		return t
	}
	c.errorf(x.Pos(), "unsupported unary operator %s", x.Op)
	return types.IntType
}

func (c *checker) assign(x *ast.AssignExpr) *types.Type {
	tl := c.expr(x.LHS)
	tr := c.expr(x.RHS)
	c.requireLvalue(x.LHS)
	if x.Op == token.ASSIGN {
		if !assignable(tl, tr, x.RHS) {
			c.errorf(x.Pos(), "cannot assign %s to %s", tr, tl)
		}
	} else if bin, ok := x.Op.AssignBinOp(); ok {
		// Pointer += int is allowed; otherwise arithmetic.
		if tl.IsPtr() && (bin == token.ADD || bin == token.SUB) && tr.Kind == types.Int {
			return tl
		}
		if !tl.IsArith() || !tr.IsArith() {
			c.errorf(x.Pos(), "invalid compound assignment %s: %s and %s", x.Op, tl, tr)
		}
	}
	return tl
}

func (c *checker) call(x *ast.CallExpr) *types.Type {
	name := x.Fun.Name
	var sig *Sig
	if s, ok := c.info.Funcs[name]; ok {
		sig = s
	} else if b, ok := Builtins[name]; ok {
		sig = &Sig{Name: name, Pure: b.pure, Ret: b.ret, Params: b.params, Variadic: b.variadic, Builtin: true}
	} else {
		c.errorf(x.Pos(), "call of undeclared function %s", name)
		for _, a := range x.Args {
			c.expr(a)
		}
		return types.IntType
	}
	// Record the callee as a function symbol use.
	c.info.Ref[x.Fun] = &Symbol{Name: name, Kind: symKindFor(sig), Pure: sig.Pure, Func: sig.Decl}
	if !sig.Variadic && len(x.Args) != len(sig.Params) {
		c.errorf(x.Pos(), "function %s expects %d arguments, got %d", name, len(sig.Params), len(x.Args))
	}
	if sig.Builtin && name == "malloc" && x != c.placed {
		c.errorf(x.Pos(), "malloc must be cast to its target pointer type, e.g. (int*)malloc(n)")
	}
	for i, a := range x.Args {
		at := c.expr(a)
		if i < len(sig.Params) && !assignable(sig.Params[i], at, a) {
			c.errorf(a.Pos(), "argument %d of %s: cannot pass %s as %s", i+1, name, at, sig.Params[i])
		}
	}
	if sig.Builtin && name == "printf" {
		c.printf(x)
	}
	return sig.Ret
}

// effect checks an expression evaluated for its side effects alone: a
// malloc there would leak its block.
func (c *checker) effect(e ast.Expr) {
	if call := mallocCall(e); call != nil {
		c.errorf(call.Pos(), "malloc result must be used (cast and assign it)")
		c.placed = call
	}
	c.expr(e)
}

// mallocCall returns e as a call of malloc, parentheses dropped, or nil.
func mallocCall(e ast.Expr) *ast.CallExpr {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && call.Fun.Name == "malloc" {
		return call
	}
	return nil
}

func symKindFor(sig *Sig) SymKind {
	if sig.Builtin {
		return SymBuiltin
	}
	return SymFunc
}

func (c *checker) member(x *ast.MemberExpr) *types.Type {
	t := c.expr(x.X)
	st := t
	if x.Arrow {
		if !t.IsPtr() {
			c.errorf(x.Pos(), "-> on non-pointer %s", t)
			return types.IntType
		}
		st = t.Elem
	}
	if st == nil || st.Kind != types.Struct {
		c.errorf(x.Pos(), "member access on non-struct %s", t)
		return types.IntType
	}
	for _, f := range st.Fields {
		if f.Name == x.Name {
			if f.Count > 1 {
				// Array fields decay to a pointer to the element type.
				return types.PointerTo(f.Type, false, false)
			}
			return f.Type
		}
	}
	c.errorf(x.Pos(), "struct %s has no field %s", st.Tag, x.Name)
	return types.IntType
}

func (c *checker) requireLvalue(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		return
	case *ast.IndexExpr, *ast.MemberExpr:
		return
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return
		}
	case *ast.ParenExpr:
		c.requireLvalue(x.X)
		return
	}
	c.errorf(e.Pos(), "expression is not assignable")
}

// constInt evaluates an integer constant expression (literals, unary
// minus, the four basic operators, shifts and sizeof of scalar types).
func (c *checker) constInt(e ast.Expr) (int64, bool) {
	return ConstInt(e)
}

// ConstInt folds an integer constant expression, reporting success.
func ConstInt(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.CharLit:
		return x.Value, true
	case *ast.ParenExpr:
		return ConstInt(x.X)
	case *ast.UnaryExpr:
		v, ok := ConstInt(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case token.SUB:
			return -v, true
		case token.TILDE:
			return ^v, true
		case token.NOT:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *ast.BinaryExpr:
		a, ok1 := ConstInt(x.X)
		b, ok2 := ConstInt(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case token.ADD:
			return a + b, true
		case token.SUB:
			return a - b, true
		case token.MUL:
			return a * b, true
		case token.QUO:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case token.REM:
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case token.SHL:
			return a << uint(b), true
		case token.SHR:
			return a >> uint(b), true
		case token.AND:
			return a & b, true
		case token.OR:
			return a | b, true
		case token.XOR:
			return a ^ b, true
		}
	case *ast.SizeofExpr:
		if x.Type != nil {
			t, err := FromAST(x.Type, nil)
			if err == nil {
				return int64(t.CSize), true
			}
		}
	}
	return 0, false
}

// ConstFloat folds a constant arithmetic expression: an integer
// constant expression (ConstInt, so 1/4 is 0 as in C), a float literal,
// and + - * / negation and arithmetic casts over those, reporting
// success. A cast to an integer type truncates toward zero, one to a
// 4-byte float rounds through float32.
func ConstFloat(e ast.Expr) (float64, bool) {
	if v, ok := ConstInt(e); ok {
		return float64(v), true
	}
	switch x := e.(type) {
	case *ast.FloatLit:
		return x.Value, true
	case *ast.ParenExpr:
		return ConstFloat(x.X)
	case *ast.UnaryExpr:
		if v, ok := ConstFloat(x.X); ok && x.Op == token.SUB {
			return -v, true
		}
	case *ast.CastExpr:
		if v, ok := ConstFloat(x.X); ok {
			return convertConst(x.Checked(), v)
		}
	case *ast.BinaryExpr:
		a, ok1 := ConstFloat(x.X)
		b, ok2 := ConstFloat(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case token.ADD:
			return a + b, true
		case token.SUB:
			return a - b, true
		case token.MUL:
			return a * b, true
		case token.QUO:
			return a / b, true
		}
	}
	return 0, false
}

// ConstScalar folds the constant initializer e of a scalar of type t
// and converts it as a store to t does: an integer constant exactly, a
// float constant truncated toward zero into an integer, rounded through
// float32 into a 4-byte float.
func ConstScalar(t *types.Type, e ast.Expr) (int64, float64, bool) {
	if v, ok := ConstInt(e); ok && t.Kind != types.Float {
		return v, 0, true
	}
	f, ok := ConstFloat(e)
	if !ok {
		return 0, 0, false
	}
	f, ok = convertConst(t, f)
	return int64(f), f, ok
}

// convertConst converts a folded constant to the arithmetic type t.
func convertConst(t *types.Type, v float64) (float64, bool) {
	switch {
	case t == nil:
	case t.Kind == types.Int:
		return float64(int64(v)), true
	case t.Kind == types.Float && t.CSize == 4:
		return float64(float32(v)), true
	case t.Kind == types.Float:
		return v, true
	}
	return 0, false
}
