// Package ast declares the syntax tree of the mini-C dialect.
//
// The tree mirrors the C subset that the paper's tool chain manipulates:
// top-level variable, struct and function declarations; the statement and
// expression forms used by the four evaluation applications; and the pure
// extension on function declarations, pointer declarators and casts
// (paper Listings 1-4). Pragma lines (#pragma scop, #pragma omp ...)
// are first-class statements so that the SCoP marking and OpenMP insertion
// stages of Fig. 1 are plain tree rewrites.
package ast

import (
	"fmt"

	"purec/internal/token"
	"purec/internal/types"
)

// Node is implemented by every syntax tree node.
type Node interface {
	Pos() token.Pos
}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	// Checked returns the type sema gave the expression, nil before
	// it is checked.
	Checked() *types.Type
	// SetChecked records the expression's type; sema.Check and
	// sema.Recheck call it, and a pass that builds a node for its own
	// use may type that node.
	SetChecked(*types.Type)
	exprNode()
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Decl is implemented by all top-level declaration nodes.
type Decl interface {
	Node
	declNode()
}

// ----------------------------------------------------------------------------
// Types (syntactic form; semantic types live in internal/types)

// BaseKind enumerates the builtin base types of the subset.
type BaseKind int

// Builtin base type kinds.
const (
	Void BaseKind = iota
	Char
	Short
	Int
	Long
	Float
	Double
	Unsigned // unsigned int
	Struct   // struct <Name>
)

var baseNames = [...]string{
	Void:     "void",
	Char:     "char",
	Short:    "short",
	Int:      "int",
	Long:     "long",
	Float:    "float",
	Double:   "double",
	Unsigned: "unsigned",
	Struct:   "struct",
}

// String returns the C spelling of the base kind.
func (b BaseKind) String() string { return baseNames[b] }

// PtrQual records the qualifiers of one pointer level ("*", "pure *",
// "const *").
type PtrQual struct {
	Pure  bool
	Const bool
}

// TypeExpr is a syntactic type: a base type, an optional struct tag, a
// chain of pointer levels (innermost first) and qualifiers on the base.
type TypeExpr struct {
	TypePos    token.Pos
	Pure       bool // pure qualifier on the declared entity (paper Listing 1)
	Const      bool
	Base       BaseKind
	StructName string    // when Base == Struct
	Ptrs       []PtrQual // one entry per '*', outermost last
}

// Pos returns the source position of the type.
func (t *TypeExpr) Pos() token.Pos { return t.TypePos }

// IsPointer reports whether the type has at least one pointer level.
func (t *TypeExpr) IsPointer() bool { return len(t.Ptrs) > 0 }

// Clone returns a deep copy of the type expression.
func (t *TypeExpr) Clone() *TypeExpr {
	if t == nil {
		return nil
	}
	c := *t
	c.Ptrs = append([]PtrQual(nil), t.Ptrs...)
	return &c
}

// ----------------------------------------------------------------------------
// Expressions

// typed is embedded in every expression node: the node's checked type,
// so the semantic model needs no table keyed by node.
type typed struct{ t *types.Type }

func (x *typed) Checked() *types.Type     { return x.t }
func (x *typed) SetChecked(t *types.Type) { x.t = t }

// Ident is a use of a name.
type Ident struct {
	typed
	NamePos token.Pos
	Name    string
}

// IntLit is an integer literal; Value is the parsed value and Text the
// original spelling.
type IntLit struct {
	typed
	LitPos token.Pos
	Value  int64
	Text   string
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	typed
	LitPos token.Pos
	Value  float64
	Text   string
}

// CharLit is a character constant; Value is its integer value.
type CharLit struct {
	typed
	LitPos token.Pos
	Value  int64
	Text   string
}

// StringLit is a string literal; Value is the unquoted value.
type StringLit struct {
	typed
	LitPos token.Pos
	Value  string
	Text   string
}

// BinaryExpr is X Op Y for the arithmetic, bit, shift, comparison and
// logical operators.
type BinaryExpr struct {
	typed
	X  Expr
	Op token.Kind
	Y  Expr
}

// UnaryExpr is a prefix operator application: -X, !X, ~X, *X, &X, ++X, --X.
type UnaryExpr struct {
	typed
	OpPos token.Pos
	Op    token.Kind
	X     Expr
}

// PostfixExpr is X++ or X--.
type PostfixExpr struct {
	typed
	X  Expr
	Op token.Kind
}

// AssignExpr is LHS op= RHS, with Op one of the assignment operators.
type AssignExpr struct {
	typed
	LHS Expr
	Op  token.Kind
	RHS Expr
}

// CondExpr is Cond ? Then : Else.
type CondExpr struct {
	typed
	Cond Expr
	Then Expr
	Else Expr
}

// CallExpr is Fun(Args...). The callee is restricted to a plain identifier,
// matching the paper's compiler pass which resolves calls by name against
// its hashset of pure functions.
type CallExpr struct {
	typed
	Fun  *Ident
	Args []Expr
}

// IndexExpr is X[Index].
type IndexExpr struct {
	typed
	X     Expr
	Index Expr
}

// MemberExpr is X.Name or X->Name.
type MemberExpr struct {
	typed
	X     Expr
	Name  string
	Arrow bool
}

// CastExpr is (Type)X, including pure casts such as (pure int*)p
// (paper Listing 3).
type CastExpr struct {
	typed
	LPos token.Pos
	Type *TypeExpr
	X    Expr
}

// SizeofExpr is sizeof(Type) or sizeof expr; exactly one of Type and X is
// set.
type SizeofExpr struct {
	typed
	SizePos token.Pos
	Type    *TypeExpr
	X       Expr
}

// ParenExpr is a parenthesized expression, preserved for faithful
// round-tripping of the source.
type ParenExpr struct {
	typed
	LPos token.Pos
	X    Expr
}

// Pos implementations.
func (x *Ident) Pos() token.Pos       { return x.NamePos }
func (x *IntLit) Pos() token.Pos      { return x.LitPos }
func (x *FloatLit) Pos() token.Pos    { return x.LitPos }
func (x *CharLit) Pos() token.Pos     { return x.LitPos }
func (x *StringLit) Pos() token.Pos   { return x.LitPos }
func (x *BinaryExpr) Pos() token.Pos  { return x.X.Pos() }
func (x *UnaryExpr) Pos() token.Pos   { return x.OpPos }
func (x *PostfixExpr) Pos() token.Pos { return x.X.Pos() }
func (x *AssignExpr) Pos() token.Pos  { return x.LHS.Pos() }
func (x *CondExpr) Pos() token.Pos    { return x.Cond.Pos() }
func (x *CallExpr) Pos() token.Pos    { return x.Fun.Pos() }
func (x *IndexExpr) Pos() token.Pos   { return x.X.Pos() }
func (x *MemberExpr) Pos() token.Pos  { return x.X.Pos() }
func (x *CastExpr) Pos() token.Pos    { return x.LPos }
func (x *SizeofExpr) Pos() token.Pos  { return x.SizePos }
func (x *ParenExpr) Pos() token.Pos   { return x.LPos }

func (*Ident) exprNode()       {}
func (*IntLit) exprNode()      {}
func (*FloatLit) exprNode()    {}
func (*CharLit) exprNode()     {}
func (*StringLit) exprNode()   {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*PostfixExpr) exprNode() {}
func (*AssignExpr) exprNode()  {}
func (*CondExpr) exprNode()    {}
func (*CallExpr) exprNode()    {}
func (*IndexExpr) exprNode()   {}
func (*MemberExpr) exprNode()  {}
func (*CastExpr) exprNode()    {}
func (*SizeofExpr) exprNode()  {}
func (*ParenExpr) exprNode()   {}

// CloneExpr returns a deep copy of e: the copy shares no node with e,
// so a rewrite may place it next to the original.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Ident:
		c := *x
		return &c
	case *IntLit:
		c := *x
		return &c
	case *FloatLit:
		c := *x
		return &c
	case *CharLit:
		c := *x
		return &c
	case *StringLit:
		c := *x
		return &c
	case *BinaryExpr:
		return &BinaryExpr{X: CloneExpr(x.X), Op: x.Op, Y: CloneExpr(x.Y)}
	case *UnaryExpr:
		return &UnaryExpr{OpPos: x.OpPos, Op: x.Op, X: CloneExpr(x.X)}
	case *PostfixExpr:
		return &PostfixExpr{X: CloneExpr(x.X), Op: x.Op}
	case *AssignExpr:
		return &AssignExpr{LHS: CloneExpr(x.LHS), Op: x.Op, RHS: CloneExpr(x.RHS)}
	case *CondExpr:
		return &CondExpr{Cond: CloneExpr(x.Cond), Then: CloneExpr(x.Then), Else: CloneExpr(x.Else)}
	case *CallExpr:
		c := &CallExpr{Fun: CloneExpr(x.Fun).(*Ident), Args: make([]Expr, len(x.Args))}
		for i, a := range x.Args {
			c.Args[i] = CloneExpr(a)
		}
		return c
	case *IndexExpr:
		return &IndexExpr{X: CloneExpr(x.X), Index: CloneExpr(x.Index)}
	case *MemberExpr:
		return &MemberExpr{X: CloneExpr(x.X), Name: x.Name, Arrow: x.Arrow}
	case *CastExpr:
		return &CastExpr{LPos: x.LPos, Type: x.Type.Clone(), X: CloneExpr(x.X)}
	case *SizeofExpr:
		return &SizeofExpr{SizePos: x.SizePos, Type: x.Type.Clone(), X: CloneExpr(x.X)}
	case *ParenExpr:
		return &ParenExpr{LPos: x.LPos, X: CloneExpr(x.X)}
	}
	panic(fmt.Sprintf("ast: CloneExpr of %T", e))
}

// ----------------------------------------------------------------------------
// Statements

// VarDecl declares one variable: scalar, pointer or fixed-size array.
// It appears both as a statement (DeclStmt) and at file scope (wrapped in
// VarDeclGroup).
type VarDecl struct {
	Type      *TypeExpr
	Name      string
	NamePos   token.Pos
	ArrayLens []Expr // one per array dimension; nil for scalars/pointers
	Init      Expr   // optional initializer
}

// Pos returns the position of the declared name.
func (d *VarDecl) Pos() token.Pos { return d.NamePos }

// DeclStmt is a declaration in statement position; one C declaration line
// may declare several variables.
type DeclStmt struct {
	Decls []*VarDecl
}

// ExprStmt is an expression evaluated for its effect.
type ExprStmt struct {
	X Expr
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct {
	SemiPos token.Pos
}

// BlockStmt is { ... }.
type BlockStmt struct {
	LBrace token.Pos
	List   []Stmt
}

// IfStmt is if (Cond) Then [else Else].
type IfStmt struct {
	IfPos token.Pos
	Cond  Expr
	Then  Stmt
	Else  Stmt // nil when absent
}

// ForStmt is for (Init; Cond; Post) Body. Init is either a DeclStmt or an
// ExprStmt (or nil).
type ForStmt struct {
	ForPos token.Pos
	Init   Stmt
	Cond   Expr
	Post   Expr
	Body   Stmt
}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	WhilePos token.Pos
	Cond     Expr
	Body     Stmt
}

// DoStmt is do Body while (Cond);.
type DoStmt struct {
	DoPos token.Pos
	Body  Stmt
	Cond  Expr
}

// ReturnStmt is return [X];.
type ReturnStmt struct {
	RetPos token.Pos
	X      Expr // nil for bare return
}

// BreakStmt is break;.
type BreakStmt struct {
	BreakPos token.Pos
}

// ContinueStmt is continue;.
type ContinueStmt struct {
	ContPos token.Pos
}

// SwitchStmt is switch (Tag) { Cases... }.
type SwitchStmt struct {
	SwitchPos token.Pos
	Tag       Expr
	Cases     []*CaseClause
}

// CaseClause is one case or default clause of a switch.
type CaseClause struct {
	CasePos token.Pos
	Value   Expr // nil for default
	Body    []Stmt
}

// PragmaStmt is a #pragma line in statement position; Text is the full
// line including "#pragma". The SCoP markers and OpenMP directives of the
// paper's pipeline are PragmaStmts.
type PragmaStmt struct {
	PragmaPos token.Pos
	Text      string
}

// Pos implementations.
func (s *DeclStmt) Pos() token.Pos {
	if len(s.Decls) > 0 {
		return s.Decls[0].Pos()
	}
	return token.Pos{}
}
func (s *ExprStmt) Pos() token.Pos     { return s.X.Pos() }
func (s *EmptyStmt) Pos() token.Pos    { return s.SemiPos }
func (s *BlockStmt) Pos() token.Pos    { return s.LBrace }
func (s *IfStmt) Pos() token.Pos       { return s.IfPos }
func (s *ForStmt) Pos() token.Pos      { return s.ForPos }
func (s *WhileStmt) Pos() token.Pos    { return s.WhilePos }
func (s *DoStmt) Pos() token.Pos       { return s.DoPos }
func (s *ReturnStmt) Pos() token.Pos   { return s.RetPos }
func (s *BreakStmt) Pos() token.Pos    { return s.BreakPos }
func (s *ContinueStmt) Pos() token.Pos { return s.ContPos }
func (s *SwitchStmt) Pos() token.Pos   { return s.SwitchPos }
func (s *CaseClause) Pos() token.Pos   { return s.CasePos }
func (s *PragmaStmt) Pos() token.Pos   { return s.PragmaPos }

func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*EmptyStmt) stmtNode()    {}
func (*BlockStmt) stmtNode()    {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*DoStmt) stmtNode()       {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*SwitchStmt) stmtNode()   {}
func (*PragmaStmt) stmtNode()   {}

// ----------------------------------------------------------------------------
// Declarations

// Param is one function parameter.
type Param struct {
	Type    *TypeExpr
	Name    string
	NamePos token.Pos
}

// FuncDecl is a function prototype (Body == nil) or definition. Pure
// records the paper's pure modifier on the function itself; the pure
// qualifier on the return pointer, if any, lives in Ret.
type FuncDecl struct {
	Pure    bool
	Static  bool
	Inline  bool
	Ret     *TypeExpr
	Name    string
	NamePos token.Pos
	Params  []Param
	Body    *BlockStmt
}

// VarDeclGroup is a file-scope declaration line (possibly declaring
// several variables).
type VarDeclGroup struct {
	Decls []*VarDecl
}

// Field is one member of a struct declaration.
type Field struct {
	Type      *TypeExpr
	Name      string
	NamePos   token.Pos
	ArrayLens []Expr
}

// StructDecl declares struct Name { Fields... };.
type StructDecl struct {
	StructPos token.Pos
	Name      string
	Fields    []Field
}

// PragmaDecl is a #pragma line at file scope.
type PragmaDecl struct {
	PragmaPos token.Pos
	Text      string
}

// Pos implementations.
func (d *FuncDecl) Pos() token.Pos { return d.NamePos }
func (d *VarDeclGroup) Pos() token.Pos {
	if len(d.Decls) > 0 {
		return d.Decls[0].Pos()
	}
	return token.Pos{}
}
func (d *StructDecl) Pos() token.Pos { return d.StructPos }
func (d *PragmaDecl) Pos() token.Pos { return d.PragmaPos }

func (*FuncDecl) declNode()     {}
func (*VarDeclGroup) declNode() {}
func (*StructDecl) declNode()   {}
func (*PragmaDecl) declNode()   {}

// File is one translation unit after preprocessing.
type File struct {
	Name  string
	Decls []Decl
}

// Pos returns the position of the first declaration.
func (f *File) Pos() token.Pos {
	if len(f.Decls) > 0 {
		return f.Decls[0].Pos()
	}
	return token.Pos{File: f.Name, Line: 1, Col: 1}
}

// Funcs returns the function declarations of the file in order.
func (f *File) Funcs() []*FuncDecl {
	var out []*FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok {
			out = append(out, fd)
		}
	}
	return out
}

// LookupFunc returns the function definition (preferred) or prototype
// named name, or nil.
func (f *File) LookupFunc(name string) *FuncDecl {
	var proto *FuncDecl
	for _, d := range f.Decls {
		fd, ok := d.(*FuncDecl)
		if !ok || fd.Name != name {
			continue
		}
		if fd.Body != nil {
			return fd
		}
		if proto == nil {
			proto = fd
		}
	}
	return proto
}
