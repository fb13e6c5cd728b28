// Package parser builds the purec AST from token streams.
//
// It is a hand-written recursive-descent parser for the C subset used by
// the paper's tool chain (the paper used an AntLR 4.5 parser generated
// from the C11 grammar; a hand-written parser plays the same role here).
// The grammar extensions are exactly the paper's: pure as a function
// modifier, pure as a pointer qualifier in declarations and parameter
// lists, and pure inside cast type names (Listings 1-4).
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"purec/internal/ast"
	"purec/internal/lexer"
	"purec/internal/token"
)

// MaxStmtDepth bounds statement nesting inside a function body: a
// block, if, for, while, do or switch nested deeper is a parse error.
// 127 is the nesting every C99 implementation must accept
// (§5.2.4.1). Later passes recurse over the tree and print it indented,
// so an unbounded nest would cost time and memory quadratic in its
// depth.
const MaxStmtDepth = 127

// MaxExprDepth bounds the depth of an expression tree: operands of
// unary operators, parentheses, casts, the right-hand sides of
// assignments and conditionals, and every link of an operator chain
// such as 1+1+…+1 or a[0][0]… count one level each. Later passes
// recurse over the tree, so an unbounded depth would overflow the Go
// stack.
const MaxExprDepth = 1024

// Error is a parse error with position information. TooDeep marks an
// error of a nesting limit (MaxStmtDepth, MaxExprDepth).
type Error struct {
	Pos     token.Pos
	Msg     string
	TooDeep bool
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses a complete translation unit. file names the source for
// positions; src must already be preprocessed except for #pragma lines.
// The parser pulls its tokens from the lexer as it goes; a lexical error
// anywhere in src is reported in place of a parse error.
func Parse(file, src string) (*ast.File, error) {
	p := newParser(file, src)
	f, err := p.parseFile()
	if err := p.lexErr(); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ParseExpr parses a single expression (used by tests and the bench
// harness for parameter expressions).
func ParseExpr(src string) (ast.Expr, error) {
	p := newParser("<expr>", src)
	e, err := p.expr()
	if err == nil && p.kind() != token.EOF {
		err = p.errorf("unexpected %s after expression", p.tok())
	}
	if err := p.lexErr(); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

type parser struct {
	lx *lexer.Lexer
	// ring holds the tokens from pos on, token i at ring[i&(ringSize-1)];
	// scanned counts the tokens taken from the lexer. The grammar looks
	// at most two tokens ahead and never backs up, so no token before
	// pos is kept.
	ring         [ringSize]token.Token
	pos, scanned int
	file         string

	// structTags collects struct names declared so far so that
	// "struct x" type references can be validated early.
	structTags map[string]bool

	// stmtDepth and exprDepth are the current statement and expression
	// nesting (MaxStmtDepth, MaxExprDepth).
	stmtDepth, exprDepth int
}

// ringSize is how many tokens the parser buffers, a power of two. The
// ring is refilled a run of tokens at a time: pulling them one by one
// costs a call per token, about a tenth of the parse.
const ringSize = 16

func newParser(file, src string) *parser {
	return &parser{lx: lexer.New(file, src), file: file}
}

// lexErr scans the rest of the source and returns its lexical errors.
func (p *parser) lexErr() error {
	for p.ahead(0).Kind != token.EOF {
		p.pos++
	}
	return p.lx.Errors().Err()
}

// fill scans tokens into the free slots of the ring, stopping after EOF.
func (p *parser) fill() {
	for p.scanned < p.pos+ringSize {
		if p.scanned > 0 && p.ring[(p.scanned-1)&(ringSize-1)].Kind == token.EOF {
			return
		}
		p.ring[p.scanned&(ringSize-1)] = p.lx.Scan()
		p.scanned++
	}
}

// ahead returns the token i places after the current one (i <= 2); past
// the end of the source it is the EOF token.
func (p *parser) ahead(i int) token.Token {
	if p.scanned <= p.pos+i {
		p.fill()
		if p.scanned <= p.pos+i {
			return p.ring[(p.scanned-1)&(ringSize-1)]
		}
	}
	return p.ring[(p.pos+i)&(ringSize-1)]
}

func (p *parser) tok() token.Token {
	if p.scanned > p.pos {
		return p.ring[p.pos&(ringSize-1)]
	}
	return p.ahead(0)
}

// kind is tok().Kind without copying the token.
func (p *parser) kind() token.Kind {
	if p.scanned > p.pos {
		return p.ring[p.pos&(ringSize-1)].Kind
	}
	return p.ahead(0).Kind
}

func (p *parser) peek() token.Token { return p.ahead(1) }

func (p *parser) next() token.Token {
	t := p.tok()
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.kind() == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return token.Token{}, p.errorf("expected %q, found %s", k.String(), p.tok())
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.tok().Pos, Msg: fmt.Sprintf(format, args...)}
}

// deeper enters one more level of expression nesting; the caller
// restores exprDepth when the level is done.
func (p *parser) deeper() error {
	if p.exprDepth++; p.exprDepth > MaxExprDepth {
		return p.tooDeep("expression", MaxExprDepth)
	}
	return nil
}

// tooDeep is the error of a nesting limit at the current token.
func (p *parser) tooDeep(what string, limit int) error {
	return tooDeep(p.tok().Pos, what, limit)
}

// tooDeep is the error of a nesting limit at pos.
func tooDeep(pos token.Pos, what string, limit int) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf("%s nesting exceeds %d levels", what, limit), TooDeep: true}
}

// ----------------------------------------------------------------------------
// Declarations

func (p *parser) parseFile() (*ast.File, error) {
	f := &ast.File{Name: p.file}
	p.structTags = map[string]bool{}
	for !p.at(token.EOF) {
		d, err := p.topDecl()
		if err != nil {
			return nil, err
		}
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
	}
	return f, nil
}

func (p *parser) topDecl() (ast.Decl, error) {
	switch p.kind() {
	case token.PRAGMA:
		t := p.next()
		return &ast.PragmaDecl{PragmaPos: t.Pos, Text: t.Lit}, nil
	case token.SEMI:
		p.next()
		return nil, nil
	case token.STRUCT:
		// Either a struct declaration "struct X { ... };" or a variable
		// of struct type "struct X v;".
		if p.peek().Kind == token.IDENT {
			if p.ahead(2).Kind == token.LBRACE {
				return p.structDecl()
			}
		}
	}
	return p.declOrFunc()
}

func (p *parser) structDecl() (ast.Decl, error) {
	spos := p.next().Pos // struct
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBRACE); err != nil {
		return nil, err
	}
	sd := &ast.StructDecl{StructPos: spos, Name: name.Lit}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		ft, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		for {
			fname, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			fld := ast.Field{Type: ft.Clone(), Name: fname.Lit, NamePos: fname.Pos}
			for p.accept(token.LBRACK) {
				l, err := p.expr()
				if err != nil {
					return nil, err
				}
				fld.ArrayLens = append(fld.ArrayLens, l)
				if _, err := p.expect(token.RBRACK); err != nil {
					return nil, err
				}
			}
			sd.Fields = append(sd.Fields, fld)
			if !p.accept(token.COMMA) {
				break
			}
		}
		if _, err := p.expect(token.SEMI); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.RBRACE); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.SEMI); err != nil {
		return nil, err
	}
	p.structTags[sd.Name] = true
	return sd, nil
}

// declOrFunc parses a declaration that may be a function prototype,
// function definition, or (group of) variable declaration(s).
func (p *parser) declOrFunc() (ast.Decl, error) {
	pure, static, inline := p.declModifiers()
	base, err := p.baseTypeExpr()
	if err != nil {
		return nil, err
	}
	base.Pure = base.Pure || pure
	t := base.Clone()
	p.ptrStars(t)
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if p.at(token.LPAREN) {
		return p.funcRest(t, name, static, inline)
	}
	// Variable declaration(s); each declarator carries its own '*'s.
	normalizePure(t)
	g := &ast.VarDeclGroup{}
	d, err := p.varDeclRest(t, name)
	if err != nil {
		return nil, err
	}
	g.Decls = append(g.Decls, d)
	for p.accept(token.COMMA) {
		t2 := base.Clone()
		p.ptrStars(t2)
		normalizePure(t2)
		n2, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		d2, err := p.varDeclRest(t2, n2)
		if err != nil {
			return nil, err
		}
		g.Decls = append(g.Decls, d2)
	}
	if _, err := p.expect(token.SEMI); err != nil {
		return nil, err
	}
	return g, nil
}

// normalizePure propagates a pure qualifier written before the base type
// onto the outermost pointer level, so purity checks only consult Ptrs
// ("pure int* p" declares a pure pointer, paper Listing 1).
func normalizePure(t *ast.TypeExpr) {
	if t.Pure && len(t.Ptrs) > 0 {
		t.Ptrs[len(t.Ptrs)-1].Pure = true
	}
}

// declModifiers consumes leading pure/static/inline/extern modifiers.
func (p *parser) declModifiers() (pure, static, inline bool) {
	for {
		switch p.kind() {
		case token.PURE:
			// pure directly before a base type: function purity or
			// pure-qualified declaration (disambiguated by typeExpr).
			if p.peek().Kind != token.IDENT { // pure int ..., pure float* ...
				pure = true
				p.next()
				continue
			}
			return
		case token.STATIC:
			static = true
			p.next()
		case token.INLINE:
			inline = true
			p.next()
		case token.EXTERN, token.REGISTER, token.VOLATILE:
			p.next()
		default:
			return
		}
	}
}

func (p *parser) varDeclRest(t *ast.TypeExpr, name token.Token) (*ast.VarDecl, error) {
	d := &ast.VarDecl{Type: t, Name: name.Lit, NamePos: name.Pos}
	for p.accept(token.LBRACK) {
		l, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.ArrayLens = append(d.ArrayLens, l)
		if _, err := p.expect(token.RBRACK); err != nil {
			return nil, err
		}
	}
	if p.accept(token.ASSIGN) {
		init, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

func (p *parser) funcRest(ret *ast.TypeExpr, name token.Token, static, inline bool) (ast.Decl, error) {
	fd := &ast.FuncDecl{
		Pure:    ret.Pure,
		Static:  static,
		Inline:  inline,
		Ret:     ret,
		Name:    name.Lit,
		NamePos: name.Pos,
	}
	// The pure flag belongs to the function, not the return type's
	// pointee; keep Ret.Pure set as well so the printer reproduces the
	// original "pure int* f(...)" spelling via the FuncDecl.Pure flag only.
	fd.Ret = ret.Clone()
	fd.Ret.Pure = false
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	if p.at(token.VOID) && p.peek().Kind == token.RPAREN {
		p.next()
	}
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		pt, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		var pn token.Token
		if p.at(token.IDENT) {
			pn = p.next()
		}
		prm := ast.Param{Type: pt, Name: pn.Lit, NamePos: pn.Pos}
		// Array parameter syntax T a[] / T a[N] decays to a pointer.
		for p.accept(token.LBRACK) {
			if !p.at(token.RBRACK) {
				if _, err := p.expr(); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(token.RBRACK); err != nil {
				return nil, err
			}
			prm.Type.Ptrs = append(prm.Type.Ptrs, ast.PtrQual{})
		}
		fd.Params = append(fd.Params, prm)
		if !p.accept(token.COMMA) {
			break
		}
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	if p.accept(token.SEMI) {
		return fd, nil // prototype
	}
	body, err := p.blockStmt()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

// ----------------------------------------------------------------------------
// Types

// isTypeStart reports whether the current token can begin a type.
func (p *parser) isTypeStart() bool {
	switch p.kind() {
	case token.VOID, token.CHAR, token.SHORT, token.INT, token.LONG,
		token.FLOAT, token.DOUBLE, token.UNSIGNED, token.SIGNED,
		token.STRUCT, token.CONST:
		return true
	case token.PURE:
		// pure begins a type when followed by a base type or const
		// ("pure int*", "pure const float*"); a bare "pure" identifier
		// use is not part of the subset.
		switch p.peek().Kind {
		case token.VOID, token.CHAR, token.SHORT, token.INT, token.LONG,
			token.FLOAT, token.DOUBLE, token.UNSIGNED, token.SIGNED,
			token.STRUCT, token.CONST:
			return true
		}
	}
	return false
}

// typeExpr parses [pure] [const] base {*} with per-level pure/const
// pointer qualifiers, e.g. "pure float*", "struct datatype*",
// "const int* const*".
func (p *parser) typeExpr() (*ast.TypeExpr, error) {
	t, err := p.baseTypeExpr()
	if err != nil {
		return nil, err
	}
	p.ptrStars(t)
	normalizePure(t)
	return t, nil
}

// baseTypeExpr parses the qualifier+base part of a type, without pointer
// declarator stars.
func (p *parser) baseTypeExpr() (*ast.TypeExpr, error) {
	t := &ast.TypeExpr{TypePos: p.tok().Pos}
	for {
		if p.accept(token.PURE) {
			t.Pure = true
			continue
		}
		if p.accept(token.CONST) {
			t.Const = true
			continue
		}
		break
	}
	switch p.kind() {
	case token.VOID:
		p.next()
		t.Base = ast.Void
	case token.CHAR:
		p.next()
		t.Base = ast.Char
	case token.SHORT:
		p.next()
		t.Base = ast.Short
		p.accept(token.INT)
	case token.INT:
		p.next()
		t.Base = ast.Int
	case token.LONG:
		p.next()
		t.Base = ast.Long
		p.accept(token.LONG) // long long
		p.accept(token.INT)
	case token.FLOAT:
		p.next()
		t.Base = ast.Float
	case token.DOUBLE:
		p.next()
		t.Base = ast.Double
	case token.UNSIGNED:
		p.next()
		t.Base = ast.Unsigned
		p.accept(token.LONG)
		p.accept(token.INT)
		p.accept(token.CHAR)
	case token.SIGNED:
		p.next()
		t.Base = ast.Int
		p.accept(token.INT)
	case token.STRUCT:
		p.next()
		tag, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		t.Base = ast.Struct
		t.StructName = tag.Lit
	default:
		return nil, p.errorf("expected type, found %s", p.tok())
	}
	// trailing const after base: "int const"
	if p.accept(token.CONST) {
		t.Const = true
	}
	return t, nil
}

// ptrStars consumes the pointer declarator levels of a type, with optional
// pure/const qualifiers before or after each star ("pure*", "* const").
func (p *parser) ptrStars(t *ast.TypeExpr) {
	for {
		q := ast.PtrQual{}
		if p.at(token.MUL) {
			p.next()
			for {
				if p.accept(token.CONST) {
					q.Const = true
					continue
				}
				if p.accept(token.PURE) {
					q.Pure = true
					continue
				}
				break
			}
			t.Ptrs = append(t.Ptrs, q)
			continue
		}
		if p.at(token.PURE) && p.peek().Kind == token.MUL {
			p.next()
			p.next()
			q.Pure = true
			t.Ptrs = append(t.Ptrs, q)
			continue
		}
		if p.at(token.CONST) && p.peek().Kind == token.MUL {
			p.next()
			p.next()
			q.Const = true
			t.Ptrs = append(t.Ptrs, q)
			continue
		}
		return
	}
}

// ----------------------------------------------------------------------------
// Statements

func (p *parser) blockStmt() (*ast.BlockStmt, error) {
	lb, err := p.expect(token.LBRACE)
	if err != nil {
		return nil, err
	}
	b := &ast.BlockStmt{LBrace: lb.Pos}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.List = append(b.List, s)
	}
	if _, err := p.expect(token.RBRACE); err != nil {
		return nil, err
	}
	return b, nil
}

func (p *parser) stmt() (ast.Stmt, error) {
	switch p.kind() {
	case token.LBRACE, token.IF, token.FOR, token.WHILE, token.DO, token.SWITCH:
		if p.stmtDepth == MaxStmtDepth {
			return nil, p.tooDeep("statement", MaxStmtDepth)
		}
		p.stmtDepth++
		s, err := p.compoundStmt()
		p.stmtDepth--
		return s, err
	case token.PRAGMA:
		t := p.next()
		return &ast.PragmaStmt{PragmaPos: t.Pos, Text: t.Lit}, nil
	case token.SEMI:
		t := p.next()
		return &ast.EmptyStmt{SemiPos: t.Pos}, nil
	case token.RETURN:
		t := p.next()
		rs := &ast.ReturnStmt{RetPos: t.Pos}
		if !p.at(token.SEMI) {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			rs.X = x
		}
		if _, err := p.expect(token.SEMI); err != nil {
			return nil, err
		}
		return rs, nil
	case token.BREAK:
		t := p.next()
		if _, err := p.expect(token.SEMI); err != nil {
			return nil, err
		}
		return &ast.BreakStmt{BreakPos: t.Pos}, nil
	case token.CONTINUE:
		t := p.next()
		if _, err := p.expect(token.SEMI); err != nil {
			return nil, err
		}
		return &ast.ContinueStmt{ContPos: t.Pos}, nil
	}
	if p.isTypeStart() {
		ds, err := p.declStmt()
		if err != nil {
			return nil, err
		}
		return ds, nil
	}
	// Expression statement.
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.SEMI); err != nil {
		return nil, err
	}
	return &ast.ExprStmt{X: x}, nil
}

// compoundStmt parses a statement that contains statements.
func (p *parser) compoundStmt() (ast.Stmt, error) {
	switch p.kind() {
	case token.IF:
		return p.ifStmt()
	case token.FOR:
		return p.forStmt()
	case token.WHILE:
		return p.whileStmt()
	case token.DO:
		return p.doStmt()
	case token.SWITCH:
		return p.switchStmt()
	}
	return p.blockStmt()
}

func (p *parser) declStmt() (*ast.DeclStmt, error) {
	base, err := p.baseTypeExpr()
	if err != nil {
		return nil, err
	}
	ds := &ast.DeclStmt{}
	for {
		t := base.Clone()
		p.ptrStars(t)
		normalizePure(t)
		name, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		d, err := p.varDeclRest(t, name)
		if err != nil {
			return nil, err
		}
		ds.Decls = append(ds.Decls, d)
		if !p.accept(token.COMMA) {
			break
		}
	}
	if _, err := p.expect(token.SEMI); err != nil {
		return nil, err
	}
	return ds, nil
}

func (p *parser) ifStmt() (ast.Stmt, error) {
	ipos := p.next().Pos
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	then, err := p.stmt()
	if err != nil {
		return nil, err
	}
	is := &ast.IfStmt{IfPos: ipos, Cond: cond, Then: then}
	if p.accept(token.ELSE) {
		els, err := p.stmt()
		if err != nil {
			return nil, err
		}
		is.Else = els
	}
	return is, nil
}

func (p *parser) forStmt() (ast.Stmt, error) {
	fpos := p.next().Pos
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	fs := &ast.ForStmt{ForPos: fpos}
	switch {
	case p.at(token.SEMI):
		p.next()
	case p.isTypeStart():
		ds, err := p.declStmt() // consumes the semicolon
		if err != nil {
			return nil, err
		}
		fs.Init = ds
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		fs.Init = &ast.ExprStmt{X: x}
		if _, err := p.expect(token.SEMI); err != nil {
			return nil, err
		}
	}
	if !p.at(token.SEMI) {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
	}
	if _, err := p.expect(token.SEMI); err != nil {
		return nil, err
	}
	if !p.at(token.RPAREN) {
		post, err := p.expr()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

func (p *parser) whileStmt() (ast.Stmt, error) {
	wpos := p.next().Pos
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &ast.WhileStmt{WhilePos: wpos, Cond: cond, Body: body}, nil
}

func (p *parser) doStmt() (ast.Stmt, error) {
	dpos := p.next().Pos
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.WHILE); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.SEMI); err != nil {
		return nil, err
	}
	return &ast.DoStmt{DoPos: dpos, Body: body, Cond: cond}, nil
}

func (p *parser) switchStmt() (ast.Stmt, error) {
	spos := p.next().Pos
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	tag, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBRACE); err != nil {
		return nil, err
	}
	ss := &ast.SwitchStmt{SwitchPos: spos, Tag: tag}
	for p.at(token.CASE) || p.at(token.DEFAULT) {
		cpos := p.tok().Pos
		var val ast.Expr
		if p.accept(token.CASE) {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			val = v
		} else {
			p.next() // default
		}
		if _, err := p.expect(token.COLON); err != nil {
			return nil, err
		}
		cc := &ast.CaseClause{CasePos: cpos, Value: val}
		for !p.at(token.CASE) && !p.at(token.DEFAULT) && !p.at(token.RBRACE) && !p.at(token.EOF) {
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			cc.Body = append(cc.Body, s)
		}
		ss.Cases = append(ss.Cases, cc)
	}
	if _, err := p.expect(token.RBRACE); err != nil {
		return nil, err
	}
	return ss, nil
}

// ----------------------------------------------------------------------------
// Expressions

func (p *parser) expr() (ast.Expr, error) { return p.assignExpr() }

func (p *parser) assignExpr() (ast.Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	if p.kind().IsAssignOp() {
		op := p.next().Kind
		depth := p.exprDepth
		if err := p.deeper(); err != nil {
			return nil, err
		}
		rhs, err := p.assignExpr()
		p.exprDepth = depth
		if err != nil {
			return nil, err
		}
		return &ast.AssignExpr{LHS: lhs, Op: op, RHS: rhs}, nil
	}
	return lhs, nil
}

func (p *parser) condExpr() (ast.Expr, error) {
	cond, err := p.binExpr(1)
	if err != nil {
		return nil, err
	}
	if !p.accept(token.QUESTION) {
		return cond, nil
	}
	if err := p.deeper(); err != nil {
		return nil, err
	}
	defer func() { p.exprDepth-- }()
	then, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.COLON); err != nil {
		return nil, err
	}
	els, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	return &ast.CondExpr{Cond: cond, Then: then, Else: els}, nil
}

// binExpr parses a precedence-climbing operator chain; every link
// deepens the (left-leaning) tree by one level.
func (p *parser) binExpr(minPrec int) (ast.Expr, error) {
	depth := p.exprDepth
	defer func() { p.exprDepth = depth }()
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		op := p.kind()
		prec := op.Precedence()
		if prec < minPrec || prec == 0 {
			return lhs, nil
		}
		p.next()
		if err := p.deeper(); err != nil {
			return nil, err
		}
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &ast.BinaryExpr{X: lhs, Op: op, Y: rhs}
	}
}

// unaryExpr parses one operand, one level deeper than its parent.
func (p *parser) unaryExpr() (ast.Expr, error) {
	if err := p.deeper(); err != nil {
		return nil, err
	}
	x, err := p.unary()
	p.exprDepth--
	return x, err
}

func (p *parser) unary() (ast.Expr, error) {
	t := p.tok()
	switch t.Kind {
	case token.ADD:
		p.next()
		return p.unaryExpr() // unary plus is a no-op
	case token.SUB, token.NOT, token.TILDE, token.MUL, token.AND:
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{OpPos: t.Pos, Op: t.Kind, X: x}, nil
	case token.INC, token.DEC:
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{OpPos: t.Pos, Op: t.Kind, X: x}, nil
	case token.SIZEOF:
		p.next()
		if p.at(token.LPAREN) && p.typeStartAfterLParen() {
			p.next() // (
			ty, err := p.typeExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RPAREN); err != nil {
				return nil, err
			}
			return &ast.SizeofExpr{SizePos: t.Pos, Type: ty}, nil
		}
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.SizeofExpr{SizePos: t.Pos, X: x}, nil
	case token.LPAREN:
		if p.typeStartAfterLParen() {
			// Cast expression, possibly a pure cast.
			lp := p.next() // (
			ty, err := p.typeExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RPAREN); err != nil {
				return nil, err
			}
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &ast.CastExpr{LPos: lp.Pos, Type: ty, X: x}, nil
		}
	}
	return p.postfixExpr()
}

// typeStartAfterLParen reports whether the token after the current '('
// starts a type name — used to disambiguate casts from parenthesized
// expressions.
func (p *parser) typeStartAfterLParen() bool {
	if !p.at(token.LPAREN) {
		return false
	}
	nx := p.peek().Kind
	switch nx {
	case token.VOID, token.CHAR, token.SHORT, token.INT, token.LONG,
		token.FLOAT, token.DOUBLE, token.UNSIGNED, token.SIGNED,
		token.STRUCT, token.CONST, token.PURE:
		return true
	}
	return false
}

// postfixExpr parses a primary expression and its postfix chain; every
// link deepens the tree by one level.
func (p *parser) postfixExpr() (ast.Expr, error) {
	depth := p.exprDepth
	defer func() { p.exprDepth = depth }()
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch p.kind() {
		case token.LBRACK, token.LPAREN, token.DOT, token.ARROW, token.INC, token.DEC:
			if err := p.deeper(); err != nil {
				return nil, err
			}
		}
		switch p.kind() {
		case token.LBRACK:
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBRACK); err != nil {
				return nil, err
			}
			x = &ast.IndexExpr{X: x, Index: idx}
		case token.LPAREN:
			id, ok := x.(*ast.Ident)
			if !ok {
				return nil, p.errorf("only direct calls of named functions are supported")
			}
			p.next()
			call := &ast.CallExpr{Fun: id}
			for !p.at(token.RPAREN) && !p.at(token.EOF) {
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(token.COMMA) {
					break
				}
			}
			if _, err := p.expect(token.RPAREN); err != nil {
				return nil, err
			}
			x = call
		case token.DOT:
			p.next()
			name, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			x = &ast.MemberExpr{X: x, Name: name.Lit}
		case token.ARROW:
			p.next()
			name, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			x = &ast.MemberExpr{X: x, Name: name.Lit, Arrow: true}
		case token.INC, token.DEC:
			op := p.next()
			x = &ast.PostfixExpr{X: x, Op: op.Kind}
		default:
			return x, nil
		}
	}
}

func (p *parser) primaryExpr() (ast.Expr, error) {
	t := p.tok()
	switch t.Kind {
	case token.IDENT:
		p.next()
		return &ast.Ident{NamePos: t.Pos, Name: t.Lit}, nil
	case token.INTLIT:
		p.next()
		v, err := parseIntLit(t.Lit)
		if err != nil {
			return nil, &Error{Pos: t.Pos, Msg: err.Error()}
		}
		return &ast.IntLit{LitPos: t.Pos, Value: v, Text: t.Lit}, nil
	case token.FLOATLIT:
		p.next()
		text := strings.TrimRight(t.Lit, "fFlL")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, &Error{Pos: t.Pos, Msg: err.Error()}
		}
		return &ast.FloatLit{LitPos: t.Pos, Value: v, Text: t.Lit}, nil
	case token.CHARLIT:
		p.next()
		v, err := parseCharLit(t.Lit)
		if err != nil {
			return nil, &Error{Pos: t.Pos, Msg: err.Error()}
		}
		return &ast.CharLit{LitPos: t.Pos, Value: v, Text: t.Lit}, nil
	case token.STRINGLIT:
		p.next()
		v, err := strconv.Unquote(t.Lit)
		if err != nil {
			v = strings.Trim(t.Lit, `"`)
		}
		return &ast.StringLit{LitPos: t.Pos, Value: v, Text: t.Lit}, nil
	case token.LPAREN:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return &ast.ParenExpr{LPos: t.Pos, X: x}, nil
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

func parseIntLit(s string) (int64, error) {
	s = strings.TrimRight(s, "uUlL")
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseInt(s[2:], 16, 64)
	}
	if len(s) > 1 && s[0] == '0' {
		return strconv.ParseInt(s[1:], 8, 64)
	}
	return strconv.ParseInt(s, 10, 64)
}

func parseCharLit(s string) (int64, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(s, "'"), "'")
	if body == "" {
		return 0, fmt.Errorf("empty character literal")
	}
	if body[0] != '\\' {
		return int64(body[0]), nil
	}
	if len(body) < 2 {
		return 0, fmt.Errorf("bad escape in character literal %q", s)
	}
	switch body[1] {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, fmt.Errorf("unsupported escape in character literal %q", s)
}
