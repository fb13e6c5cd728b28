package ast

import (
	"strconv"
	"strings"

	"purec/internal/token"
)

// Print renders the file back to C source. The output parses back to an
// equivalent tree (print/parse round trip is property-tested), which is
// what lets the pipeline of Fig. 1 hand text between stages.
func Print(f *File) string {
	p := printer{}
	p.file(f)
	return p.b.String()
}

// PrintLimited renders f as Print does, or stops with a *TooLongError
// when the text would exceed limit bytes.
func PrintLimited(f *File, limit int) (string, error) {
	p := printer{limit: limit}
	return p.print(f, 0)
}

// PrintPlaced renders f exactly as Print does and makes f the tree that
// parsing the output builds: every node moves to the line:col of f.Name
// where it is printed, parentheses the printer inserts become ParenExpr
// nodes, and literals without a spelling get the one printed for them.
// The tree must not share a node between two places. sizeHint is the
// expected length of the text, 0 when unknown. A text that would exceed
// limit bytes stops the print with a *TooLongError, and the tree is
// then only partly placed.
func PrintPlaced(f *File, sizeHint, limit int) (string, error) {
	p := printer{place: true, name: f.Name, line: 1, limit: limit}
	return p.print(f, sizeHint)
}

// PrintLowered renders f with the pure extension lowered to plain C
// (LowerPure), leaving f itself untouched. sizeHint and limit are as
// for PrintPlaced.
func PrintLowered(f *File, sizeHint, limit int) (string, error) {
	p := printer{lower: true, limit: limit}
	return p.print(f, sizeHint)
}

// TooLongError is the error of a print stopped at its limit.
type TooLongError struct{ Limit int }

func (e *TooLongError) Error() string {
	return "printed source exceeds " + strconv.Itoa(e.Limit) + " bytes"
}

// print renders f, stopping when the text would pass p.limit: room
// panics with the limit's error, and print recovers it.
func (p *printer) print(f *File, sizeHint int) (text string, err error) {
	defer func() {
		if r := recover(); r != nil {
			tooLong, ok := r.(*TooLongError)
			if !ok {
				panic(r)
			}
			err = tooLong
		}
	}()
	if p.limit > 0 {
		sizeHint = min(sizeHint, p.limit)
	}
	p.b.Grow(sizeHint)
	p.file(f)
	return p.b.String(), nil
}

// PrintStmt renders a single statement (used in diagnostics and tests).
func PrintStmt(s Stmt) string {
	var p printer
	p.stmt(s)
	return p.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	var p printer
	p.expr(e)
	return p.b.String()
}

// PrintType renders a type expression (without a declarator name).
func PrintType(t *TypeExpr) string {
	var p printer
	p.typ(t, false)
	return p.b.String()
}

// LowerPure applies the lowering of Sect. 3.2 to the qualifiers of t
// ("The pointer prefixes are replaced with the const keyword"): a
// pure-qualified type becomes a single leading const ("pure T*" was
// normalized to a type-level and an outermost-pointer qualifier, so
// that pointer level gains nothing), and every other pure pointer level
// becomes const. It reports the const flag of the base type (level -1)
// or of pointer level i in plain C.
func LowerPure(t *TypeExpr, level int) bool {
	if level < 0 {
		return t.Const || t.Pure
	}
	q := t.Ptrs[level]
	return q.Const || q.Pure && !(t.Pure && level == len(t.Ptrs)-1)
}

type printer struct {
	b      strings.Builder
	indent int

	// lower prints the pure extension lowered to plain C.
	lower bool
	// place moves the printed nodes to their printed positions in the
	// file called name (PrintPlaced); line is the current line and
	// lineStart the offset where it begins.
	place           bool
	name            string
	line, lineStart int

	// limit, when positive, bounds the text in bytes.
	limit int
}

// spaces is one chunk of indentation, written without allocating.
const spaces = "                                                                "

func (p *printer) w(s string) {
	p.room(len(s))
	p.b.WriteString(s)
	if p.place {
		if i := strings.LastIndexByte(s, '\n'); i >= 0 {
			p.line += strings.Count(s, "\n")
			p.lineStart = p.b.Len() - len(s) + i + 1
		}
	}
}

func (p *printer) nl() { p.w("\n") }

func (p *printer) tab() {
	p.room(4 * p.indent)
	for n := 4 * p.indent; n > 0; n -= len(spaces) {
		p.b.WriteString(spaces[:min(n, len(spaces))])
	}
}

// room makes space for n more bytes, or stops the print when they would
// pass the limit. Past 64 KiB it doubles the buffer: append grows a
// large buffer by a quarter at a time, which allocates about five times
// the text. Below, append's closer fit wastes less of a text that a
// cached artifact keeps.
func (p *printer) room(n int) {
	if p.limit > 0 && p.b.Len()+n > p.limit {
		panic(&TooLongError{Limit: p.limit})
	}
	if c := p.b.Cap(); c >= 64<<10 && c-p.b.Len() < n {
		p.b.Grow(n)
	}
}

// at records the current output position in *pos when placing.
func (p *printer) at(pos *token.Pos) {
	if p.place {
		*pos = token.Pos{File: p.name, Line: p.line, Col: p.b.Len() - p.lineStart + 1}
	}
}

func (p *printer) file(f *File) {
	for i, d := range f.Decls {
		if i > 0 {
			p.nl()
		}
		p.decl(d)
	}
}

func (p *printer) decl(d Decl) {
	switch x := d.(type) {
	case *FuncDecl:
		p.funcDecl(x)
	case *VarDeclGroup:
		p.tab()
		p.varDecls(x.Decls, true)
		p.w(";\n")
	case *StructDecl:
		p.at(&x.StructPos)
		p.w("struct ")
		p.w(x.Name)
		p.w(" {\n")
		p.indent++
		for i := range x.Fields {
			fld := &x.Fields[i]
			p.tab()
			p.declarator(fld.Type, fld.Name, &fld.NamePos, false)
			for _, l := range fld.ArrayLens {
				p.w("[")
				p.expr(l)
				p.w("]")
			}
			p.w(";\n")
		}
		p.indent--
		p.w("};\n")
	case *PragmaDecl:
		p.at(&x.PragmaPos)
		p.w(x.Text)
		p.nl()
	}
}

func (p *printer) funcDecl(d *FuncDecl) {
	if d.Pure && !p.lower {
		p.w("pure ")
	}
	if d.Static {
		p.w("static ")
	}
	if d.Inline {
		p.w("inline ")
	}
	p.declarator(d.Ret, d.Name, &d.NamePos, true)
	p.w("(")
	if len(d.Params) == 0 {
		p.w("void")
	}
	for i := range d.Params {
		prm := &d.Params[i]
		if i > 0 {
			p.w(", ")
		}
		p.declarator(prm.Type, prm.Name, &prm.NamePos, false)
	}
	p.w(")")
	if d.Body == nil {
		p.w(";\n")
		return
	}
	p.w(" ")
	p.block(d.Body)
	p.nl()
}

// declarator prints a type followed by an optional declarator name,
// e.g. "pure int* p" or "float** A". top marks a file-scope declaration,
// where the parser reads a leading pure as a declaration modifier and
// the type starts after it. An unnamed declarator has no position.
func (p *printer) declarator(t *TypeExpr, name string, namePos *token.Pos, top bool) {
	p.typ(t, top)
	if name == "" {
		if p.place {
			*namePos = token.Pos{}
		}
		return
	}
	p.w(" ")
	p.at(namePos)
	p.w(name)
}

// typ prints a type without a declarator name.
func (p *printer) typ(t *TypeExpr, top bool) {
	if !top {
		p.at(&t.TypePos)
	}
	if p.lower {
		if LowerPure(t, -1) {
			p.w("const ")
		}
	} else {
		if t.Pure {
			p.w("pure ")
		}
		if top {
			p.at(&t.TypePos)
		}
		if t.Const {
			p.w("const ")
		}
	}
	if t.Base == Struct {
		p.w("struct ")
		p.w(t.StructName)
	} else {
		p.w(t.Base.String())
	}
	p.ptrQuals(t)
}

// ptrQuals prints the pointer levels of t. A pure qualifier on the
// outermost level is implied by a leading "pure " (t.Pure) and is not
// repeated, reproducing the paper's "pure int*" spelling.
func (p *printer) ptrQuals(t *TypeExpr) {
	for i, q := range t.Ptrs {
		if p.lower {
			q = PtrQual{Const: LowerPure(t, i)}
		}
		if q.Pure && !(t.Pure && i == len(t.Ptrs)-1) {
			p.w(" pure")
		}
		if q.Const {
			p.w(" const")
		}
		p.w("*")
	}
}

func (p *printer) varDecls(ds []*VarDecl, top bool) {
	for i, d := range ds {
		if i == 0 {
			p.declarator(d.Type, d.Name, &d.NamePos, top)
		} else {
			// Subsequent declarators share the base type but carry their
			// own pointer levels: "float **A, **Bt, **C;".
			if p.place {
				d.Type.TypePos = ds[0].Type.TypePos
			}
			p.w(", ")
			p.ptrQuals(d.Type)
			if len(d.Type.Ptrs) > 0 {
				p.w(" ")
			}
			p.at(&d.NamePos)
			p.w(d.Name)
		}
		for _, l := range d.ArrayLens {
			p.w("[")
			p.expr(l)
			p.w("]")
		}
		if d.Init != nil {
			p.w(" = ")
			p.expr(d.Init)
		}
	}
}

func (p *printer) block(b *BlockStmt) {
	p.at(&b.LBrace)
	p.w("{\n")
	p.indent++
	for _, s := range b.List {
		p.stmt(s)
	}
	p.indent--
	p.tab()
	p.w("}")
}

func (p *printer) stmt(s Stmt) {
	switch x := s.(type) {
	case *DeclStmt:
		p.tab()
		p.varDecls(x.Decls, false)
		p.w(";\n")
	case *ExprStmt:
		p.tab()
		p.expr(x.X)
		p.w(";\n")
	case *EmptyStmt:
		p.tab()
		p.at(&x.SemiPos)
		p.w(";\n")
	case *BlockStmt:
		p.tab()
		p.block(x)
		p.nl()
	case *IfStmt:
		p.tab()
		p.ifTail(x)
	case *ForStmt:
		p.tab()
		p.at(&x.ForPos)
		p.w("for (")
		switch init := x.Init.(type) {
		case nil:
			p.w(";")
		case *DeclStmt:
			p.varDecls(init.Decls, false)
			p.w(";")
		case *ExprStmt:
			p.expr(init.X)
			p.w(";")
		case *EmptyStmt:
			if p.place {
				x.Init = nil
			}
			p.w(";")
		}
		if x.Cond != nil {
			p.w(" ")
			p.expr(x.Cond)
		}
		p.w(";")
		if x.Post != nil {
			p.w(" ")
			p.expr(x.Post)
		}
		p.w(") ")
		p.stmtAsBody(x.Body)
	case *WhileStmt:
		p.tab()
		p.at(&x.WhilePos)
		p.w("while (")
		p.expr(x.Cond)
		p.w(") ")
		p.stmtAsBody(x.Body)
	case *DoStmt:
		p.tab()
		p.at(&x.DoPos)
		p.w("do ")
		p.stmtAsBody(x.Body)
		// stmtAsBody ends with newline; back up by printing while on a
		// fresh indented line, which re-parses identically.
		p.tab()
		p.w("while (")
		p.expr(x.Cond)
		p.w(");\n")
	case *ReturnStmt:
		p.tab()
		p.at(&x.RetPos)
		if x.X == nil {
			p.w("return;\n")
		} else {
			p.w("return ")
			p.expr(x.X)
			p.w(";\n")
		}
	case *BreakStmt:
		p.tab()
		p.at(&x.BreakPos)
		p.w("break;\n")
	case *ContinueStmt:
		p.tab()
		p.at(&x.ContPos)
		p.w("continue;\n")
	case *SwitchStmt:
		p.tab()
		p.at(&x.SwitchPos)
		p.w("switch (")
		p.expr(x.Tag)
		p.w(") {\n")
		for _, c := range x.Cases {
			p.tab()
			p.at(&c.CasePos)
			if c.Value == nil {
				p.w("default:\n")
			} else {
				p.w("case ")
				p.expr(c.Value)
				p.w(":\n")
			}
			p.indent++
			for _, s2 := range c.Body {
				p.stmt(s2)
			}
			p.indent--
		}
		p.tab()
		p.w("}\n")
	case *PragmaStmt:
		p.at(&x.PragmaPos)
		p.w(x.Text)
		p.nl()
	}
}

// ifTail prints an if statement without leading indentation (the caller
// has already indented), so that else-if chains stay on one line.
func (p *printer) ifTail(x *IfStmt) {
	p.at(&x.IfPos)
	p.w("if (")
	p.expr(x.Cond)
	p.w(") ")
	p.stmtAsBody(x.Then)
	if x.Else == nil {
		return
	}
	p.tab()
	p.w("else ")
	if ei, ok := x.Else.(*IfStmt); ok {
		p.ifTail(ei)
		return
	}
	p.stmtAsBody(x.Else)
}

// stmtAsBody prints a statement used as a control-flow body: blocks print
// inline, other statements print on their own line with extra indentation.
func (p *printer) stmtAsBody(s Stmt) {
	if b, ok := s.(*BlockStmt); ok {
		p.block(b)
		p.nl()
		return
	}
	p.nl()
	p.indent++
	p.stmt(s)
	p.indent--
}

// literal prints a literal's spelling, formatting its value when it has
// none (and keeping that spelling when placing).
func (p *printer) literal(text *string, format func() string) {
	if *text == "" {
		s := format()
		if p.place {
			*text = s
		}
		p.w(s)
		return
	}
	p.w(*text)
}

func (p *printer) expr(e Expr) {
	switch x := e.(type) {
	case *Ident:
		p.at(&x.NamePos)
		p.w(x.Name)
	case *IntLit:
		p.at(&x.LitPos)
		p.literal(&x.Text, func() string { return strconv.FormatInt(x.Value, 10) })
	case *FloatLit:
		p.at(&x.LitPos)
		p.literal(&x.Text, func() string { return strconv.FormatFloat(x.Value, 'g', -1, 64) })
	case *CharLit:
		p.at(&x.LitPos)
		p.literal(&x.Text, func() string { return "'" + string(rune(x.Value)) + "'" })
	case *StringLit:
		p.at(&x.LitPos)
		p.literal(&x.Text, func() string { return strconv.Quote(x.Value) })
	case *BinaryExpr:
		p.exprPrec(&x.X, x.Op.Precedence())
		p.w(" ")
		p.w(x.Op.String())
		p.w(" ")
		p.exprPrec(&x.Y, x.Op.Precedence()+1)
	case *UnaryExpr:
		p.at(&x.OpPos)
		p.w(x.Op.String())
		// "- -x" and "& &x" must not print as the tokens -- and &&.
		if in, ok := x.X.(*UnaryExpr); ok && (x.Op == token.SUB && (in.Op == token.SUB || in.Op == token.DEC) ||
			x.Op == token.AND && in.Op == token.AND) {
			p.w(" ")
		}
		p.exprPrec(&x.X, 11)
	case *PostfixExpr:
		p.exprPrec(&x.X, 12)
		p.w(x.Op.String())
	case *AssignExpr:
		p.exprPrec(&x.LHS, 0)
		p.w(" ")
		p.w(x.Op.String())
		p.w(" ")
		p.expr(x.RHS)
	case *CondExpr:
		p.exprPrec(&x.Cond, 1)
		p.w(" ? ")
		p.expr(x.Then)
		p.w(" : ")
		p.exprPrec(&x.Else, 0)
	case *CallExpr:
		p.expr(x.Fun)
		p.w("(")
		for i, a := range x.Args {
			if i > 0 {
				p.w(", ")
			}
			p.expr(a)
		}
		p.w(")")
	case *IndexExpr:
		p.exprPrec(&x.X, 12)
		p.w("[")
		p.expr(x.Index)
		p.w("]")
	case *MemberExpr:
		p.exprPrec(&x.X, 12)
		if x.Arrow {
			p.w("->")
		} else {
			p.w(".")
		}
		p.w(x.Name)
	case *CastExpr:
		p.at(&x.LPos)
		p.w("(")
		p.typ(x.Type, false)
		p.w(")")
		p.exprPrec(&x.X, 11)
	case *SizeofExpr:
		p.at(&x.SizePos)
		if x.Type != nil {
			p.w("sizeof(")
			p.typ(x.Type, false)
			p.w(")")
		} else {
			p.w("sizeof ")
			// The operand of sizeof is a unary expression: "sizeof (T)x"
			// would read as sizeof(T) followed by x.
			min := 11
			if _, ok := x.X.(*CastExpr); ok {
				min = 12
			}
			p.exprPrec(&x.X, min)
		}
	case *ParenExpr:
		p.at(&x.LPos)
		p.w("(")
		p.expr(x.X)
		p.w(")")
	}
}

// exprPrec prints the expression in *slot, parenthesizing it when its
// natural precedence is lower than min (so the printed text re-parses
// with the same shape): an assignment binds loosest (-1), then the
// conditional (0), the binary operators (1-10), the prefix operators
// and casts (11), and the postfix and primary forms (12). When placing,
// an inserted pair of parentheses becomes a ParenExpr in *slot.
func (p *printer) exprPrec(slot *Expr, min int) {
	e := *slot
	prec := 12
	switch x := e.(type) {
	case *BinaryExpr:
		prec = x.Op.Precedence()
	case *AssignExpr:
		prec = -1
	case *CondExpr:
		prec = 0
	case *UnaryExpr, *CastExpr, *SizeofExpr:
		prec = 11
	}
	switch {
	case prec >= min:
		p.expr(e)
	case p.place:
		paren := &ParenExpr{X: e}
		*slot = paren
		p.expr(paren)
	default:
		p.w("(")
		p.expr(e)
		p.w(")")
	}
}
