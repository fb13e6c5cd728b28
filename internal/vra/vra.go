package vra

import (
	"fmt"
	"sort"
	"strings"

	"purec/internal/ast"
	"purec/internal/omp"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// Kind classifies a diagnostic finding.
type Kind int

// Finding kinds, ordered by severity.
const (
	// DefiniteOOB marks an access whose subscript interval lies entirely
	// outside the array extent: it traps on every execution that reaches
	// it. purecc -analyze treats it as a compile error.
	DefiniteOOB Kind = iota
	// PossibleOOB marks an access whose subscript interval is not
	// contained in the extent but may intersect it.
	PossibleOOB
	// UninitScalar marks a read of a local scalar before any assignment.
	UninitScalar
	// DeadGuard marks an if/while condition that can never be true.
	DeadGuard
	// AlwaysTrue marks an if condition that holds on every execution:
	// the branch is unconditional and the else arm is dead.
	AlwaysTrue
	// DeadStore marks an assignment whose stored value is never read.
	DeadStore
	// UnusedVar marks a local variable that is declared but never used.
	UnusedVar
)

var kindNames = [...]string{
	DefiniteOOB:  "definite out-of-bounds",
	PossibleOOB:  "possible out-of-bounds",
	UninitScalar: "uninitialized read",
	DeadGuard:    "dead guard",
	AlwaysTrue:   "always-true branch",
	DeadStore:    "dead store",
	UnusedVar:    "unused variable",
}

// String returns the human-readable kind name.
func (k Kind) String() string { return kindNames[k] }

// Finding is one diagnostic with its source position and a
// human-readable range derivation.
type Finding struct {
	Kind Kind
	Pos  token.Pos
	// Expr is the source form of the offending expression or condition.
	Expr string
	// Msg explains the finding, including the derived intervals.
	Msg string
}

// String renders the finding as position: kind: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Kind, f.Msg)
}

// Result is the outcome of one whole-program analysis.
type Result struct {
	// Findings lists the diagnostics in source order.
	Findings []Finding
	// Alias is the flow-insensitive points-to result for guest
	// pointers, keyed by pointer symbol.
	Alias *AliasResult
	safe  map[ast.Expr]bool
	notes map[ast.Expr]string
	// walks counts the interval walks over the program.
	walks int
}

// Proven reports whether the index expression was proven in-bounds for
// every execution: its subscript intervals fit the array extent. A
// proven star read may be parallelized (core.markBoundedStars).
func (r *Result) Proven(e ast.Expr) bool { return r.safe[e] }

// Proofs returns the proven-access set keyed by syntax node.
func (r *Result) Proofs() map[ast.Expr]bool { return r.safe }

// Note returns the derivation recorded for an index expression that was
// checked but not proven ("" when the access was never range-checked,
// e.g. its extent is unknown).
func (r *Result) Note(e ast.Expr) string { return r.notes[e] }

// HasDefiniteOOB reports whether any finding is a definite
// out-of-bounds access (the -analyze compile-error class).
func (r *Result) HasDefiniteOOB() bool {
	for _, f := range r.Findings {
		if f.Kind == DefiniteOOB {
			return true
		}
	}
	return false
}

// analyzer holds the whole-program facts shared by every function walk.
type analyzer struct {
	info *sema.Info
	res  *Result

	// extent is the element extent of pointers assigned exactly once
	// from a constant-size malloc and never escaped; declared arrays
	// carry their extents in Symbol.Dims instead.
	extent map[*sema.Symbol]int64
	// content tracks the value interval of every cell of an int index
	// array (declared or single-malloc buffer): the union of all stores
	// the program makes plus zero (fresh segments are zeroed).
	content map[*sema.Symbol]Interval
	tracked map[*sema.Symbol]bool
	escaped map[*sema.Symbol]bool
	// addrTaken holds every symbol (scalars included) whose address is
	// taken anywhere; such variables can be read or written through
	// pointers, so dead-store reasoning must skip them.
	addrTaken map[*sema.Symbol]bool
	// fixedGlobal holds globals with no stores anywhere in the program:
	// their value is the declared initializer (zero without one).
	fixedGlobal map[*sema.Symbol]Interval

	// alias is the flow-insensitive points-to result, computed once
	// after fact collection (it is purely syntactic).
	alias *AliasResult

	declToSym      map[*ast.VarDecl]*sema.Symbol
	uninitReported map[*sema.Symbol]bool
	// assigned memoizes assignedSyms per statement or expression.
	assigned map[ast.Node]assignSet

	contentChanged bool
	changed        map[*sema.Symbol]bool
}

// Analyze runs the value-range analysis over the checked program.
func Analyze(info *sema.Info) *Result {
	a := newAnalyzer(info)
	// Array contents feed other arrays' contents (idx2[i] = idx[i]), so
	// collecting iterates to a fixpoint; anything still widening after a
	// few rounds is poisoned to unbounded. Every round after the first
	// also proves: a round that changed no content saw the final
	// contents throughout, so its findings, notes and proofs stand. A
	// round that changed some is discarded, and only a poisoning needs a
	// walk that proves alone.
	for round := 0; ; round++ {
		prove := round > 0
		a.contentChanged = false
		a.changed = map[*sema.Symbol]bool{}
		a.walkAll(true, prove)
		if !a.contentChanged && prove {
			break
		}
		if prove {
			a.res.Findings = a.res.Findings[:0]
			clear(a.res.safe)
			clear(a.res.notes)
			clear(a.uninitReported)
		}
		if a.contentChanged && round >= 2 {
			a.poison()
			a.walkAll(false, true)
			break
		}
	}
	return a.finish()
}

func newAnalyzer(info *sema.Info) *analyzer {
	a := &analyzer{
		info:           info,
		res:            &Result{safe: map[ast.Expr]bool{}, notes: map[ast.Expr]string{}},
		extent:         map[*sema.Symbol]int64{},
		content:        map[*sema.Symbol]Interval{},
		tracked:        map[*sema.Symbol]bool{},
		escaped:        map[*sema.Symbol]bool{},
		addrTaken:      map[*sema.Symbol]bool{},
		fixedGlobal:    map[*sema.Symbol]Interval{},
		declToSym:      map[*ast.VarDecl]*sema.Symbol{},
		uninitReported: map[*sema.Symbol]bool{},
		changed:        map[*sema.Symbol]bool{},
		assigned:       map[ast.Node]assignSet{},
	}
	a.collectFacts()
	a.alias = a.analyzeAliases()
	return a
}

// poison sets every content the last round still widened to unbounded.
func (a *analyzer) poison() {
	for sym := range a.changed {
		a.content[sym] = Top()
	}
}

// finish adds the dead-code findings and orders the findings by
// position.
func (a *analyzer) finish() *Result {
	a.deadCode()
	a.res.Alias = a.alias
	sort.SliceStable(a.res.Findings, func(i, j int) bool {
		pi, pj := a.res.Findings[i].Pos, a.res.Findings[j].Pos
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Col < pj.Col
	})
	return a.res
}

// ----------------------------------------------------------------------------
// Whole-program fact collection

func (a *analyzer) collectFacts() {
	for name, syms := range a.info.FuncLocals {
		_ = name
		for _, s := range syms {
			if s.Decl != nil {
				a.declToSym[s.Decl] = s
			}
		}
	}
	for _, g := range a.info.Globals {
		if g.Decl != nil {
			a.declToSym[g.Decl] = g
		}
	}

	// Escapes: a pointer or array whose address leaves our sight (alias
	// assignment, address-of, argument to a function that may write or
	// free through it) gets no extent and no content tracking.
	for _, fd := range a.info.File.Funcs() {
		if fd.Body != nil {
			a.scanStmt(fd.Body)
		}
	}
	for _, g := range a.info.Globals {
		if g.Decl != nil && g.Decl.Init != nil {
			a.scanExpr(g.Decl.Init)
		}
	}

	// Pointer extents and fixed globals from program-wide store counts.
	stores := map[*sema.Symbol]int{}
	mallocExt := map[*sema.Symbol]int64{}
	countStore := func(sym *sema.Symbol, rhs ast.Expr, op token.Kind) {
		if sym == nil {
			return
		}
		stores[sym]++
		if sym.Type != nil && sym.Type.Kind == types.Ptr && op == token.ASSIGN {
			if n, ok := a.mallocExtent(sym, rhs); ok {
				mallocExt[sym] = n
			}
		}
	}
	scan := func(n ast.Node) {
		ast.Walk(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.AssignExpr:
				if id, ok := ast.Unparen(x.LHS).(*ast.Ident); ok {
					countStore(a.info.Ref[id], x.RHS, x.Op)
				}
			case *ast.UnaryExpr:
				if x.Op == token.INC || x.Op == token.DEC {
					if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
						countStore(a.info.Ref[id], nil, x.Op)
					}
				}
			case *ast.PostfixExpr:
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					countStore(a.info.Ref[id], nil, x.Op)
				}
			case *ast.VarDecl:
				if x.Init != nil {
					if sym := a.declToSym[x]; sym != nil {
						countStore(sym, x.Init, token.ASSIGN)
					}
				}
			}
			return true
		})
	}
	scan(a.info.File)

	for sym, n := range mallocExt {
		if stores[sym] == 1 && !a.escaped[sym] {
			a.extent[sym] = n
		}
	}
	for _, g := range a.info.Globals {
		if stores[g] != 0 || g.IsArray() || g.Type == nil {
			continue
		}
		switch g.Type.Kind {
		case types.Int:
			iv := Exact(0)
			if g.Decl != nil && g.Decl.Init != nil {
				if v, ok := sema.ConstInt(g.Decl.Init); ok {
					iv = Exact(v)
				} else {
					continue
				}
			}
			a.fixedGlobal[g] = iv
		}
	}

	// Content tracking: int element type, known extent, not escaped.
	track := func(sym *sema.Symbol) {
		if sym == nil || a.escaped[sym] {
			return
		}
		if sym.IsArray() {
			if len(sym.Dims) >= 1 && sym.Type != nil && sym.Type.Elem != nil &&
				sym.Type.Elem.Kind == types.Int {
				a.tracked[sym] = true
				a.content[sym] = Exact(0)
			}
			return
		}
		if _, ok := a.extent[sym]; ok && sym.Type.Elem != nil &&
			sym.Type.Elem.Kind == types.Int {
			a.tracked[sym] = true
			a.content[sym] = Exact(0)
		}
	}
	for _, g := range a.info.Globals {
		track(g)
	}
	for _, syms := range a.info.FuncLocals {
		for _, s := range syms {
			track(s)
		}
	}
}

// mallocExtent matches rhs against (T*)malloc(constant) and returns the
// element extent of sym's pointee type.
func (a *analyzer) mallocExtent(sym *sema.Symbol, rhs ast.Expr) (int64, bool) {
	e := ast.Unparen(rhs)
	for {
		if c, ok := e.(*ast.CastExpr); ok {
			e = ast.Unparen(c.X)
			continue
		}
		break
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || call.Fun.Name != "malloc" || len(call.Args) != 1 {
		return 0, false
	}
	bytes, ok := sema.ConstInt(call.Args[0])
	if !ok || bytes < 0 {
		return 0, false
	}
	esz := int64(1)
	if sym.Type != nil && sym.Type.Elem != nil && sym.Type.Elem.CSize > 0 {
		esz = int64(sym.Type.Elem.CSize)
	}
	return bytes / esz, true
}

// scanStmt/scanExpr find escaping pointers: any use of a pointer or
// array name outside the whitelisted read contexts (subscript base,
// argument to a verified-pure callee through a pure parameter).
func (a *analyzer) scanStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			if d.Init != nil {
				a.scanExpr(d.Init)
			}
		}
	case *ast.ExprStmt:
		a.scanExpr(x.X)
	case *ast.BlockStmt:
		for _, st := range x.List {
			a.scanStmt(st)
		}
	case *ast.IfStmt:
		a.scanExpr(x.Cond)
		a.scanStmt(x.Then)
		if x.Else != nil {
			a.scanStmt(x.Else)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			a.scanStmt(x.Init)
		}
		if x.Cond != nil {
			a.scanExpr(x.Cond)
		}
		if x.Post != nil {
			a.scanExpr(x.Post)
		}
		a.scanStmt(x.Body)
	case *ast.WhileStmt:
		a.scanExpr(x.Cond)
		a.scanStmt(x.Body)
	case *ast.DoStmt:
		a.scanStmt(x.Body)
		a.scanExpr(x.Cond)
	case *ast.ReturnStmt:
		if x.X != nil {
			a.scanExpr(x.X)
		}
	case *ast.SwitchStmt:
		a.scanExpr(x.Tag)
		for _, c := range x.Cases {
			for _, st := range c.Body {
				a.scanStmt(st)
			}
		}
	}
}

func (a *analyzer) scanExpr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		a.markEscape(x)
	case *ast.ParenExpr:
		a.scanExpr(x.X)
	case *ast.IndexExpr:
		a.scanBase(x.X)
		a.scanExpr(x.Index)
	case *ast.CallExpr:
		sig := a.info.Funcs[x.Fun.Name]
		for i, arg := range x.Args {
			if id := baseIdentOf(arg); id != nil {
				if !a.argIsReadOnly(x.Fun.Name, sig, i) {
					a.markEscape(id)
				}
				continue
			}
			a.scanExpr(arg)
		}
	case *ast.AssignExpr:
		switch l := ast.Unparen(x.LHS).(type) {
		case *ast.Ident:
			// Target of a write, not an escape.
		case *ast.IndexExpr:
			a.scanBase(l.X)
			a.scanExpr(l.Index)
		default:
			a.scanExpr(x.LHS)
		}
		a.scanExpr(x.RHS)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// Address taken: everything under it escapes.
			for _, id := range ast.Idents(x.X) {
				a.markEscape(id)
				if sym := a.info.Ref[id]; sym != nil {
					a.addrTaken[sym] = true
				}
			}
			return
		}
		a.scanExpr(x.X)
	case *ast.PostfixExpr:
		a.scanExpr(x.X)
	case *ast.BinaryExpr:
		a.scanExpr(x.X)
		a.scanExpr(x.Y)
	case *ast.CondExpr:
		a.scanExpr(x.Cond)
		a.scanExpr(x.Then)
		a.scanExpr(x.Else)
	case *ast.CastExpr:
		a.scanExpr(x.X)
	case *ast.MemberExpr:
		a.scanExpr(x.X)
	case *ast.SizeofExpr:
		// Types only; sizeof expr does not evaluate its operand.
	}
}

// scanBase follows a subscript-base chain without escaping the root
// name: x in x[i], x[i][j].
func (a *analyzer) scanBase(e ast.Expr) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
	case *ast.IndexExpr:
		a.scanBase(x.X)
		a.scanExpr(x.Index)
	default:
		a.scanExpr(e)
	}
}

// argIsReadOnly reports whether passing a pointer to parameter i of the
// named callee cannot write or free through it: a verified-pure callee
// taking it through a pure (read-only) pointer. free is nominally in
// the paper's pure hashset but releases its argument, so it always
// escapes.
func (a *analyzer) argIsReadOnly(name string, sig *sema.Sig, i int) bool {
	if name == "free" || sig == nil || !sig.Pure {
		return false
	}
	if sig.Builtin {
		return true // pure math builtins never retain pointers
	}
	if i >= len(sig.Params) {
		return false
	}
	p := sig.Params[i]
	if p == nil || p.Kind != types.Ptr {
		return true // scalar parameter: the pointer value never crosses
	}
	return p.Pure
}

func (a *analyzer) markEscape(id *ast.Ident) {
	sym := a.info.Ref[id]
	if sym == nil {
		return
	}
	if sym.IsArray() || (sym.Type != nil && sym.Type.Kind == types.Ptr) {
		a.escaped[sym] = true
	}
}

// baseIdentOf strips parens and casts down to a plain identifier.
func baseIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CastExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

func (a *analyzer) widenContent(sym *sema.Symbol, iv Interval) {
	if !a.tracked[sym] {
		return
	}
	u := a.content[sym].Union(iv)
	if u != a.content[sym] {
		a.content[sym] = u
		a.contentChanged = true
		a.changed[sym] = true
	}
}

// ----------------------------------------------------------------------------
// Per-function interval walk

// walkAll walks every function body once: collect widens the index
// array contents, prove records findings, notes and proofs.
func (a *analyzer) walkAll(collect, prove bool) {
	a.res.walks++
	for _, fd := range a.info.File.Funcs() {
		if fd.Body == nil {
			continue
		}
		w := &walker{
			a:       a,
			collect: collect,
			prove:   prove,
			env:     map[*sema.Symbol]Interval{},
			written: map[*sema.Symbol]bool{},
			refine:  map[string]Interval{},
			rel:     map[*sema.Symbol]linRel{},
		}
		w.stmt(fd.Body)
	}
}

type walker struct {
	a       *analyzer
	collect bool
	prove   bool
	env     map[*sema.Symbol]Interval
	written map[*sema.Symbol]bool
	refine  map[string]Interval
	// rel holds affine relations between live scalars: rel[j] = {i,a,b}
	// means j == a*i + b at this program point.
	rel map[*sema.Symbol]linRel
}

func (w *walker) branch() *walker {
	c := &walker{a: w.a, collect: w.collect, prove: w.prove,
		env:     make(map[*sema.Symbol]Interval, len(w.env)),
		written: make(map[*sema.Symbol]bool, len(w.written)),
		refine:  make(map[string]Interval, len(w.refine)),
		rel:     make(map[*sema.Symbol]linRel, len(w.rel))}
	for k, v := range w.env {
		c.env[k] = v
	}
	for k, v := range w.written {
		c.written[k] = v
	}
	for k, v := range w.refine {
		c.refine[k] = v
	}
	for k, v := range w.rel {
		c.rel[k] = v
	}
	return c
}

// merge joins two branch outcomes back into w.
func (w *walker) merge(b1, b2 *walker) {
	keys := map[*sema.Symbol]bool{}
	for k := range b1.env {
		keys[k] = true
	}
	for k := range b2.env {
		keys[k] = true
	}
	w.env = make(map[*sema.Symbol]Interval, len(keys))
	for k := range keys {
		w.env[k] = b1.lookup(k).Union(b2.lookup(k))
	}
	w.written = map[*sema.Symbol]bool{}
	for k := range b1.written {
		w.written[k] = true
	}
	for k := range b2.written {
		w.written[k] = true
	}
	w.refine = map[string]Interval{}
	for k, v1 := range b1.refine {
		if v2, ok := b2.refine[k]; ok {
			w.refine[k] = v1.Union(v2)
		}
	}
	// A relation survives a join only when both sides derived the same one.
	w.rel = map[*sema.Symbol]linRel{}
	for k, r1 := range b1.rel {
		if r2, ok := b2.rel[k]; ok && r1 == r2 {
			w.rel[k] = r1
		}
	}
}

// lookup returns the interval of a scalar symbol.
func (w *walker) lookup(sym *sema.Symbol) Interval {
	if iv, ok := w.env[sym]; ok {
		return iv
	}
	if iv, ok := w.a.fixedGlobal[sym]; ok {
		return iv
	}
	return Top()
}

func (w *walker) setScalar(sym *sema.Symbol, iv Interval) {
	if sym == nil {
		return
	}
	if isIntScalar(sym) {
		w.env[sym] = iv
	}
	w.written[sym] = true
	w.invalidateRefines(sym.Name)
}

func isIntScalar(sym *sema.Symbol) bool {
	return sym != nil && !sym.IsArray() && sym.Type != nil && sym.Type.Kind == types.Int
}

func (w *walker) invalidateRefines(name string) {
	for k := range w.refine {
		if strings.Contains(k, name) {
			delete(w.refine, k)
		}
	}
}

func (w *walker) clearRefines() {
	for k := range w.refine {
		delete(w.refine, k)
	}
}

// havoc forgets everything the given statement may assign; impure calls
// additionally forget every non-fixed global.
func (w *walker) havoc(n ast.Node, except *sema.Symbol) {
	syms, impure := w.assignedSyms(n)
	for sym := range syms {
		if sym == except {
			continue
		}
		if isIntScalar(sym) {
			w.env[sym] = Top()
		}
		w.invalidateRel(sym)
		// written is deliberately left alone: a body-local read that
		// precedes the body's own first assignment is still a read of an
		// uninitialized scalar on the first iteration.
	}
	if impure {
		w.havocGlobals()
	}
	w.clearRefines()
}

func (w *walker) havocGlobals() {
	for sym := range w.env {
		if sym.Kind == sema.SymGlobal {
			w.env[sym] = Top()
		}
	}
	for k, r := range w.rel {
		if k.Kind == sema.SymGlobal || r.Base.Kind == sema.SymGlobal {
			delete(w.rel, k)
		}
	}
	w.clearRefines()
}

// assignSet is what a statement may assign: the symbols, and whether it
// calls an impure function.
type assignSet struct {
	syms   map[*sema.Symbol]bool
	impure bool
}

// assignedSyms returns what n may assign. It is computed once per node
// per analysis, and a loop inside n contributes the memoized set of its
// body, so nested loops are not walked again for each enclosing one.
func (w *walker) assignedSyms(n ast.Node) (map[*sema.Symbol]bool, bool) {
	if s, ok := w.a.assigned[n]; ok {
		return s.syms, s.impure
	}
	s := assignSet{syms: map[*sema.Symbol]bool{}}
	add := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if sym := w.a.info.Ref[id]; sym != nil {
				s.syms[sym] = true
			}
		}
	}
	body := func(b ast.Stmt) {
		syms, impure := w.assignedSyms(b)
		for sym := range syms {
			s.syms[sym] = true
		}
		s.impure = s.impure || impure
	}
	var visit ast.Visitor
	visit = func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignExpr:
			add(x.LHS)
		case *ast.UnaryExpr:
			if x.Op == token.INC || x.Op == token.DEC {
				add(x.X)
			}
		case *ast.PostfixExpr:
			add(x.X)
		case *ast.VarDecl:
			if sym := w.a.declToSym[x]; sym != nil {
				s.syms[sym] = true
			}
		case *ast.CallExpr:
			sig := w.a.info.Funcs[x.Fun.Name]
			if sig == nil || !sig.Pure {
				s.impure = true
			}
		case *ast.ForStmt:
			ast.Walk(x.Init, visit)
			ast.Walk(x.Cond, visit)
			ast.Walk(x.Post, visit)
			body(x.Body)
			return false
		case *ast.WhileStmt:
			ast.Walk(x.Cond, visit)
			body(x.Body)
			return false
		case *ast.DoStmt:
			body(x.Body)
			ast.Walk(x.Cond, visit)
			return false
		}
		return true
	}
	ast.Walk(n, visit)
	w.a.assigned[n] = s
	return s.syms, s.impure
}

// ----------------------------------------------------------------------------
// Statements

func (w *walker) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			sym := w.a.declToSym[d]
			if d.Init != nil {
				iv := w.eval(d.Init)
				lin, linOK := w.linOf(d.Init)
				w.setScalar(sym, iv)
				w.deriveRel(sym, lin, linOK)
				continue
			}
			if isIntScalar(sym) {
				w.env[sym] = Top()
			}
		}
	case *ast.ExprStmt:
		w.eval(x.X)
	case *ast.BlockStmt:
		for _, st := range x.List {
			w.stmt(st)
		}
	case *ast.IfStmt:
		w.ifStmt(x)
	case *ast.ForStmt:
		w.forStmt(x)
	case *ast.WhileStmt:
		w.havoc(x.Body, nil)
		w.deadGuard(x.Cond)
		w.eval(x.Cond)
		b := w.branch()
		b.applyCond(x.Cond, true)
		b.stmt(x.Body)
		// Values assigned in the body are already havoced; branch-local
		// precision dies with the branch.
	case *ast.DoStmt:
		w.havoc(x.Body, nil)
		w.stmt(x.Body)
		w.eval(x.Cond)
		w.havoc(x.Body, nil)
	case *ast.ReturnStmt:
		if x.X != nil {
			w.eval(x.X)
		}
	case *ast.SwitchStmt:
		w.eval(x.Tag)
		w.havoc(x, nil)
		for _, c := range x.Cases {
			b := w.branch()
			for _, st := range c.Body {
				b.stmt(st)
			}
		}
	}
}

func (w *walker) ifStmt(x *ast.IfStmt) {
	w.eval(x.Cond)
	w.deadGuard(x.Cond)
	w.alwaysTrueGuard(x.Cond)
	then := w.branch()
	then.applyCond(x.Cond, true)
	then.stmt(x.Then)
	els := w.branch()
	els.applyCond(x.Cond, false)
	if x.Else != nil {
		els.stmt(x.Else)
	}
	w.merge(then, els)
}

func (w *walker) deadGuard(cond ast.Expr) {
	if !w.prove {
		return
	}
	if _, isConst := sema.ConstInt(cond); isConst {
		return // a literal if (0) is an intentional guard, not a bug
	}
	canTrue, _ := w.condTruth(cond)
	if canTrue {
		return
	}
	w.a.res.Findings = append(w.a.res.Findings, Finding{
		Kind: DeadGuard,
		Pos:  cond.Pos(),
		Expr: ast.PrintExpr(cond),
		Msg: fmt.Sprintf("condition %s is always false (%s)",
			ast.PrintExpr(cond), w.guardDerivation(cond)),
	})
}

// alwaysTrueGuard reports an if condition that holds on every
// execution — the test is redundant and any else arm is dead. Loop
// conditions are exempt: being true on entry is what loops are for.
func (w *walker) alwaysTrueGuard(cond ast.Expr) {
	if !w.prove {
		return
	}
	if _, isConst := sema.ConstInt(cond); isConst {
		return // if (1) is an intentional guard, not a bug
	}
	_, canFalse := w.condTruth(cond)
	if canFalse {
		return
	}
	w.a.res.Findings = append(w.a.res.Findings, Finding{
		Kind: AlwaysTrue,
		Pos:  cond.Pos(),
		Expr: ast.PrintExpr(cond),
		Msg: fmt.Sprintf("condition %s is always true (%s)",
			ast.PrintExpr(cond), w.guardDerivation(cond)),
	})
}

// guardDerivation renders the facts that settled a guard: the affine
// relations first (the stronger fact), then the value ranges.
func (w *walker) guardDerivation(cond ast.Expr) string {
	parts := w.relFacts(cond)
	if c := w.contributors(cond); c != "" {
		parts = append(parts, c)
	}
	if len(parts) == 0 {
		return "no facts"
	}
	return strings.Join(parts, ", ")
}

// forStmt analyzes a loop; canonical loops get a precise iterator
// interval, everything else falls back to havoc-and-walk-once.
func (w *walker) forStmt(x *ast.ForStmt) {
	l, ok := omp.Canonical(w.a.info, x)
	iter, lb, ub, incl := l.Iter, l.Lower, l.Upper, l.Inclusive
	if ok {
		if assigned, _ := w.assignedSyms(x.Body); assigned[iter] {
			ok = false // body reassigns the iterator: not canonical
		}
	}
	if !ok {
		if x.Init != nil {
			w.stmt(x.Init)
		}
		w.havoc(x.Body, nil)
		if x.Post != nil {
			w.havoc(x.Post, nil)
		}
		if x.Cond != nil {
			w.deadGuard(x.Cond)
			w.eval(x.Cond)
		}
		w.stmt(x.Body)
		if x.Post != nil {
			w.eval(x.Post)
		}
		w.havoc(x.Body, nil)
		return
	}
	// The lower bound is evaluated once on entry; the upper bound is
	// re-evaluated every iteration, so it reads the havoced state.
	lbIv := w.eval(lb)
	entry := w.branch() // pre-loop state, for the zero-trip join below
	w.havoc(x.Body, iter)
	ubIv := w.eval(ub)
	hi := ubIv
	if !incl {
		hi = ubIv.Sub(Exact(1))
	}
	body := Interval{Lo: lbIv.Lo, NoLo: lbIv.NoLo, Hi: hi.Hi, NoHi: hi.NoHi}
	w.env[iter] = body
	w.written[iter] = true
	w.stmt(x.Body)
	// After the loop the iterator holds the first failing value (or the
	// untouched lower bound when the range is empty).
	exit := ubIv
	if incl {
		exit = ubIv.Add(Exact(1))
	}
	w.env[iter] = lbIv.Union(exit)
	w.clearRefines()
	// A loop whose range may be empty never runs its body: join the
	// pre-loop state back in so post-loop facts don't assume ≥ 1 trip.
	op := token.LSS
	if incl {
		op = token.LEQ
	}
	if _, canFalse := relTruth(op, lbIv, ubIv); canFalse {
		entry.env[iter] = lbIv
		entry.written[iter] = true
		w.merge(w.branch(), entry)
	}
}

// ----------------------------------------------------------------------------
// Conditions

// condTruth decides whether a condition can evaluate to true / false.
func (w *walker) condTruth(cond ast.Expr) (canTrue, canFalse bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.IntLit:
		return x.Value != 0, x.Value == 0
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			f, t := w.condTruth(x.X)
			return t, f
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			t1, f1 := w.condTruth(x.X)
			// The right conjunct only evaluates when the left held, so
			// judge it under the left's refinement: this is what catches
			// contradictions like s < 0 && s > 10.
			b := w.branch()
			b.applyCond(x.X, true)
			t2, f2 := b.condTruth(x.Y)
			return t1 && t2, f1 || f2
		case token.LOR:
			t1, f1 := w.condTruth(x.X)
			b := w.branch()
			b.applyCond(x.X, false)
			t2, f2 := b.condTruth(x.Y)
			return t1 || t2, f1 && f2
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			if !isIntExpr(x.X) || !isIntExpr(x.Y) {
				return true, true
			}
			// Relational entailment first: after j = i + 1 the test
			// j > i settles without knowing i's range at all.
			if t, f, ok := w.relEntail(x.Op, x.X, x.Y); ok {
				return t, f
			}
			a, b := w.eval(x.X), w.eval(x.Y)
			return relTruth(x.Op, a, b)
		}
	}
	return true, true
}

func isIntExpr(e ast.Expr) bool {
	t := e.Checked()
	return t != nil && t.Kind == types.Int
}

// relTruth decides a relation over two intervals.
func relTruth(op token.Kind, a, b Interval) (canTrue, canFalse bool) {
	// possible(a < b)  ⟺ min(a) < max(b); unbounded sides always allow it.
	lssPossible := func(a, b Interval) bool {
		return a.NoLo || b.NoHi || a.Lo < b.Hi
	}
	leqPossible := func(a, b Interval) bool {
		return a.NoLo || b.NoHi || a.Lo <= b.Hi
	}
	overlap := func(a, b Interval) bool {
		return leqPossible(a, b) && leqPossible(b, a)
	}
	switch op {
	case token.LSS:
		return lssPossible(a, b), leqPossible(b, a)
	case token.LEQ:
		return leqPossible(a, b), lssPossible(b, a)
	case token.GTR:
		return lssPossible(b, a), leqPossible(a, b)
	case token.GEQ:
		return leqPossible(b, a), lssPossible(a, b)
	case token.EQL:
		bothExact := a.Bounded() && b.Bounded() && a.Lo == a.Hi && b.Lo == b.Hi
		return overlap(a, b), !(bothExact && a.Lo == b.Lo)
	case token.NEQ:
		bothExact := a.Bounded() && b.Bounded() && a.Lo == a.Hi && b.Lo == b.Hi
		return !(bothExact && a.Lo == b.Lo), overlap(a, b)
	}
	return true, true
}

// applyCond refines the environment under the assumption that cond
// evaluated to truth.
func (w *walker) applyCond(cond ast.Expr, truth bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			w.applyCond(x.X, !truth)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if truth {
				w.applyCond(x.X, true)
				w.applyCond(x.Y, true)
			}
		case token.LOR:
			if !truth {
				w.applyCond(x.X, false)
				w.applyCond(x.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			if !isIntExpr(x.X) || !isIntExpr(x.Y) {
				return
			}
			w.applyRel(x.X, x.Op, w.eval(x.Y), truth)
			w.applyRel(x.Y, swapRel(x.Op), w.eval(x.X), truth)
		}
	}
}

func swapRel(op token.Kind) token.Kind {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op // EQL, NEQ are symmetric
}

// applyRel narrows the target of `target op other` assumed truth.
func (w *walker) applyRel(target ast.Expr, op token.Kind, other Interval, truth bool) {
	if !truth {
		switch op {
		case token.LSS:
			op = token.GEQ
		case token.LEQ:
			op = token.GTR
		case token.GTR:
			op = token.LEQ
		case token.GEQ:
			op = token.LSS
		case token.EQL:
			op = token.NEQ
		case token.NEQ:
			op = token.EQL
		}
	}
	var c Interval
	switch op {
	case token.LSS:
		if other.NoHi {
			return
		}
		hi, _ := addSat(other.Hi, -1)
		c = Interval{NoLo: true, Hi: hi}
	case token.LEQ:
		if other.NoHi {
			return
		}
		c = Interval{NoLo: true, Hi: other.Hi}
	case token.GTR:
		if other.NoLo {
			return
		}
		lo, _ := addSat(other.Lo, 1)
		c = Interval{Lo: lo, NoHi: true}
	case token.GEQ:
		if other.NoLo {
			return
		}
		c = Interval{Lo: other.Lo, NoHi: true}
	case token.EQL:
		c = other
	default:
		return
	}
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		sym := w.a.info.Ref[t]
		if isIntScalar(sym) {
			w.env[sym] = w.lookup(sym).Refine(c)
		}
	case *ast.IndexExpr:
		key := ast.PrintExpr(t)
		if prev, ok := w.refine[key]; ok {
			c = prev.Refine(c)
		}
		w.refine[key] = c
	}
}

// ----------------------------------------------------------------------------
// Expressions

func (w *walker) eval(e ast.Expr) Interval {
	switch x := e.(type) {
	case nil:
		return Top()
	case *ast.IntLit:
		return Exact(x.Value)
	case *ast.CharLit:
		return Exact(x.Value)
	case *ast.FloatLit, *ast.StringLit:
		return Top()
	case *ast.ParenExpr:
		return w.eval(x.X)
	case *ast.Ident:
		return w.identValue(x)
	case *ast.BinaryExpr:
		a := w.eval(x.X)
		b := w.eval(x.Y)
		return w.binop(x.Op, a, b)
	case *ast.UnaryExpr:
		return w.unary(x)
	case *ast.PostfixExpr:
		return w.incDec(x.X, x.Op)
	case *ast.AssignExpr:
		return w.assign(x)
	case *ast.CondExpr:
		w.eval(x.Cond)
		// Each arm only evaluates under its polarity of the condition,
		// so refine both: this is what proves the clamp idiom
		// j < 0 ? 0 : j and its mirror.
		tb := w.branch()
		tb.applyCond(x.Cond, true)
		t := tb.eval(x.Then)
		fb := w.branch()
		fb.applyCond(x.Cond, false)
		f := fb.eval(x.Else)
		w.merge(tb, fb)
		return t.Union(f)
	case *ast.CallExpr:
		return w.call(x)
	case *ast.IndexExpr:
		return w.access(x, false)
	case *ast.MemberExpr:
		w.eval(x.X)
		return Top()
	case *ast.CastExpr:
		return w.cast(x)
	case *ast.SizeofExpr:
		if v, ok := sema.ConstInt(x); ok {
			return Exact(v)
		}
		return Top()
	}
	return Top()
}

func (w *walker) identValue(id *ast.Ident) Interval {
	sym := w.a.info.Ref[id]
	if sym == nil {
		return Top()
	}
	if w.prove && sym.Kind == sema.SymLocal && !sym.IsArray() &&
		sym.Type != nil && (sym.Type.Kind == types.Int || sym.Type.Kind == types.Float) &&
		!w.written[sym] && sym.Decl != nil && sym.Decl.Init == nil &&
		!w.a.uninitReported[sym] {
		w.a.uninitReported[sym] = true
		w.a.res.Findings = append(w.a.res.Findings, Finding{
			Kind: UninitScalar,
			Pos:  id.Pos(),
			Expr: id.Name,
			Msg: fmt.Sprintf("%s is read before any assignment (declared at %s without an initializer)",
				id.Name, sym.Decl.Pos()),
		})
	}
	if !isIntScalar(sym) {
		return Top()
	}
	return w.lookup(sym)
}

func (w *walker) binop(op token.Kind, a, b Interval) Interval {
	switch op {
	case token.ADD:
		return a.Add(b)
	case token.SUB:
		return a.Sub(b)
	case token.MUL:
		return a.Mul(b)
	case token.QUO:
		return a.Div(b)
	case token.REM:
		return a.Mod(b)
	case token.AND:
		return a.And(b)
	case token.SHL:
		return a.Shl(b)
	case token.SHR:
		return a.Shr(b)
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ,
		token.LAND, token.LOR:
		return Range(0, 1)
	}
	return Top()
}

func (w *walker) unary(x *ast.UnaryExpr) Interval {
	switch x.Op {
	case token.SUB:
		return w.eval(x.X).Neg()
	case token.ADD:
		return w.eval(x.X)
	case token.NOT:
		w.eval(x.X)
		return Range(0, 1)
	case token.INC, token.DEC:
		return w.incDec(x.X, x.Op)
	case token.MUL, token.AND:
		w.eval(x.X)
		return Top()
	}
	w.eval(x.X)
	return Top()
}

func (w *walker) incDec(target ast.Expr, op token.Kind) Interval {
	delta := Exact(1)
	if op == token.DEC {
		delta = Exact(-1)
	}
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		sym := w.a.info.Ref[t]
		if isIntScalar(sym) {
			nv := w.lookup(sym).Add(delta)
			w.setScalar(sym, nv)
			w.shiftRel(sym, delta.Lo)
			return nv
		}
		if sym != nil {
			w.written[sym] = true
		}
		return Top()
	case *ast.IndexExpr:
		iv := w.access(t, true)
		if id, _ := chainOf(t); id != nil {
			if sym := w.a.info.Ref[id]; sym != nil && w.collect {
				w.a.widenContent(sym, Top())
			}
		}
		w.clearRefines()
		return iv
	}
	w.eval(target)
	return Top()
}

func (w *walker) assign(x *ast.AssignExpr) Interval {
	rhs := w.eval(x.RHS)
	switch l := ast.Unparen(x.LHS).(type) {
	case *ast.Ident:
		sym := w.a.info.Ref[l]
		nv := rhs
		lin, linOK := w.linOf(x.RHS)
		if x.Op != token.ASSIGN {
			if bin, ok := x.Op.AssignBinOp(); ok {
				nv = w.binop(bin, w.lookup(sym), rhs)
			} else {
				nv = Top()
			}
			// Fold the compound op into the affine form: only the
			// additive ones stay affine.
			switch {
			case x.Op == token.ADDASSIGN && linOK:
				self := linForm{Base: sym, A: 1}
				if r, ok := w.rel[sym]; ok {
					self = linForm{Base: r.Base, A: r.A, B: r.B}
				}
				lin, linOK = combineLin(self, lin, 1)
			case x.Op == token.SUBASSIGN && linOK:
				self := linForm{Base: sym, A: 1}
				if r, ok := w.rel[sym]; ok {
					self = linForm{Base: r.Base, A: r.A, B: r.B}
				}
				lin, linOK = combineLin(self, lin, -1)
			default:
				linOK = false
			}
		}
		w.setScalar(sym, nv)
		w.deriveRel(sym, lin, linOK)
		return nv
	case *ast.IndexExpr:
		w.access(l, true)
		if id, subs := chainOf(l); id != nil {
			if sym := w.a.info.Ref[id]; sym != nil && w.collect && fullAccess(sym, subs, w.a) {
				if x.Op == token.ASSIGN {
					w.a.widenContent(sym, rhs)
				} else {
					w.a.widenContent(sym, Top())
				}
			}
		}
		w.clearRefines() // an element store may invalidate guard facts
		return rhs
	default:
		w.eval(x.LHS)
		return rhs
	}
}

// fullAccess reports whether subs address one element of sym (rather
// than a partial row of a multi-dimensional array).
func fullAccess(sym *sema.Symbol, subs []ast.Expr, a *analyzer) bool {
	if sym.IsArray() {
		return len(subs) == len(sym.Dims)
	}
	return len(subs) == 1
}

func (w *walker) call(x *ast.CallExpr) Interval {
	var args []Interval
	for _, arg := range x.Args {
		args = append(args, w.eval(arg))
	}
	sig := w.a.info.Funcs[x.Fun.Name]
	if sig == nil || !sig.Pure {
		w.havocGlobals()
	}
	// The polyhedral helper builtins have exact interval semantics;
	// modeling them keeps tiled loop bounds provable.
	switch x.Fun.Name {
	case "imin":
		if len(args) == 2 {
			return minIv(args[0], args[1])
		}
	case "imax":
		if len(args) == 2 {
			return maxIv(args[0], args[1])
		}
	case "abs":
		if len(args) == 1 {
			return absIv(args[0])
		}
	case "floord":
		if len(args) == 2 {
			d := args[0].Div(args[1])
			return d.Add(Range(-1, 0))
		}
	case "ceild":
		if len(args) == 2 {
			d := args[0].Div(args[1])
			return d.Add(Range(0, 1))
		}
	}
	return Top()
}

func minIv(a, b Interval) Interval {
	var out Interval
	out.NoLo = a.NoLo || b.NoLo
	if !out.NoLo {
		out.Lo = a.Lo
		if b.Lo < out.Lo {
			out.Lo = b.Lo
		}
	}
	switch {
	case a.NoHi && b.NoHi:
		out.NoHi = true
	case a.NoHi:
		out.Hi = b.Hi
	case b.NoHi:
		out.Hi = a.Hi
	default:
		out.Hi = a.Hi
		if b.Hi < out.Hi {
			out.Hi = b.Hi
		}
	}
	return out
}

func maxIv(a, b Interval) Interval { return minIv(a.Neg(), b.Neg()).Neg() }

func absIv(a Interval) Interval {
	if !a.Bounded() {
		return Interval{Lo: 0, NoHi: true}
	}
	if a.Lo >= 0 {
		return a
	}
	hi := -a.Lo
	if a.Hi > hi {
		hi = a.Hi
	}
	return Range(0, hi)
}

func (w *walker) cast(x *ast.CastExpr) Interval {
	iv := w.eval(x.X)
	t := x.Type
	if t == nil || t.IsPointer() {
		return Top()
	}
	var lo, hi int64
	switch t.Base {
	case ast.Char:
		lo, hi = -128, 127
	case ast.Short:
		lo, hi = -32768, 32767
	case ast.Int:
		lo, hi = -2147483648, 2147483647
	case ast.Unsigned:
		lo, hi = 0, 4294967295
	case ast.Long:
		return iv
	default:
		return Top() // float casts and struct types carry no int range
	}
	if iv.Inside(lo, hi) {
		return iv
	}
	return Range(lo, hi) // narrowing may wrap anywhere in the target range
}

// ----------------------------------------------------------------------------
// Array accesses: proofs and findings

// chainOf unwinds a subscript chain x[a][b] to its base identifier and
// the subscripts in source order.
func chainOf(e *ast.IndexExpr) (*ast.Ident, []ast.Expr) {
	var subs []ast.Expr
	cur := ast.Expr(e)
	for {
		ix, ok := ast.Unparen(cur).(*ast.IndexExpr)
		if !ok {
			break
		}
		subs = append([]ast.Expr{ix.Index}, subs...)
		cur = ix.X
	}
	id, _ := ast.Unparen(cur).(*ast.Ident)
	return id, subs
}

// access evaluates an index expression, records bounds findings and
// proofs for it, and returns the interval of the loaded value.
func (w *walker) access(e *ast.IndexExpr, write bool) Interval {
	id, subs := chainOf(e)
	var sym *sema.Symbol
	if id != nil {
		sym = w.a.info.Ref[id]
	}
	if sym != nil && sym.IsArray() {
		ivs := make([]Interval, len(subs))
		for i, s := range subs {
			ivs[i] = w.eval(s)
		}
		if w.prove {
			proven := true
			for i, s := range subs {
				if i >= len(sym.Dims) {
					proven = false
					break
				}
				if !w.checkSub(e, id.Name, s, ivs[i], int64(sym.Dims[i])) {
					proven = false
				}
			}
			if proven && len(subs) == len(sym.Dims) {
				w.a.res.safe[e] = true
			}
		}
		if len(subs) == len(sym.Dims) {
			return w.loadValue(e, sym)
		}
		return Top()
	}
	// Pointer-style access: only the outermost level resolves here;
	// deeper levels recurse through eval of the base expression.
	idxIv := w.eval(e.Index)
	base := ast.Unparen(e.X)
	if bid, ok := base.(*ast.Ident); ok {
		bsym := w.a.info.Ref[bid]
		if bsym != nil {
			if ext, ok := w.a.extent[bsym]; ok {
				if w.prove && w.checkSub(e, bid.Name, e.Index, idxIv, ext) {
					w.a.res.safe[e] = true
				}
				return w.loadValue(e, bsym)
			}
			// Alias-derived extent: a pointer resolved to a declared
			// array by its own initializer (which dominates every use)
			// inherits the array's bounds shifted by the offset.
			if t, ok := w.a.alias.Resolve(bsym); ok && t.Array != nil &&
				t.DeclInit && len(t.Array.Dims) == 1 {
				//lint:rawmem t.Off is the points-to model's compile-time element offset, not a runtime mem.Pointer field
				ext := int64(t.Array.Dims[0]) - t.Off
				if w.prove && ext > 0 && w.checkSub(e, bid.Name, e.Index, idxIv, ext) {
					w.a.res.safe[e] = true
				}
				return w.loadValue(e, t.Array)
			}
		}
		return Top()
	}
	w.eval(base)
	return Top()
}

// loadValue returns the value interval of one loaded element, applying
// any guard refinement recorded for this exact source expression.
func (w *walker) loadValue(e ast.Expr, sym *sema.Symbol) Interval {
	iv := Top()
	if w.a.tracked[sym] {
		iv = w.a.content[sym]
	}
	if r, ok := w.refine[ast.PrintExpr(e)]; ok {
		iv = iv.Refine(r)
	}
	return iv
}

// checkSub compares one subscript interval against [0, extent) and
// records the finding; it reports whether the subscript is proven.
func (w *walker) checkSub(e *ast.IndexExpr, name string, sub ast.Expr, iv Interval, extent int64) bool {
	if iv.Inside(0, extent-1) {
		return true
	}
	src := ast.PrintExpr(e)
	detail := fmt.Sprintf("subscript %s in %s, extent of %s is %d",
		ast.PrintExpr(sub), iv, name, extent)
	if c := w.contributors(sub); c != "" {
		detail += " (" + c + ")"
	}
	w.a.res.notes[e] = detail
	if iv.DisjointFrom(0, extent-1) {
		w.a.res.Findings = append(w.a.res.Findings, Finding{
			Kind: DefiniteOOB, Pos: e.Pos(), Expr: src,
			Msg: fmt.Sprintf("%s always out of bounds: %s", src, detail),
		})
		return false
	}
	w.a.res.Findings = append(w.a.res.Findings, Finding{
		Kind: PossibleOOB, Pos: e.Pos(), Expr: src,
		Msg: fmt.Sprintf("%s may be out of bounds: %s", src, detail),
	})
	return false
}

// contributors renders the derived ranges of the scalars and index
// arrays an expression reads, for the human-readable derivations.
func (w *walker) contributors(e ast.Expr) string {
	var parts []string
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			parts = append(parts, s)
		}
	}
	ast.Walk(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			sym := w.a.info.Ref[x]
			if isIntScalar(sym) {
				add(fmt.Sprintf("%s in %s", x.Name, w.lookup(sym)))
			}
		case *ast.IndexExpr:
			if id, _ := chainOf(x); id != nil {
				if sym := w.a.info.Ref[id]; sym != nil && w.a.tracked[sym] {
					add(fmt.Sprintf("contents of %s in %s", id.Name, w.a.content[sym]))
				}
			}
		}
		return true
	})
	return strings.Join(parts, ", ")
}
