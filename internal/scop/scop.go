// Package scop detects static control parts (SCoPs): loop nests that can
// be handed to the polyhedral transformer.
//
// This is the loop-marking half of the paper's PC-CC stage: each for-loop
// nest is checked for affine bounds, affine array accesses and — the
// paper's contribution — function calls restricted to verified pure
// functions. Qualifying nests are surrounded by #pragma scop /
// #pragma endscop markers, pure calls are temporarily substituted by
// tmpConst_* placeholders so the polyhedral stage sees them as constants
// (Sect. 3.3), and the Listing-5 safety check rejects nests that pass an
// array to a pure function while also writing that array in the nest.
package scop

import (
	"fmt"
	"slices"

	"purec/internal/ast"
	"purec/internal/omp"
	"purec/internal/poly"
	"purec/internal/purity"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// LoopInfo describes one loop of a detected nest.
type LoopInfo struct {
	For   *ast.ForStmt
	Iter  string
	Lower ast.Expr // inclusive lower bound expression
	Upper ast.Expr // inclusive upper bound expression
	LB    poly.Affine
	UB    poly.Affine
}

// SCoP is a detected static control part: a perfect affine for-loop nest
// whose body only reads/writes arrays with affine subscripts and calls
// verified pure functions.
type SCoP struct {
	Func  *ast.FuncDecl
	Outer *ast.ForStmt
	Loops []LoopInfo
	Nest  *poly.Nest
	// BodyStmts are the innermost body statements, parallel to Nest.Stmts.
	BodyStmts []ast.Stmt
	// PureCalls are the pure function calls appearing in the body.
	PureCalls []*ast.CallExpr
	// Substituted holds what SubstituteCalls returned, until
	// RestoreCalls puts the calls back (see Placeholder).
	Substituted []Substitution
	// Reductions lists the recognized reduction accumulators of the body
	// (s op= expr statements whose accumulator has no other use in the
	// nest, and array updates like hist[a[i]]++ whose array is used
	// nowhere else). Their accesses are tagged in Nest and excluded from
	// the parallelism decision; the transformer emits a reduction clause
	// for them.
	Reductions []Reduction
	// PrivateScalars are body-local scalar definitions (`int j = e;`
	// and single-assignment `j = e;` forms) recognized as
	// iteration-private: each iteration defines the scalar before any
	// use, so it carries no cross-iteration dependence. The
	// transformer lists them in the pragma's private(...) clause; the
	// execution backends privatize them through the per-worker
	// environment clone.
	PrivateScalars []string
	// AliasNotes records, per pointer accessed in the body, the
	// points-to resolution the detector applied (exact region, may
	// set, or unknown) for -emit report diagnostics.
	AliasNotes []string
	// SubstPrivates maps decl-form private scalars whose initializer
	// stayed affine in the iterators through the whole body (`int j =
	// i + 5;`, never clamped or reassigned) to that initializer. The
	// transformer forward-substitutes them into their uses, so a body
	// like `int j = i + k; y[i] = x[j];` collapses to the single
	// statement the kernel fuser recognizes. Substitution is
	// value-preserving: an affine initializer is pure integer
	// arithmetic, so re-evaluation per use cannot trap or diverge.
	SubstPrivates map[string]ast.Expr
}

// Reduction is one recognized reduction accumulator: a canonical
// `Var op= expr` statement, a guarded min/max update
// (`if (x < m) m = x;` or its `?:` form), or — with IsArray — an
// array-element update (`A[f(i)] op= e`, `A[f(i)]++`/`--`, guarded
// min/max on `A[f(i)]`) of a local array used nowhere else in the
// nest. Op is the underlying binary operator (ADD, MUL, AND, OR,
// XOR — the associative-commutative subset of the OpenMP reduction
// operators; `--` counts as ADD of a negative contribution) or the
// comparison marker of a min/max pattern (LSS = min, GTR = max).
type Reduction struct {
	Var string
	Op  token.Kind
	// IsArray marks an array reduction: the runtime privatizes a full
	// per-worker copy of the array and combines element-wise.
	IsArray bool
}

// Clause is the OpenMP reduction clause the transformer emits for r:
// the operator spelled from omp's table ("min"/"max" for the
// if-pattern reductions), and array reductions carry a [] suffix
// ("hist[]") so the executing backends privatize a whole array rather
// than one scalar slot.
func (r Reduction) Clause() omp.Clause { return omp.ClauseFor(r.Op, r.Var, r.IsArray) }

// Iters returns the iterator names outermost-first.
func (s *SCoP) Iters() []string { return s.Nest.Iters }

// Result of SCoP detection.
type Result struct {
	SCoPs []*SCoP
	// Rejections explains, per for-loop that was considered but refused,
	// why it is not a SCoP (useful diagnostics, not errors).
	Rejections []string
	// Errors are Listing-5 violations: an array passed to a pure function
	// is also written in the loop nest — the paper's pass throws an
	// error in this case.
	Errors []error
}

// Options configure SCoP detection.
type Options struct {
	// AllowPureCalls enables the paper's extension: bodies may call
	// verified pure functions. With false the detector behaves like a
	// classic polyhedral front end (PluTo without the pure stage) and
	// rejects every loop containing any call — including malloc.
	AllowPureCalls bool
	// Aliases, when set, resolves guest pointers to their points-to
	// regions (internal/vra's flow-insensitive alias analysis
	// satisfies the interface). Accesses through exactly-resolved
	// pointers are renamed to their region for dependence analysis —
	// two pointers into one array then conflict, and provably disjoint
	// ones do not — while unresolved pointer accesses are marked
	// poly.Access.MayAlias for the transformer's conservative
	// serialization. A nil oracle (analysis disabled) marks every
	// pointer access MayAlias — never treating distinct pointer names
	// as distinct arrays, which could hide a real conflict.
	Aliases AliasOracle
}

// AliasOracle is the points-to interface SCoP detection consults for
// pointer-based accesses. internal/vra's AliasResult implements it.
type AliasOracle interface {
	// ResolveExact returns the unique target region and constant
	// element offset of a pointer, when the analysis proved them.
	ResolveExact(sym *sema.Symbol) (region string, off int64, ok bool)
	// MayPointTo returns the may-point-to region set of a pointer;
	// nil means the pointer may point anywhere.
	MayPointTo(sym *sema.Symbol) []string
	// Describe renders the pointer's points-to fact for diagnostics.
	Describe(sym *sema.Symbol) string
}

// Detect scans every function body for SCoPs with the paper's pure-call
// support enabled. Loops calling impure functions, with non-affine
// bounds or accesses, are rejected (recursing into their bodies to find
// inner SCoPs).
func Detect(info *sema.Info, pres *purity.Result) *Result {
	return DetectWith(info, pres, Options{AllowPureCalls: true})
}

// DetectWith is Detect with explicit options.
func DetectWith(info *sema.Info, pres *purity.Result, opts Options) *Result {
	d := &detector{info: info, pres: pres, opts: opts, res: &Result{}}
	for _, decl := range info.File.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		d.fn = fd
		d.scanStmts(fd.Body.List)
	}
	return d.res
}

type detector struct {
	info *sema.Info
	pres *purity.Result
	opts Options
	res  *Result
	fn   *ast.FuncDecl
}

func (d *detector) rejectf(pos token.Pos, format string, args ...any) {
	d.res.Rejections = append(d.res.Rejections,
		fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (d *detector) errorf(pos token.Pos, format string, args ...any) {
	d.res.Errors = append(d.res.Errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// scanStmts walks statements, trying each for-loop as a SCoP root and
// recursing into non-qualifying bodies.
func (d *detector) scanStmts(list []ast.Stmt) {
	for _, s := range list {
		d.scanStmt(s)
	}
}

func (d *detector) scanStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.ForStmt:
		if sc := d.tryNest(x); sc != nil {
			d.res.SCoPs = append(d.res.SCoPs, sc)
			return
		}
		// Not a SCoP at this level: look inside.
		d.scanStmt(x.Body)
	case *ast.BlockStmt:
		d.scanStmts(x.List)
	case *ast.IfStmt:
		d.scanStmt(x.Then)
		if x.Else != nil {
			d.scanStmt(x.Else)
		}
	case *ast.WhileStmt:
		d.scanStmt(x.Body)
	case *ast.DoStmt:
		d.scanStmt(x.Body)
	case *ast.SwitchStmt:
		for _, c := range x.Cases {
			d.scanStmts(c.Body)
		}
	}
}

// tryNest attempts to interpret f as a perfect affine nest with a
// conforming body; nil when it does not qualify.
func (d *detector) tryNest(f *ast.ForStmt) *SCoP {
	sc := &SCoP{Func: d.fn, Outer: f}
	cur := f
	for {
		li, ok := d.loopInfo(cur)
		if !ok {
			return nil
		}
		sc.Loops = append(sc.Loops, li)
		inner, body := innerLoopOrBody(cur)
		if inner != nil {
			cur = inner
			continue
		}
		if !d.buildBody(sc, body) {
			return nil
		}
		if it := d.liveIterator(sc); it != "" {
			d.rejectf(f.Pos(), "iterator %s is live after the loop nest", it)
			return nil
		}
		return sc
	}
}

// liveIterator names an iterator the nest assigns without declaring it
// whose value can outlive the nest — the transformed nest declares
// fresh iterators, so that value would be lost. A global can always be
// read later; a local can when it is mentioned outside the nest, except
// inside another for loop, not containing the nest, whose init assigns
// the iterator without reading it (C89-style reuse of one i).
func (d *detector) liveIterator(sc *SCoP) string {
	for _, l := range sc.Loops {
		init, ok := l.For.Init.(*ast.ExprStmt)
		if !ok {
			continue
		}
		sym := d.info.Ref[init.X.(*ast.AssignExpr).LHS.(*ast.Ident)]
		if sym != nil && (sym.Kind == sema.SymGlobal || d.mentionedOutside(sym, sc.Outer)) {
			return l.Iter
		}
	}
	return ""
}

// mentionedOutside reports whether the function mentions sym outside
// nest and outside every loop that re-initializes it first.
func (d *detector) mentionedOutside(sym *sema.Symbol, nest *ast.ForStmt) bool {
	found := false
	ast.Walk(d.fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			return x != nest && !(d.reinits(x, sym) && !contains(x, nest))
		case *ast.Ident:
			found = found || d.info.Ref[x] == sym
		}
		return !found
	})
	return found
}

// reinits reports whether f's init is sym = e with e not reading sym.
func (d *detector) reinits(f *ast.ForStmt, sym *sema.Symbol) bool {
	init, ok := f.Init.(*ast.ExprStmt)
	if !ok {
		return false
	}
	as, ok := init.X.(*ast.AssignExpr)
	if !ok || as.Op != token.ASSIGN {
		return false
	}
	id, ok := as.LHS.(*ast.Ident)
	if !ok || d.info.Ref[id] != sym {
		return false
	}
	reads := false
	ast.Walk(as.RHS, func(n ast.Node) bool {
		if x, ok := n.(*ast.Ident); ok && d.info.Ref[x] == sym {
			reads = true
		}
		return !reads
	})
	return !reads
}

// contains reports whether node n lies in the subtree of root.
func contains(root, n ast.Node) bool {
	in := false
	ast.Walk(root, func(m ast.Node) bool {
		in = in || m == n
		return !in
	})
	return in
}

// innerLoopOrBody returns the single inner for-loop when the body is
// exactly one for statement (perfect nesting), otherwise the body
// statement list.
func innerLoopOrBody(f *ast.ForStmt) (*ast.ForStmt, []ast.Stmt) {
	switch b := f.Body.(type) {
	case *ast.ForStmt:
		return b, nil
	case *ast.BlockStmt:
		if len(b.List) == 1 {
			if inner, ok := b.List[0].(*ast.ForStmt); ok {
				return inner, nil
			}
		}
		return nil, b.List
	default:
		return nil, []ast.Stmt{f.Body}
	}
}

// loopInfo validates the canonical form  for (int i = LB; i </<= UB; i++)
// and extracts affine bounds.
func (d *detector) loopInfo(f *ast.ForStmt) (LoopInfo, bool) {
	li := LoopInfo{For: f}
	// init
	switch init := f.Init.(type) {
	case *ast.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			d.rejectf(f.Pos(), "loop init must declare a single iterator")
			return li, false
		}
		li.Iter = init.Decls[0].Name
		li.Lower = init.Decls[0].Init
	case *ast.ExprStmt:
		as, ok := init.X.(*ast.AssignExpr)
		if !ok || as.Op != token.ASSIGN {
			d.rejectf(f.Pos(), "loop init must be an assignment")
			return li, false
		}
		id, ok := as.LHS.(*ast.Ident)
		if !ok {
			d.rejectf(f.Pos(), "loop iterator must be a simple variable")
			return li, false
		}
		li.Iter = id.Name
		li.Lower = as.RHS
	default:
		d.rejectf(f.Pos(), "missing loop initialization")
		return li, false
	}
	// cond: i < UB or i <= UB
	cond, ok := f.Cond.(*ast.BinaryExpr)
	if !ok {
		d.rejectf(f.Pos(), "loop condition must be a comparison")
		return li, false
	}
	condID, ok := cond.X.(*ast.Ident)
	if !ok || condID.Name != li.Iter {
		d.rejectf(f.Pos(), "loop condition must compare the iterator")
		return li, false
	}
	switch cond.Op {
	case token.LSS:
		li.Upper = &ast.BinaryExpr{X: cond.Y, Op: token.SUB, Y: &ast.IntLit{Value: 1, Text: "1"}}
	case token.LEQ:
		li.Upper = cond.Y
	default:
		d.rejectf(f.Pos(), "loop condition must use < or <=")
		return li, false
	}
	// post: i++, ++i, i += 1
	if !isUnitStep(f.Post, li.Iter) {
		d.rejectf(f.Pos(), "loop step must be a unit increment")
		return li, false
	}
	return li, true
}

func isUnitStep(e ast.Expr, iter string) bool {
	switch x := e.(type) {
	case *ast.PostfixExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && id.Name == iter && x.Op == token.INC
	case *ast.UnaryExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && id.Name == iter && x.Op == token.INC
	case *ast.AssignExpr:
		id, ok := x.LHS.(*ast.Ident)
		if !ok || id.Name != iter || x.Op != token.ADDASSIGN {
			return false
		}
		v, ok := sema.ConstInt(x.RHS)
		return ok && v == 1
	}
	return false
}

// buildBody validates the innermost body and constructs the polyhedral
// nest (domain, statements, accesses) plus the pure-call list.
func (d *detector) buildBody(sc *SCoP, body []ast.Stmt) bool {
	iters := map[string]bool{}
	var iterNames []string
	for _, l := range sc.Loops {
		iters[l.Iter] = true
		iterNames = append(iterNames, l.Iter)
	}
	classify := func(name string) poly.VarClass {
		if iters[name] {
			return poly.ClassIter
		}
		// Integer scalars not written inside the nest act as parameters.
		if d.isNestParam(sc, name) {
			return poly.ClassParam
		}
		return poly.ClassOther
	}

	nest := &poly.Nest{Iters: iterNames, Domain: poly.NewSystem()}
	paramSet := map[string]bool{}
	for _, l := range sc.Loops {
		lb, err := poly.FromExpr(l.Lower, classify)
		if err != nil {
			d.rejectf(l.For.Pos(), "non-affine lower bound: %v", err)
			return false
		}
		ub, err := poly.FromExpr(l.Upper, classify)
		if err != nil {
			d.rejectf(l.For.Pos(), "non-affine upper bound: %v", err)
			return false
		}
		nest.Domain.AddLowerBound(l.Iter, lb)
		nest.Domain.AddUpperBound(l.Iter, ub)
		for _, v := range lb.Vars() {
			if !iters[v] {
				paramSet[v] = true
			}
		}
		for _, v := range ub.Vars() {
			if !iters[v] {
				paramSet[v] = true
			}
		}
		// Rebind bound fields for later AST regeneration.
	}

	b := &bodyBuilder{d: d, sc: sc, classify: classify, iters: iters,
		priv: map[string]privScalar{}, ptrSyms: map[string]*sema.Symbol{}}
	for seq, s := range body {
		st, ok := b.statement(s, seq)
		if !ok {
			return false
		}
		nest.Stmts = append(nest.Stmts, st)
		sc.BodyStmts = append(sc.BodyStmts, s)
	}
	for _, st := range nest.Stmts {
		for _, a := range st.Accesses() {
			for _, sub := range a.Subs {
				for _, v := range sub.Vars() {
					if !iters[v] {
						paramSet[v] = true
					}
				}
			}
		}
	}
	for p := range paramSet {
		nest.Params = append(nest.Params, p)
	}
	sc.Nest = nest
	sc.PureCalls = b.calls
	sc.PrivateScalars = b.privClause
	inClause := map[string]bool{}
	for _, n := range b.privClause {
		inClause[n] = true
	}
	for name, init := range b.declInit {
		if p := b.priv[name]; p.isAffine && !inClause[name] {
			if sc.SubstPrivates == nil {
				sc.SubstPrivates = map[string]ast.Expr{}
			}
			sc.SubstPrivates[name] = init
		}
	}
	d.recognizeReductions(sc, body, b.cands)
	renamed := d.resolvePointerAccesses(sc, b)
	d.dropConflictingRegionReductions(sc, renamed)

	// Listing-5 check: arrays passed to pure functions must not be
	// written anywhere in the nest. Pointer arguments and writes are
	// compared by resolved region, so passing p (= &a[0]) while
	// assigning a is caught like passing a itself.
	writes := map[string]bool{}
	for _, st := range nest.Stmts {
		for _, w := range st.Writes {
			writes[w.Array] = true
		}
	}
	for _, call := range b.calls {
		for _, arg := range call.Args {
			base := arrayArgBase(d.info, arg)
			if r, ok := renamed[base]; ok {
				base = r
			}
			if base != "" && writes[base] {
				d.errorf(call.Pos(),
					"array %s is passed to pure function %s and assigned in the same loop nest (Listing 5); parallelization would change results",
					base, call.Fun.Name)
				return false
			}
		}
	}
	return true
}

// recognizeReductions promotes the body builder's candidates — a
// reduction update (omp.ReductionUpdate: s op= e, s = s - e,
// A[e] op= v, A[e]++/--) or a guarded min/max update
// (ast.MinMaxUpdateLV) whose accumulator occurs in the statement only
// as its target — to reductions. An accumulator qualifies when every
// appearance of its name in the nest body sits inside its candidate
// statements (one for a scalar), they all agree on one operator (or
// one min/max direction), and it is function-local: a scalar, an
// array, or a single-level pointer. Its accesses in those statements
// get tagged poly.Access.Reduction, which removes them from the
// parallelism decision (for arrays, dissolving the conservative star
// self-dependences), and a Reduction entry, which the transformer
// renders as a reduction(op:s) or reduction(op:A[]) clause.
//
// Global accumulators are excluded: the execution backends privatize
// the accumulator via per-worker frame clones, which global storage
// does not participate in. Pointer bases privatize through their frame
// pointer slot (the worker's clone is repointed at a private segment)
// — but only single-level pointers: privatizing a row-pointer table
// would still share the rows. Whether the target region is disjoint
// from everything else the nest touches is the alias resolution pass's
// concern: an unresolved pointer's accesses stay MayAlias and the
// transformer serializes the nest; a resolved one pairs with any other
// access of its region as an ordinary dependence. Arrays read elsewhere
// in the nest (the hist[a[i]] = hist[b[i]] + 1 near-miss) stay
// untagged: their star dependences serialize the nest and the
// transformer's SerialReason names the offending access.
func (d *detector) recognizeReductions(sc *SCoP, body []ast.Stmt, cands []reductionCand) {
	if len(cands) == 0 {
		return
	}
	uses := map[string]int{}
	for _, s := range body {
		for _, id := range ast.Idents(s) {
			uses[id.Name]++
		}
	}
	// Scalar clauses come first, each kind in statement order.
	slices.SortStableFunc(cands, func(a, b reductionCand) int {
		switch {
		case a.array == b.array:
			return 0
		case a.array:
			return 1
		}
		return -1
	})
	byAcc := map[string][]reductionCand{}
	var order []string
	for _, c := range cands {
		if _, seen := byAcc[c.base.Name]; !seen {
			order = append(order, c.base.Name)
		}
		byAcc[c.base.Name] = append(byAcc[c.base.Name], c)
	}
	for _, name := range order {
		cs := byAcc[name]
		op, array := cs[0].op, cs[0].array
		sameOp := true
		own := 0
		for _, c := range cs {
			sameOp = sameOp && c.op == op && c.array == array
			for _, id := range ast.Idents(body[c.stmt]) {
				if id.Name == name {
					own++
				}
			}
		}
		// Mixed operators on one accumulator cannot share a single
		// combine; a use outside the candidate statements is a real
		// dependence. A scalar takes a single update statement.
		if !sameOp || uses[name] != own || !array && len(cs) > 1 {
			continue
		}
		sym := d.info.Ref[cs[0].base]
		if sym == nil || sym.Kind == sema.SymGlobal || sym.Type == nil {
			continue
		}
		if array && !sym.IsArray() && (!sym.Type.IsPtr() || sym.Type.Elem == nil || sym.Type.Elem.IsPtr()) ||
			!array && (sym.IsArray() || sym.Type.IsPtr()) {
			continue
		}
		elem := sym.Type.BaseElem()
		if elem == nil {
			continue
		}
		switch elem.Kind {
		case types.Int:
			// every recognized op applies
		case types.Float:
			if op != token.ADD && op != token.SUB && op != token.MUL && op != token.LSS && op != token.GTR {
				continue
			}
		default:
			continue
		}
		acc := name
		if !array {
			acc = "scalar:" + name
		}
		for _, c := range cs {
			st := sc.Nest.Stmts[c.stmt]
			for i := range st.Writes {
				if st.Writes[i].Array == acc {
					st.Writes[i].Reduction = true
				}
			}
			for i := range st.Reads {
				if st.Reads[i].Array == acc {
					st.Reads[i].Reduction = true
				}
			}
		}
		sc.Reductions = append(sc.Reductions, Reduction{Var: name, Op: op, IsArray: array})
	}
}

// resolvePointerAccesses consults the alias oracle for every pointer
// used as an access base in the body. Exactly-resolved pointers get
// their accesses renamed to the target region — the pointer's constant
// element offset folded into the first (outermost) subscript — so
// dependence analysis sees through the indirection: two pointers into
// one array then conflict, and provably disjoint regions do not.
// Unresolved pointers get their accesses marked MayAlias; the
// transformer serializes such nests conservatively when a write is
// involved. The returned map records the applied renames (pointer name
// → region name).
//
// The pass runs after reduction recognition, which matches accesses by
// source name. Reduction tags survive the rename, and a conflict
// between a tagged pointer access and another access of the same
// region surfaces as an ordinary (non-reduction) dependence that
// serializes the nest.
func (d *detector) resolvePointerAccesses(sc *SCoP, b *bodyBuilder) map[string]string {
	renamed := map[string]string{}
	if len(b.ptrOrder) == 0 {
		return renamed
	}
	if d.opts.Aliases == nil {
		// No oracle (analysis disabled): every pointer access is
		// conservatively unresolved. Treating pointer names as distinct
		// arrays here would hide real conflicts — two pointers into one
		// segment must not look independent to the dependence analysis.
		for _, name := range b.ptrOrder {
			desc := name + " may point anywhere (alias analysis disabled)"
			sc.AliasNotes = append(sc.AliasNotes, desc)
			markMayAlias(sc.Nest, name, desc)
		}
		return renamed
	}
	for _, name := range b.ptrOrder {
		sym := b.ptrSyms[name]
		if region, off, ok := d.opts.Aliases.ResolveExact(sym); ok {
			renamed[name] = region
			note := fmt.Sprintf("%s -> %s", name, region)
			if off != 0 {
				note = fmt.Sprintf("%s -> %s[+%d]", name, region, off)
			}
			sc.AliasNotes = append(sc.AliasNotes,
				note+" (exact: accesses analyzed as "+region+")")
			renameAccesses(sc.Nest, name, region, off)
			continue
		}
		desc := d.opts.Aliases.Describe(sym)
		sc.AliasNotes = append(sc.AliasNotes, desc+" (unresolved: conservative)")
		markMayAlias(sc.Nest, name, desc)
	}
	return renamed
}

// renameAccesses rewrites every access through the named pointer to
// the resolved region, folding the constant element offset into the
// outermost subscript.
func renameAccesses(nest *poly.Nest, name, region string, off int64) {
	upd := func(a *poly.Access) {
		if a.Via != name || a.Array != name {
			return
		}
		a.Array = region
		if !a.Star && off != 0 && len(a.Subs) > 0 {
			a.Subs[0] = a.Subs[0].Add(poly.NewAffine(off))
		}
	}
	forEachAccess(nest, upd)
}

// markMayAlias flags every access through the named pointer as
// unresolved, carrying the oracle's description for diagnostics.
func markMayAlias(nest *poly.Nest, name, desc string) {
	forEachAccess(nest, func(a *poly.Access) {
		if a.Via != name {
			return
		}
		a.MayAlias = true
		if a.Note == "" {
			a.Note = desc
		}
	})
}

// forEachAccess applies f to every access of the nest, in place.
func forEachAccess(nest *poly.Nest, f func(*poly.Access)) {
	for _, st := range nest.Stmts {
		for i := range st.Writes {
			f(&st.Writes[i])
		}
		for i := range st.Reads {
			f(&st.Reads[i])
		}
	}
}

// dropConflictingRegionReductions demotes array reductions when two
// accumulators resolve to one region with different operators: each
// clause privatizes and combines its own accumulator slot, and two
// same-region clauses only decompose the serial result when they agree
// on one associative-commutative operator (same-op clauses commute and
// stay). Without the demotion the tagged accesses would dissolve their
// mutual dependences and miscompile the nest.
func (d *detector) dropConflictingRegionReductions(sc *SCoP, renamed map[string]string) {
	if len(renamed) == 0 || len(sc.Reductions) < 2 {
		return
	}
	regionOf := func(v string) string {
		if r, ok := renamed[v]; ok {
			return r
		}
		return v
	}
	ops := map[string]token.Kind{}
	conflict := map[string]bool{}
	for _, r := range sc.Reductions {
		if !r.IsArray {
			continue
		}
		reg := regionOf(r.Var)
		if op, seen := ops[reg]; seen && op != r.Op {
			conflict[reg] = true
		}
		ops[reg] = r.Op
	}
	if len(conflict) == 0 {
		return
	}
	kept := sc.Reductions[:0]
	for _, r := range sc.Reductions {
		if r.IsArray && conflict[regionOf(r.Var)] {
			forEachAccess(sc.Nest, func(a *poly.Access) {
				if a.Array == regionOf(r.Var) {
					a.Reduction = false
				}
			})
			continue
		}
		kept = append(kept, r)
	}
	sc.Reductions = kept
}

// isNestParam reports whether name is an integer scalar that is not
// assigned anywhere inside the candidate nest, making it a structure
// parameter of the polyhedron.
func (d *detector) isNestParam(sc *SCoP, name string) bool {
	var sym *sema.Symbol
	for _, id := range ast.Idents(sc.Outer) {
		if id.Name == name {
			if s := d.info.Ref[id]; s != nil {
				sym = s
				break
			}
		}
	}
	if sym == nil || sym.Type == nil || sym.Type.Kind != types.Int || sym.IsArray() {
		return false
	}
	// assigned in the nest?
	for _, a := range ast.Assignments(sc.Outer) {
		if id, ok := a.LHS.(*ast.Ident); ok && id.Name == name {
			return false
		}
	}
	return true
}

// arrayArgBase returns the base array name when arg is (a cast of) an
// array identifier or a row expression like A[i].
func arrayArgBase(info *sema.Info, arg ast.Expr) string {
	switch x := arg.(type) {
	case *ast.Ident:
		sym := info.Ref[x]
		if sym != nil && (sym.IsArray() || sym.Type.IsPtr()) {
			return x.Name
		}
	case *ast.CastExpr:
		return arrayArgBase(info, x.X)
	case *ast.ParenExpr:
		return arrayArgBase(info, x.X)
	case *ast.IndexExpr:
		return arrayArgBase(info, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return arrayArgBase(info, x.X)
		}
	}
	return ""
}

// bodyBuilder converts body statements to polyhedral statements.
type bodyBuilder struct {
	d        *detector
	sc       *SCoP
	classify poly.ClassifyFunc
	iters    map[string]bool
	calls    []*ast.CallExpr
	nextID   int
	// starOK, while set, lets indexAccess fall back to conservative
	// star accesses for data-dependent subscripts (hist[a[i]]). It is
	// only enabled for statements whose store target is such an access
	// — the array-update family recognizeReductions may later tag as
	// array reductions.
	starOK bool
	// cands are the reduction updates of a scalar or an array element
	// found in the body; recognizeReductions promotes them to
	// reductions when the accumulator qualifies.
	cands []reductionCand
	// priv maps body-defined private scalars to their definition. A
	// definition affine in the iterators/parameters is substituted
	// into later subscripts (so y[i] = x[j] with j = i + k stays an
	// affine access); a data-dependent one leaves the scalar opaque
	// and its subscript uses become star reads the value-range
	// analysis may later prove bounded.
	priv map[string]privScalar
	// privOrder lists priv keys in definition order; privClause is
	// the subset declared outside the loop, which the pragma must
	// list in its private(...) clause.
	privOrder  []string
	privClause []string
	// ptrSyms records, per pointer name used as an access base in the
	// body, its symbol — the alias resolution pass consults the
	// oracle for each entry after the accesses are built.
	ptrSyms map[string]*sema.Symbol
	// ptrOrder lists ptrSyms keys in first-use order.
	ptrOrder []string
	// declInit records the initializer of each decl-form private, for
	// the SubstPrivates export.
	declInit map[string]ast.Expr
}

// privScalar is one recognized iteration-private scalar definition.
type privScalar struct {
	affine   poly.Affine
	isAffine bool
}

// reductionCand is one candidate reduction update statement.
type reductionCand struct {
	stmt  int        // body statement index
	base  *ast.Ident // the accumulator, or the updated array's base identifier
	op    token.Kind // ADD/SUB/MUL/AND/OR/XOR, or LSS/GTR for min/max
	array bool       // the target is an array element
}

func (b *bodyBuilder) statement(s ast.Stmt, seq int) (*poly.Statement, bool) {
	st := &poly.Statement{ID: b.nextID, Seq: seq, Label: ast.PrintStmt(s)}
	b.nextID++
	switch x := s.(type) {
	case *ast.ExprStmt:
		// Guarded min/max on an array element in its ?: form
		// (lo[b[i]] = x < lo[b[i]] ? x : lo[b[i]]): an array-reduction
		// candidate, handled like the if-form below. The same ?: form
		// on a recognized private scalar is an iteration-local clamp.
		target, data, op, minMax := ast.MinMaxUpdateLV(x)
		if minMax {
			if ix, okIx := target.(*ast.IndexExpr); okIx {
				return st, b.arrayUpdate(st, seq, ix, true, op, data, data)
			}
			if id, okID := target.(*ast.Ident); okID {
				if done, okP := b.privMinMax(id, data, st); done {
					return st, okP
				}
			}
		}
		if done, ok := b.privAssign(x.X, st, seq); done {
			return st, ok
		}
		if done, ok := b.starUpdate(x.X, st, seq); done {
			return st, ok
		}
		if !b.expr(x.X, st, true) {
			return nil, false
		}
		if !minMax {
			target, data, op = omp.ReductionUpdate(x.X)
		}
		if id, okID := target.(*ast.Ident); okID {
			b.scalarCand(seq, id, data, op)
		}
		return st, true
	case *ast.DeclStmt:
		// A body-local scalar declaration defines an iteration-private
		// value (int j = d[i]; or int j = i + k;): each iteration
		// re-executes the definition before any use, so the scalar
		// carries no cross-iteration dependence.
		if !b.privDecl(x, st) {
			return nil, false
		}
		return st, true
	case *ast.IfStmt:
		// The one conditional a SCoP body admits: a guarded min/max
		// accumulator update. The accumulator gets a read-modify-write
		// access pair (the guard reads it, the branch may write it);
		// the data expression is read once per occurrence, like the
		// source. Whether the statement parallelizes is decided later
		// by recognizeReductions plus dependence analysis.
		if target, data, dir, ok := ast.MinMaxUpdateLV(x); ok {
			if m, okM := target.(*ast.Ident); okM {
				// Clamping a private scalar (if (j < 0) j = 0;)
				// refines the iteration's own value: no shared state
				// is touched, so no scalar access is recorded.
				if done, okP := b.privMinMax(m, data, st); done {
					return st, okP
				}
				if !b.lhs(m, st, true) {
					return nil, false
				}
				if !b.expr(data, st, false) || !b.expr(data, st, false) {
					return nil, false
				}
				b.scalarCand(seq, m, data, dir)
				return st, true
			}
			if ix, okIx := target.(*ast.IndexExpr); okIx {
				return st, b.arrayUpdate(st, seq, ix, true, dir, data, data)
			}
		}
		b.d.rejectf(s.Pos(), "conditional in SCoP body is not a canonical min/max update (if (x < m) m = x;)")
		return nil, false
	case *ast.EmptyStmt:
		return st, true
	default:
		b.d.rejectf(s.Pos(), "loop body statement %T is not supported in a SCoP", s)
		return nil, false
	}
}

// scalarCand registers the update of scalar s in body statement seq as
// a reduction candidate unless the data it folds in reads s.
func (b *bodyBuilder) scalarCand(seq int, s *ast.Ident, data ast.Expr, op token.Kind) {
	for _, id := range ast.Idents(data) {
		if id.Name == s.Name {
			return
		}
	}
	b.cands = append(b.cands, reductionCand{stmt: seq, base: s, op: op})
}

// arrayUpdate records the accesses of a statement that updates array
// element target (affine or data-dependent subscript): the write, with
// rmw the read of the cell it updates, and a read of each of reads. op
// is the update's reduction operator, or token.ILLEGAL; the statement
// becomes an array-reduction candidate when its accesses of the array
// are exactly the target's read-modify-write pair. A further read —
// the data or a subscript reading the accumulator, as in
// hist[a[i]] += hist[b[i]] or hist[hist[i]]++ — is a real dependence;
// registering such a statement would let the tagging pass dissolve it
// and miscompile the nest.
func (b *bodyBuilder) arrayUpdate(st *poly.Statement, seq int, target *ast.IndexExpr, rmw bool, op token.Kind, reads ...ast.Expr) bool {
	base := ast.BaseIdent(target)
	if base == nil {
		b.d.rejectf(target.Pos(), "array base must be a named array")
		return false
	}
	b.starOK = true
	defer func() { b.starOK = false }()
	if !b.indexAccess(target, st, true) || rmw && !b.indexAccess(target, st, false) {
		return false
	}
	for _, e := range reads {
		if e != nil && !b.expr(e, st, false) {
			return false
		}
	}
	if op != token.ILLEGAL && countAccesses(st, base.Name) == 2 {
		b.cands = append(b.cands, reductionCand{stmt: seq, base: base, op: op, array: true})
	}
	return true
}

// countAccesses counts the statement's accesses of the named array.
func countAccesses(st *poly.Statement, name string) int {
	n := 0
	for _, a := range st.Writes {
		if a.Array == name {
			n++
		}
	}
	for _, a := range st.Reads {
		if a.Array == name {
			n++
		}
	}
	return n
}

// privDecl consumes a body-local scalar declaration `int j = e;` as an
// iteration-private definition. The declaration executes anew every
// iteration, so the scalar is dead across iterations by construction;
// the statement records only the reads of the initializer. The one
// extra requirement is that every use of the name in the nest binds
// this declaration — a shadowed outer variable of the same name would
// confuse the name-keyed subscript analysis.
func (b *bodyBuilder) privDecl(ds *ast.DeclStmt, st *poly.Statement) bool {
	if len(ds.Decls) != 1 || ds.Decls[0].Init == nil {
		b.d.rejectf(ds.Pos(), "SCoP body declaration must declare a single initialized scalar")
		return false
	}
	vd := ds.Decls[0]
	sym := b.declSym(vd)
	if sym == nil || sym.IsArray() || sym.Type == nil ||
		sym.Type.Kind != types.Int || sym.Type.IsPtr() {
		b.d.rejectf(ds.Pos(), "declaration of %s in a SCoP body must be a plain int scalar", vd.Name)
		return false
	}
	if b.iters[vd.Name] || !b.uniqueName(vd.Name, sym) {
		b.d.rejectf(ds.Pos(), "declaration of %s shadows another variable used in the nest", vd.Name)
		return false
	}
	if !b.expr(vd.Init, st, false) {
		return false
	}
	b.definePriv(vd.Name, vd.Init, false)
	if b.declInit == nil {
		b.declInit = map[string]ast.Expr{}
	}
	b.declInit[vd.Name] = vd.Init
	return true
}

// privAssign consumes a single-assignment definition `j = e;` of a
// function-local int scalar as iteration-private: the nest must
// contain exactly this one store of j, no use of j may precede it in
// the body (a prior use would read the previous iteration's value, a
// real dependence), the definition must not read j itself, and j must
// be dead after the nest (no use elsewhere in the function). Each
// iteration's j is then self-contained and the statement records only
// the reads of e. done=false falls back to the scalar-write path.
func (b *bodyBuilder) privAssign(e ast.Expr, st *poly.Statement, seq int) (done, ok bool) {
	as, okAs := ast.Unparen(e).(*ast.AssignExpr)
	if !okAs || as.Op != token.ASSIGN {
		return false, false
	}
	id, okID := ast.Unparen(as.LHS).(*ast.Ident)
	if !okID || b.iters[id.Name] {
		return false, false
	}
	sym := b.d.info.Ref[id]
	if sym == nil || sym.Kind != sema.SymLocal || sym.IsArray() ||
		sym.Type == nil || sym.Type.Kind != types.Int || sym.Type.IsPtr() {
		return false, false
	}
	if !b.uniqueName(id.Name, sym) || !b.privatizable(sym, seq) {
		return false, false
	}
	for _, r := range ast.Idents(as.RHS) {
		if b.d.info.Ref[r] == sym {
			return false, false
		}
	}
	if !b.expr(as.RHS, st, false) {
		return true, false
	}
	b.definePriv(id.Name, as.RHS, true)
	return true, true
}

// privMinMax consumes a guarded min/max update whose target is an
// already-recognized private scalar: the clamp refines the iteration's
// own value (j = max(j, 0)), reading only the data expression; nothing
// another iteration could observe is touched, so no scalar access is
// recorded. The scalar's affine definition — if any — no longer holds
// after the clamp, so it becomes opaque and later subscript uses
// degrade to star reads the value-range analysis may prove bounded.
func (b *bodyBuilder) privMinMax(m *ast.Ident, data ast.Expr, st *poly.Statement) (done, ok bool) {
	if _, isPriv := b.priv[m.Name]; !isPriv {
		return false, false
	}
	b.priv[m.Name] = privScalar{}
	if !b.expr(data, st, false) || !b.expr(data, st, false) {
		return true, false
	}
	return true, true
}

// privatizable checks the single-store and no-prior-use conditions of
// privAssign: the nest stores the scalar exactly once (this
// assignment, no compound updates or ++/--), no body statement before
// seq mentions it, and every use of the symbol in the function sits
// inside the nest.
func (b *bodyBuilder) privatizable(sym *sema.Symbol, seq int) bool {
	stores := 0
	for _, as := range ast.Assignments(b.sc.Outer) {
		if lhs, okL := ast.Unparen(as.LHS).(*ast.Ident); okL && b.d.info.Ref[lhs] == sym {
			stores++
		}
	}
	if stores != 1 {
		return false
	}
	for k := 0; k < seq && k < len(b.sc.BodyStmts); k++ {
		for _, prev := range ast.Idents(b.sc.BodyStmts[k]) {
			if b.d.info.Ref[prev] == sym {
				return false
			}
		}
	}
	inNest := 0
	for _, id := range ast.Idents(b.sc.Outer) {
		if b.d.info.Ref[id] == sym {
			inNest++
		}
	}
	inFn := 0
	for _, id := range ast.Idents(b.d.fn.Body) {
		if b.d.info.Ref[id] == sym {
			inFn++
		}
	}
	return inNest == inFn
}

// declSym finds the symbol a body-local declaration binds.
func (b *bodyBuilder) declSym(vd *ast.VarDecl) *sema.Symbol {
	for _, s := range b.d.info.FuncLocals[b.d.fn.Name] {
		if s.Decl == vd {
			return s
		}
	}
	return nil
}

// uniqueName reports whether every identifier of the given name inside
// the nest resolves to sym (no shadowing confusion).
func (b *bodyBuilder) uniqueName(name string, sym *sema.Symbol) bool {
	for _, id := range ast.Idents(b.sc.Outer) {
		if id.Name == name && b.d.info.Ref[id] != sym {
			return false
		}
	}
	return true
}

// definePriv registers a private scalar and tries to keep its affine
// definition for subscript substitution. clause marks scalars declared
// outside the loop (the `j = e;` form): those must appear in the
// pragma's private(...) clause, while body-local declarations are
// automatically private.
func (b *bodyBuilder) definePriv(name string, init ast.Expr, clause bool) {
	p := privScalar{}
	if a, err := b.affineSub(init); err == nil {
		p = privScalar{affine: a, isAffine: true}
	}
	if _, seen := b.priv[name]; !seen {
		b.privOrder = append(b.privOrder, name)
		if clause {
			b.privClause = append(b.privClause, name)
		}
	}
	b.priv[name] = p
}

// affineSub converts a subscript (or initializer) to affine form,
// treating affine private scalars as parameters and substituting their
// definitions — so y[i] = x[j] with j = i + k analyzes as x[i + k].
// Opaque private scalars classify as ClassOther, failing the
// conversion so the caller degrades the access to a star read.
func (b *bodyBuilder) affineSub(sub ast.Expr) (poly.Affine, error) {
	cls := b.classify
	if len(b.priv) > 0 {
		cls = func(name string) poly.VarClass {
			if p, okP := b.priv[name]; okP {
				if p.isAffine {
					return poly.ClassParam
				}
				return poly.ClassOther
			}
			return b.classify(name)
		}
	}
	a, err := poly.FromExpr(sub, cls)
	if err != nil {
		return a, err
	}
	for _, v := range a.Vars() {
		if p, okP := b.priv[v]; okP && p.isAffine {
			c := a.CoefOf(v)
			a = a.Sub(poly.Var(v).Scale(c)).Add(p.affine.Scale(c))
		}
	}
	return a, nil
}

// notePtr records a pointer used as an access base for the alias
// resolution pass.
func (b *bodyBuilder) notePtr(name string, sym *sema.Symbol) {
	if _, seen := b.ptrSyms[name]; !seen {
		b.ptrOrder = append(b.ptrOrder, name)
		b.ptrSyms[name] = sym
	}
}

// starUpdate handles body statements whose store target is an array
// access with a data-dependent subscript — `A[e]++`, `A[e]--`,
// `A[e] op= v` and the near-miss plain `A[e] = v`. done reports
// whether the statement was consumed (the caller falls back to the
// affine path otherwise); a reduction update (omp.ReductionUpdate)
// additionally registers an array-reduction candidate.
func (b *bodyBuilder) starUpdate(e ast.Expr, st *poly.Statement, seq int) (done, ok bool) {
	lhs, op, rhs := ast.Update(e)
	target, okIx := ast.Unparen(lhs).(*ast.IndexExpr)
	if !okIx || b.subsAffine(target) {
		return false, false
	}
	_, _, kind := omp.ReductionUpdate(e)
	return true, b.arrayUpdate(st, seq, target, op != token.ASSIGN, kind, rhs)
}

// subsAffine reports whether every subscript of the index chain is an
// affine expression of the nest's iterators and parameters.
func (b *bodyBuilder) subsAffine(e *ast.IndexExpr) bool {
	subs, _ := ast.IndexChain(e)
	for _, sub := range subs {
		if _, err := b.affineSub(sub); err != nil {
			return false
		}
	}
	return true
}

// expr collects accesses of e into st; topLevel allows one assignment.
func (b *bodyBuilder) expr(e ast.Expr, st *poly.Statement, topLevel bool) bool {
	switch x := e.(type) {
	case *ast.AssignExpr:
		if !topLevel {
			b.d.rejectf(x.Pos(), "nested assignment in SCoP body")
			return false
		}
		if !b.lhs(x.LHS, st, x.Op != token.ASSIGN) {
			return false
		}
		return b.expr(x.RHS, st, false)
	case *ast.BinaryExpr:
		return b.expr(x.X, st, false) && b.expr(x.Y, st, false)
	case *ast.UnaryExpr:
		if x.Op == token.INC || x.Op == token.DEC {
			return b.lhs(x.X, st, true)
		}
		return b.expr(x.X, st, false)
	case *ast.PostfixExpr:
		return b.lhs(x.X, st, true)
	case *ast.CondExpr:
		return b.expr(x.Cond, st, false) && b.expr(x.Then, st, false) && b.expr(x.Else, st, false)
	case *ast.ParenExpr:
		return b.expr(x.X, st, false)
	case *ast.CastExpr:
		return b.expr(x.X, st, false)
	case *ast.CallExpr:
		return b.call(x, st)
	case *ast.IndexExpr:
		return b.indexAccess(x, st, false)
	case *ast.Ident:
		return b.identRead(x, st)
	case *ast.IntLit, *ast.FloatLit, *ast.CharLit:
		return true
	case *ast.SizeofExpr:
		return true
	default:
		b.d.rejectf(e.Pos(), "unsupported expression %T in SCoP body", e)
		return false
	}
}

// lhs records a write access. compound marks read-modify-write (+=).
func (b *bodyBuilder) lhs(e ast.Expr, st *poly.Statement, compound bool) bool {
	switch x := e.(type) {
	case *ast.IndexExpr:
		if !b.indexAccess(x, st, true) {
			return false
		}
		if compound {
			if !b.indexAccess(x, st, false) {
				return false
			}
		}
		return true
	case *ast.Ident:
		// Writing a scalar that outlives the nest creates an all-level
		// dependence; model it as a 0-dimensional array access.
		sym := b.d.info.Ref[x]
		if sym == nil {
			return false
		}
		if b.iters[x.Name] {
			b.d.rejectf(x.Pos(), "loop iterator %s is modified in the body", x.Name)
			return false
		}
		st.Writes = append(st.Writes, poly.Access{Array: "scalar:" + x.Name, Write: true})
		if compound {
			st.Reads = append(st.Reads, poly.Access{Array: "scalar:" + x.Name})
		}
		return true
	case *ast.ParenExpr:
		return b.lhs(x.X, st, compound)
	default:
		b.d.rejectf(e.Pos(), "unsupported store target %T in SCoP body", e)
		return false
	}
}

// indexAccess records A[e1][e2]... with affine subscripts. With
// starOK set, a data-dependent subscript (hist[a[i]]) degrades to a
// conservative star access instead of rejecting the nest; the
// subscript expressions are then validated as ordinary reads.
func (b *bodyBuilder) indexAccess(e *ast.IndexExpr, st *poly.Statement, write bool) bool {
	subs, base := ast.IndexChain(e)
	id, ok := base.(*ast.Ident)
	if !ok {
		b.d.rejectf(e.Pos(), "array base must be a named array")
		return false
	}
	acc := poly.Access{Array: id.Name, Write: write}
	if sym := b.d.info.Ref[id]; sym != nil && !sym.IsArray() &&
		sym.Type != nil && sym.Type.IsPtr() {
		// Pointer base: mark the access for the alias resolution pass,
		// which renames it to its points-to region (or flags it
		// MayAlias when unresolved).
		acc.Via = id.Name
		b.notePtr(id.Name, sym)
	}
	for _, sub := range subs {
		a, err := b.affineSub(sub)
		if err != nil {
			if !b.starOK && !(!write && b.gatherShape(subs)) {
				b.d.rejectf(sub.Pos(), "non-affine subscript: %v", err)
				return false
			}
			// Data-dependent cell: record a star access and validate
			// the subscripts as reads of their own (a[i] in
			// hist[a[i]] is a plain affine read of a). A gather-shaped
			// read (x[idx[i]]) is accepted even outside the array-update
			// family: it stays a conservative star unless the
			// value-range analysis later proves it bounded.
			for _, s := range subs {
				if !b.expr(s, st, false) {
					return false
				}
			}
			acc.Subs = nil
			acc.Star = true
			acc.Expr = ast.PrintExpr(e)
			acc.Index = indexArrayName(subs)
			acc.Ref = ast.Expr(e)
			if write {
				st.Writes = append(st.Writes, acc)
			} else {
				st.Reads = append(st.Reads, acc)
			}
			return true
		}
		acc.Subs = append(acc.Subs, a)
		// Subscript expressions may themselves read arrays — forbid.
	}
	if write {
		st.Writes = append(st.Writes, acc)
	} else {
		st.Reads = append(st.Reads, acc)
	}
	return true
}

// gatherShape reports whether every subscript in the chain is either
// affine, a one-level load of a named integer array (the idx[i] of
// x[idx[i]]), an opaque private scalar (the clamped j of x[j]), or a
// ?:-clamp over one of those forms — the data-dependent read forms the
// value-range analysis can try to prove bounded.
func (b *bodyBuilder) gatherShape(subs []ast.Expr) bool {
	for _, sub := range subs {
		if !b.gatherSub(sub) {
			return false
		}
	}
	return true
}

// gatherSub is gatherShape for one subscript.
func (b *bodyBuilder) gatherSub(sub ast.Expr) bool {
	if _, err := b.affineSub(sub); err == nil {
		return true
	}
	switch x := ast.Unparen(sub).(type) {
	case *ast.Ident:
		_, isPriv := b.priv[x.Name]
		return isPriv
	case *ast.IndexExpr:
		if _, ok := ast.Unparen(x.X).(*ast.Ident); !ok {
			return false
		}
		_, err := poly.FromExpr(x.Index, b.classify)
		return err == nil
	case *ast.CondExpr:
		// A min/max clamp written inline: every leaf of the ternary
		// (condition operands and both arms) must itself be a gather
		// subscript, e.g. x[d[i] < 0 ? 0 : (d[i] > 7 ? 7 : d[i])].
		cond, ok := ast.Unparen(x.Cond).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch cond.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		default:
			return false
		}
		return b.gatherSub(cond.X) && b.gatherSub(cond.Y) &&
			b.gatherSub(x.Then) && b.gatherSub(x.Else)
	}
	return false
}

// indexArrayName names the index array of the first data-dependent
// subscript in the chain ("" when the subscript has no such shape).
func indexArrayName(subs []ast.Expr) string {
	for _, sub := range subs {
		if ix, ok := ast.Unparen(sub).(*ast.IndexExpr); ok {
			if id, ok := ast.Unparen(ix.X).(*ast.Ident); ok {
				return id.Name
			}
		}
	}
	return ""
}

func (b *bodyBuilder) identRead(x *ast.Ident, st *poly.Statement) bool {
	// Scalar reads of iterators/params are free; reads of pointers are
	// row loads (e.g. passing A[i] handled in indexAccess/call).
	return true
}

// call validates a pure call and records the read accesses of its
// pointer arguments; this is precisely where the paper's extension kicks
// in — without verified purity the whole nest would be rejected.
func (b *bodyBuilder) call(x *ast.CallExpr, st *poly.Statement) bool {
	if !b.d.opts.AllowPureCalls {
		b.d.rejectf(x.Pos(), "function call %s in loop body (classic polyhedral mode: sections to be parallelized must not contain function calls)", x.Fun.Name)
		return false
	}
	if !b.d.pres.IsPure(x.Fun.Name) {
		b.d.rejectf(x.Pos(), "call of non-pure function %s prevents polyhedral analysis (mark it pure to enable parallelization)", x.Fun.Name)
		return false
	}
	b.calls = append(b.calls, x)
	for _, arg := range x.Args {
		if !b.callArg(arg, st) {
			return false
		}
	}
	return true
}

func (b *bodyBuilder) callArg(arg ast.Expr, st *poly.Statement) bool {
	switch x := arg.(type) {
	case *ast.CastExpr:
		return b.callArg(x.X, st)
	case *ast.ParenExpr:
		return b.callArg(x.X, st)
	case *ast.IndexExpr:
		// Row argument like A[i]: a read of that row.
		return b.indexAccess(x, st, false)
	case *ast.Ident:
		sym := b.d.info.Ref[x]
		if sym != nil && (sym.IsArray() || (sym.Type != nil && sym.Type.IsPtr())) {
			acc := poly.Access{Array: x.Name}
			if !sym.IsArray() && sym.Type != nil && sym.Type.IsPtr() {
				acc.Via = x.Name
				b.notePtr(x.Name, sym)
			}
			st.Reads = append(st.Reads, acc)
		}
		return true
	default:
		return b.expr(arg, st, false)
	}
}
