package comp

import (
	"strings"

	"purec/internal/ast"
	"purec/internal/rt"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// block compiles a statement block, honoring #pragma omp parallel for
// annotations on the following loop.
func (fc *funcCompiler) block(b *ast.BlockStmt) stmtFn {
	return fc.stmtList(b.List)
}

func (fc *funcCompiler) stmtList(list []ast.Stmt) stmtFn {
	var fns []stmtFn
	for i := 0; i < len(list); i++ {
		s := list[i]
		if pr, ok := s.(*ast.PragmaStmt); ok {
			if isOmpParallelFor(pr.Text) && i+1 < len(list) {
				if f, ok := list[i+1].(*ast.ForStmt); ok {
					// Any reduction clause — supported operator or not —
					// must take the reduction path: compiling it as a
					// plain parallelFor would discard the accumulator
					// updates made in the workers' private clones.
					if strings.Contains(pr.Text, "reduction(") {
						fns = append(fns, fc.parallelReduceFor(f, pr.Text))
					} else {
						fns = append(fns, fc.parallelFor(f, pr.Text))
					}
					i++
					continue
				}
			}
			// scop/endscop/simd markers have no runtime effect.
			continue
		}
		fns = append(fns, fc.stmt(s))
	}
	switch len(fns) {
	case 0:
		return func(*env) ctrl { return ctrlNext }
	case 1:
		return fns[0]
	}
	return func(e *env) ctrl {
		for _, f := range fns {
			if c := f(e); c != ctrlNext {
				return c
			}
		}
		return ctrlNext
	}
}

func isOmpParallelFor(text string) bool {
	return strings.Contains(text, "omp") && strings.Contains(text, "parallel") &&
		strings.Contains(text, "for")
}

func (fc *funcCompiler) stmt(s ast.Stmt) stmtFn {
	switch x := s.(type) {
	case *ast.DeclStmt:
		return fc.declStmt(x)
	case *ast.ExprStmt:
		eff := fc.effect(x.X)
		return func(e *env) ctrl {
			eff(e)
			return ctrlNext
		}
	case *ast.EmptyStmt:
		return func(*env) ctrl { return ctrlNext }
	case *ast.BlockStmt:
		return fc.block(x)
	case *ast.IfStmt:
		c := fc.cond(x.Cond)
		then := fc.stmt(x.Then)
		if x.Else == nil {
			return func(e *env) ctrl {
				if c(e) {
					return then(e)
				}
				return ctrlNext
			}
		}
		els := fc.stmt(x.Else)
		return func(e *env) ctrl {
			if c(e) {
				return then(e)
			}
			return els(e)
		}
	case *ast.ForStmt:
		return fc.forStmt(x)
	case *ast.WhileStmt:
		c := fc.cond(x.Cond)
		body := fc.stmt(x.Body)
		return func(e *env) ctrl {
			for c(e) {
				switch body(e) {
				case ctrlBreak:
					return ctrlNext
				case ctrlReturn:
					return ctrlReturn
				}
			}
			return ctrlNext
		}
	case *ast.DoStmt:
		c := fc.cond(x.Cond)
		body := fc.stmt(x.Body)
		return func(e *env) ctrl {
			for {
				switch body(e) {
				case ctrlBreak:
					return ctrlNext
				case ctrlReturn:
					return ctrlReturn
				}
				if !c(e) {
					return ctrlNext
				}
			}
		}
	case *ast.ReturnStmt:
		return fc.returnStmt(x)
	case *ast.BreakStmt:
		return func(*env) ctrl { return ctrlBreak }
	case *ast.ContinueStmt:
		return func(*env) ctrl { return ctrlContinue }
	case *ast.SwitchStmt:
		return fc.switchStmt(x)
	case *ast.PragmaStmt:
		return func(*env) ctrl { return ctrlNext }
	}
	fc.errorf(s, "unsupported statement %T", s)
	return nil
}

func (fc *funcCompiler) declStmt(x *ast.DeclStmt) stmtFn {
	var fns []func(*env)
	for _, d := range x.Decls {
		sym := fc.declSym[d]
		if sym == nil {
			fc.errorf(d, "declaration of %s has no symbol", d.Name)
		}
		if d.Init == nil {
			continue
		}
		sl := fc.slots[sym]
		switch sl.kind {
		case slotInt:
			v := fc.integer(d.Init)
			idx := sl.idx
			fns = append(fns, func(e *env) { e.I[idx] = v(e) })
		case slotFloat:
			v := fc.num(d.Init)
			idx := sl.idx
			if sym.Type.CSize == 4 {
				inner := v
				v = func(e *env) float64 { return float64(float32(inner(e))) }
			}
			fns = append(fns, func(e *env) { e.F[idx] = v(e) })
		case slotPtr:
			if sym.IsArray() || sym.Type.Kind == types.Struct {
				fc.errorf(d, "array/struct initializers are not supported")
			}
			v := fc.ptr(d.Init)
			idx := sl.idx
			fns = append(fns, func(e *env) { e.P[idx] = v(e) })
		}
	}
	return func(e *env) ctrl {
		for _, f := range fns {
			f(e)
		}
		return ctrlNext
	}
}

func (fc *funcCompiler) returnStmt(x *ast.ReturnStmt) stmtFn {
	if x.X == nil {
		return func(*env) ctrl { return ctrlReturn }
	}
	if fc.cf.retVoid {
		fc.errorf(x, "value returned from void function")
	}
	switch fc.cf.retKind {
	case slotInt:
		v := fc.integer(x.X)
		return func(e *env) ctrl {
			e.retI = v(e)
			return ctrlReturn
		}
	case slotFloat:
		v := fc.num(x.X)
		if fc.sig != nil && fc.sig.Ret.CSize == 4 {
			inner := v
			v = func(e *env) float64 { return float64(float32(inner(e))) }
		}
		return func(e *env) ctrl {
			e.retF = v(e)
			return ctrlReturn
		}
	default:
		v := fc.ptr(x.X)
		return func(e *env) ctrl {
			e.retP = v(e)
			return ctrlReturn
		}
	}
}

func (fc *funcCompiler) switchStmt(x *ast.SwitchStmt) stmtFn {
	tag := fc.integer(x.Tag)
	type ccase struct {
		val   int64
		deflt bool
		body  stmtFn
	}
	var cases []ccase
	for _, c := range x.Cases {
		cc := ccase{body: fc.stmtList(c.Body)}
		if c.Value == nil {
			cc.deflt = true
		} else {
			v, ok := sema.ConstInt(c.Value)
			if !ok {
				fc.errorf(c, "case label must be constant")
			}
			cc.val = v
		}
		cases = append(cases, cc)
	}
	// C fall-through: execution continues into following cases until a
	// break. We execute from the matching case through the rest.
	return func(e *env) ctrl {
		v := tag(e)
		start := -1
		for i, c := range cases {
			if !c.deflt && c.val == v {
				start = i
				break
			}
		}
		if start < 0 {
			for i, c := range cases {
				if c.deflt {
					start = i
					break
				}
			}
		}
		if start < 0 {
			return ctrlNext
		}
		for i := start; i < len(cases); i++ {
			switch cases[i].body(e) {
			case ctrlBreak:
				return ctrlNext
			case ctrlReturn:
				return ctrlReturn
			case ctrlContinue:
				return ctrlContinue
			}
		}
		return ctrlNext
	}
}

// forStmt compiles a sequential for loop: the fused kernel where the
// matcher finds one (element-wise, gather, histogram, min/max and
// integer-sum bodies on every backend unless Options.NoFuse; canonical
// float reduction loops where fuseReductions says — the vectorization
// analog), per-iteration dispatch otherwise.
func (fc *funcCompiler) forStmt(x *ast.ForStmt) stmtFn {
	return fc.seqFor(x, fc.matchLoop(x))
}

// seqFor compiles x for sequential execution given its match.
func (fc *funcCompiler) seqFor(x *ast.ForStmt, lk loopKernel) stmtFn {
	if lk.run != nil {
		return fc.seqKernelStmt(lk)
	}
	var init stmtFn
	if x.Init != nil {
		init = fc.stmt(x.Init)
	}
	var cond func(*env) bool
	if x.Cond != nil {
		cond = fc.cond(x.Cond)
	} else {
		cond = func(*env) bool { return true }
	}
	var post func(*env)
	if x.Post != nil {
		post = fc.effect(x.Post)
	}
	body := fc.stmt(x.Body)
	return func(e *env) ctrl {
		if init != nil {
			init(e)
		}
		for cond(e) {
			switch body(e) {
			case ctrlBreak:
				return ctrlNext
			case ctrlReturn:
				return ctrlReturn
			}
			if post != nil {
				post(e)
			}
		}
		return ctrlNext
	}
}

// canonicalLoop extracts (iterSlot, lower, upperInclusive, body) from a
// canonical loop "for (int i = LB; i < UB; i++) ...".
type canonicalLoop struct {
	iterSlot int
	lower    intFn
	upper    intFn // inclusive
	body     ast.Stmt
	iterSym  *sema.Symbol
	// lowerX and upperX are the bound expressions (upperX is the raw
	// condition bound, exclusive under <); the fusion engine checks
	// them for hoistability before evaluating bounds once per launch.
	lowerX ast.Expr
	upperX ast.Expr
}

func (fc *funcCompiler) canonical(x *ast.ForStmt) (canonicalLoop, bool) {
	var cl canonicalLoop
	var iterName string
	switch init := x.Init.(type) {
	case *ast.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			return cl, false
		}
		sym := fc.declSym[init.Decls[0]]
		if sym == nil {
			return cl, false
		}
		sl := fc.slots[sym]
		if sl.kind != slotInt {
			return cl, false
		}
		cl.iterSlot = sl.idx
		cl.iterSym = sym
		cl.lower = fc.integer(init.Decls[0].Init)
		cl.lowerX = init.Decls[0].Init
		iterName = init.Decls[0].Name
	case *ast.ExprStmt:
		as, ok := init.X.(*ast.AssignExpr)
		if !ok || as.Op != token.ASSIGN {
			return cl, false
		}
		id, ok := as.LHS.(*ast.Ident)
		if !ok {
			return cl, false
		}
		sym := fc.symOf(id)
		sl, global := fc.slotOf(sym, id)
		if global || sl.kind != slotInt {
			return cl, false
		}
		cl.iterSlot = sl.idx
		cl.iterSym = sym
		cl.lower = fc.integer(as.RHS)
		cl.lowerX = as.RHS
		iterName = id.Name
	default:
		return cl, false
	}
	condBin, ok := x.Cond.(*ast.BinaryExpr)
	if !ok {
		return cl, false
	}
	condID, ok := condBin.X.(*ast.Ident)
	if !ok || condID.Name != iterName {
		return cl, false
	}
	ub := fc.integer(condBin.Y)
	cl.upperX = condBin.Y
	switch condBin.Op {
	case token.LSS:
		cl.upper = func(e *env) int64 { return ub(e) - 1 }
	case token.LEQ:
		cl.upper = ub
	default:
		return cl, false
	}
	switch post := x.Post.(type) {
	case *ast.PostfixExpr:
		id, ok := post.X.(*ast.Ident)
		if !ok || id.Name != iterName || post.Op != token.INC {
			return cl, false
		}
	case *ast.UnaryExpr:
		id, ok := post.X.(*ast.Ident)
		if !ok || id.Name != iterName || post.Op != token.INC {
			return cl, false
		}
	case *ast.AssignExpr:
		id, ok := post.LHS.(*ast.Ident)
		if !ok || id.Name != iterName || post.Op != token.ADDASSIGN {
			return cl, false
		}
		if v, ok := sema.ConstInt(post.RHS); !ok || v != 1 {
			return cl, false
		}
	default:
		return cl, false
	}
	cl.body = x.Body
	return cl, true
}

// runsInline reports whether a parallel region executes inline on the
// calling environment: nested parallelism is disabled (OpenMP default),
// a missing team means sequential execution, and a real 1-worker team
// runs inline for an honest 1-core baseline. Simulated teams of every
// size — including 1 worker — go through the runtime so their regions
// are accounted (the simulated 1-core baseline would otherwise report
// zero region time).
func runsInline(e *env) bool {
	return e.inParallel || e.team == nil ||
		(e.team.Size() == 1 && !e.team.Simulated())
}

// parallelFor compiles a loop annotated with #pragma omp parallel for.
// Iterations are distributed over the team; each worker executes every
// chunk on a fresh copy of the calling environment (private scalars,
// shared segments), the OpenMP private-variable analog — a copy into
// the worker's own frame stack, so a region allocates per worker, not
// per chunk. A fusible element-wise body skips the
// per-iteration dispatch entirely: each worker runs the fused kernel
// over its chunk bounds (composing with every schedule, on real and
// simulated teams), reading the parent environment's invariants and
// writing only the shared segments.
func (fc *funcCompiler) parallelFor(x *ast.ForStmt, pragma string) stmtFn {
	lk := fc.matchLoop(x)
	if !lk.canonical {
		fc.errorf(x, "#pragma omp parallel for requires a canonical loop (int i = lb; i < ub; i++)")
	}
	sched, chunk := parseOmpSchedule(pragma)
	iterSlot := lk.iterSlot
	lower, upper := lk.lower, lk.upper
	if lk.kind == kindMap {
		// Chunked map kernels are safe — gathers included, which arrive
		// here once the polyhedral stage parallelizes proven-bounded
		// nests: chunks partition the store range and the gathered array
		// is only read.
		kern := fc.fused(lk)
		return func(e *env) ctrl {
			lo, hi := lower(e), upper(e)
			if runsInline(e) {
				return inlineKernel(e, iterSlot, lo, hi, kern)
			}
			e.team.ParallelFor(lo, hi, sched, chunk, func(_ int, clo, chi int64) {
				kern(e, clo, chi)
			})
			return ctrlNext
		}
	}
	body := fc.loopBody(lk.body, iterSlot)
	return func(e *env) ctrl {
		lo, hi := lower(e), upper(e)
		if runsInline(e) {
			return body(e, lo, hi, false)
		}
		e.p.growWorkers(e.team.Size())
		e.team.ParallelFor(lo, hi, sched, chunk, func(w int, clo, chi int64) {
			body(e.workerEnv(w), clo, chi, true)
		})
		return ctrlNext
	}
}

// inlineKernel runs a parallel region's fused kernel inline on the
// calling environment, leaving the last iteration value in the
// iterator slot like the dispatch inline loop does.
func inlineKernel(e *env, iterSlot int, lo, hi int64, kern kernRun) ctrl {
	kern(e, lo, hi)
	if hi >= lo {
		e.I[iterSlot] = hi
	}
	return ctrlNext
}

// redClause is one parsed reduction(op:var) clause entry with the
// operator resolved to its token. array marks the privatized-array
// form reduction(op:A[]) — name then holds the bare array name.
type redClause struct {
	op    token.Kind // ADD, MUL, AND, OR, XOR; LSS/GTR for min/max
	name  string
	array bool
}

// parseOmpReductions extracts the reduction clauses of an omp pragma and
// maps the operator symbols to tokens; min/max clauses map to the
// comparison markers LSS/GTR, and a [] suffix on the variable selects
// the array-reduction form. supported is false when any clause uses
// an operator outside the parallelizable set {+,-,*,&,|,^,min,max}
// (e.g. "/") — the loop must then run serially, which is always
// correct, instead of losing the accumulator updates. "-" reduces by
// negation onto "+": the loop body applies the subtractions, so each
// private partial is the negated sum of its chunk and the partials
// fold back with addition (OpenMP gives "-" the same identity and
// combiner as "+").
func parseOmpReductions(pragma string) (reds []redClause, supported bool) {
	for _, c := range rt.ParseOmpReductions(pragma) {
		var op token.Kind
		switch c.Op {
		case "+":
			op = token.ADD
		case "-":
			op = token.SUB
		case "*":
			op = token.MUL
		case "&":
			op = token.AND
		case "|":
			op = token.OR
		case "^":
			op = token.XOR
		case "min":
			op = token.LSS
		case "max":
			op = token.GTR
		default:
			return nil, false
		}
		name, isArr := strings.CutSuffix(c.Var, "[]")
		reds = append(reds, redClause{op: op, name: name, array: isArr})
	}
	return reds, true
}

// declaredInside returns the variable declarations nested under n; a
// reduction clause can only name a variable from the enclosing scope,
// so symbols declared inside the annotated loop (which shadow it and
// are automatically private) must not bind the clause.
func declaredInside(n ast.Node) map[*ast.VarDecl]bool {
	out := map[*ast.VarDecl]bool{}
	ast.Walk(n, func(m ast.Node) bool {
		if d, ok := m.(*ast.DeclStmt); ok {
			for _, vd := range d.Decls {
				out[vd] = true
			}
		}
		return true
	})
	return out
}

// resolveClause binds a reduction clause to its accumulator by locating
// the update it names in the loop body. found reports whether a
// matching enclosing-scope update exists at all (a clause without one
// is a malformed pragma, mirroring the interp oracle's validation); ok
// additionally requires a privatizable accumulator — otherwise the loop
// runs serially, which is always correct.
func (fc *funcCompiler) resolveClause(body ast.Stmt, c redClause) (r reduction, found, ok bool) {
	inner := declaredInside(body)
	var site *ast.Ident
	switch {
	case c.op == token.LSS || c.op == token.GTR:
		site, found = fc.findMinMaxUpdate(body, c, inner)
	case c.array:
		site = fc.findArrayUpdate(body, c, inner)
		found = site != nil
	default:
		site = fc.findScalarUpdate(body, c, inner)
		found = site != nil
	}
	switch {
	case site == nil:
	case c.array:
		r, ok = fc.arrayReductionFor(site, c.op)
	default:
		r, ok = fc.scalarReductionFor(site, c)
	}
	return r, found, ok
}

// clauseBase returns the base identifier when the lvalue is the
// clause's accumulator — the scalar c.name itself, or an element of the
// array c.name for an array clause — bound in the enclosing scope:
// symbols declared inside the annotated loop shadow the name, are
// automatically private, and do not bind the clause.
func (fc *funcCompiler) clauseBase(lhs ast.Expr, c redClause, inner map[*ast.VarDecl]bool) *ast.Ident {
	var base *ast.Ident
	if !c.array {
		base, _ = lhs.(*ast.Ident)
	} else if ix, ok := stripParens(lhs).(*ast.IndexExpr); ok {
		base = ast.BaseIdent(ix)
	}
	if base == nil || base.Name != c.name {
		return nil
	}
	if sym := fc.prog.info.Ref[base]; sym == nil || (sym.Decl != nil && inner[sym.Decl]) {
		return nil
	}
	return base
}

// findScalarUpdate locates the `name op= expr` assignment of a scalar
// clause.
func (fc *funcCompiler) findScalarUpdate(body ast.Stmt, c redClause, inner map[*ast.VarDecl]bool) *ast.Ident {
	for _, as := range ast.Assignments(body) {
		bin, okOp := as.Op.AssignBinOp()
		matches := okOp && bin == c.op
		if !matches && c.op == token.SUB && as.Op == token.ASSIGN {
			// Plain form of a "-" clause: s = s - e (only the
			// left-anchored form is a reduction — s = e - s is not).
			if b, okB := stripParens(as.RHS).(*ast.BinaryExpr); okB && b.Op == token.SUB {
				if x, okX := stripParens(b.X).(*ast.Ident); okX && x.Name == c.name {
					matches = true
				}
			}
		}
		if matches {
			if site := fc.clauseBase(as.LHS, c, inner); site != nil {
				return site
			}
		}
	}
	return nil
}

// findMinMaxUpdate binds a min/max clause (op LSS = min, GTR = max):
// the loop body must contain a guarded update of the accumulator — the
// named scalar, or an element of the named array — in the clause's
// direction: `if (x < m) m = x;` or `m = x < m ? x : m;` (see
// ast.MinMaxUpdateLV). found reports whether any plain assignment to
// the accumulator binds the enclosing scope at all; a body whose
// assignments merely fail the pattern has found set and a nil site.
func (fc *funcCompiler) findMinMaxUpdate(body ast.Stmt, c redClause, inner map[*ast.VarDecl]bool) (site *ast.Ident, found bool) {
	for _, as := range ast.Assignments(body) {
		if as.Op == token.ASSIGN && fc.clauseBase(as.LHS, c, inner) != nil {
			found = true
			break
		}
	}
	if !found {
		return nil, false
	}
	ast.Walk(body, func(n ast.Node) bool {
		if s, okS := n.(ast.Stmt); okS && site == nil {
			if target, _, dir, okM := ast.MinMaxUpdateLV(s); okM && dir == c.op {
				site = fc.clauseBase(target, c, inner)
			}
		}
		return site == nil
	})
	return site, true
}

// scalarReductionFor builds the reduction of the scalar whose update
// site is given. Global accumulators live in Process storage shared by
// every worker — they cannot be privatized through the frame clone —
// and a non-scalar accumulator is a compile error (mirroring the
// interp oracle's validation).
func (fc *funcCompiler) scalarReductionFor(site *ast.Ident, c redClause) (r reduction, ok bool) {
	sym := fc.prog.info.Ref[site]
	sl, global := fc.slotOf(sym, site)
	switch {
	case global:
	case sl.kind == slotPtr:
		fc.errorf(site, "reduction accumulator %s must be a scalar", c.name)
	case sl.kind == slotInt:
		r, ok = scalarReduction[int64](sl.idx, c.op, false)
	case sl.kind == slotFloat:
		r, ok = scalarReduction[float64](sl.idx, c.op, sym.Type != nil && sym.Type.CSize == 4)
	}
	return r, ok
}

// parallelReduceFor compiles a loop annotated with
// #pragma omp parallel for reduction(op:s): iterations are distributed
// over the team through rt.Team.ParallelForReduce — every worker
// accumulates into a private clone whose accumulator slots start at the
// operator identity, and the partials fold back in worker order 0..n-1
// (the determinism contract: integer reductions are exact everywhere;
// float reductions are reproducible at a fixed team size under static
// schedules and in simulated mode).
//
// Inline execution (nested regions, no team, real 1-worker teams) keeps
// the plain sequential accumulation order, so those runs stay
// bit-identical to the serial build and the interp oracle even for
// floats — and the ICC fused-kernel vectorization of canonical
// reduction loops in pure functions still applies there.
//
// Clauses with operators outside the parallelizable set (e.g. "/"),
// min/max clauses whose loop body lacks the guarded-update pattern,
// and accumulators that cannot be privatized (globals) compile to
// serial execution of the loop — always correct, never silently
// wrong. A clause naming no matching accumulator update at all is a
// malformed pragma and a compile error, mirroring parallelFor's
// canonical-loop diagnostic and the interp oracle's validation.
func (fc *funcCompiler) parallelReduceFor(x *ast.ForStmt, pragma string) stmtFn {
	lk := fc.matchLoop(x)
	if !lk.canonical {
		fc.errorf(x, "#pragma omp parallel for requires a canonical loop (int i = lb; i < ub; i++)")
	}
	clauses, supported := parseOmpReductions(pragma)
	if !supported {
		return fc.seqFor(x, lk)
	}
	reds := make([]reduction, 0, len(clauses))
	hasArray := false
	for _, c := range clauses {
		r, found, ok := fc.resolveClause(x.Body, c)
		if !found {
			if c.array {
				fc.errorf(x, "reduction clause names %s[], but the loop has no matching '%s[...] %s=' update", c.name, c.name, c.op)
			} else {
				fc.errorf(x, "reduction clause names %s, but the loop has no matching '%s %s=' update", c.name, c.name, c.op)
			}
		}
		if !ok {
			return fc.seqFor(x, lk)
		}
		hasArray = hasArray || c.array
		reds = append(reds, r)
	}
	// A fusible reduction body composes with the parallel runtime: each
	// worker runs the fused kernel over its chunk bounds, accumulating
	// into its private clone's identity-initialized accumulator slot
	// (the body is the single statement updating the clause accumulator,
	// so the kernel's accumulator and the clause's coincide), and the
	// partials fold back in worker order exactly like the dispatch path.
	// Array-reduction bodies use the gather-update kernel: the worker's
	// cloned pointer slot aims it at the private copy. A min/max fold is
	// the clause's own guarded update, so the kernel must match the
	// single clause's accumulator and direction.
	var vecChunk kernRun
	switch {
	case hasArray && lk.kind == kindHist,
		!hasArray && lk.kind == kindReduce,
		!hasArray && lk.kind == kindMinMax && len(clauses) == 1 && lk.acc == clauses[0].name && lk.dir == clauses[0].op:
		vecChunk = fc.fused(lk)
	}
	sched, chunk := parseOmpSchedule(pragma)
	iterSlot := lk.iterSlot
	lower, upper := lk.lower, lk.upper
	var body loopFn // a fused reduction never dispatches its body
	if vecChunk == nil {
		body = fc.loopBody(lk.body, iterSlot)
	}
	return func(e *env) ctrl {
		lo, hi := lower(e), upper(e)
		if runsInline(e) {
			if vecChunk != nil {
				return inlineKernel(e, iterSlot, lo, hi, vecChunk)
			}
			return body(e, lo, hi, false)
		}
		e.p.growWorkers(e.team.Size())
		init := func(w int) any {
			we := e.workerEnv(w)
			for _, r := range reds {
				r.setIdentity(we)
			}
			return we
		}
		bodyFn := func(_ int, clo, chi int64, acc any) any {
			we := acc.(*env)
			if vecChunk != nil {
				vecChunk(we, clo, chi)
			} else {
				body(we, clo, chi, true)
			}
			return we
		}
		combineFn := func(_ int, acc any) {
			we := acc.(*env)
			for _, r := range reds {
				r.combine(e, we)
			}
		}
		if hasArray {
			// Array reductions allocate O(len) private copies: the
			// lazy-allocating runtime entry point skips workers that
			// never receive a chunk and charges the element-wise
			// combine pass on the simulated critical path.
			e.team.ParallelForReduceArray(lo, hi, sched, chunk, init, bodyFn, combineFn)
		} else {
			e.team.ParallelForReduce(lo, hi, sched, chunk, init, bodyFn, combineFn)
		}
		return ctrlNext
	}
}

// parseOmpSchedule extracts the schedule clause of an omp pragma.
func parseOmpSchedule(pragma string) (rt.Schedule, int) {
	i := strings.Index(pragma, "schedule(")
	if i < 0 {
		return rt.Static, 0
	}
	rest := pragma[i+len("schedule("):]
	j := strings.IndexByte(rest, ')')
	if j < 0 {
		return rt.Static, 0
	}
	s, c, err := rt.ParseSchedule(strings.TrimSpace(rest[:j]))
	if err != nil {
		return rt.Static, 0
	}
	return s, c
}
