package comp

import (
	"purec/internal/ast"
	"purec/internal/omp"
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
		if _, ok := s.(*ast.PragmaStmt); ok {
			// scop/endscop/simd markers have no runtime effect.
			if f, r := fc.ompLoop(list, i); r != nil {
				fns = append(fns, fc.parallelRegion(f, r))
				i++
			}
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

// ompLoop binds the pragma list[i] to the for loop that follows it.
// It returns a nil region unless the pragma is an omp parallel for
// annotating a loop; a malformed pragma is a compile error (omp.Bind).
func (fc *funcCompiler) ompLoop(list []ast.Stmt, i int) (*ast.ForStmt, *omp.Region) {
	if i+1 >= len(list) {
		return nil, nil
	}
	f, ok := list[i+1].(*ast.ForStmt)
	if !ok {
		return nil, nil
	}
	r, err := omp.Bind(fc.prog.info, list[i].(*ast.PragmaStmt), f)
	if err != nil {
		panic(compileError{err})
	}
	return f, r
}

// parallelRegion compiles loop f under its bound pragma. Any reduction
// clause — parallelizable operator or not — must take the reduction
// path: compiling it as a plain parallelFor would discard the
// accumulator updates made in the workers' private clones.
func (fc *funcCompiler) parallelRegion(f *ast.ForStmt, r *omp.Region) stmtFn {
	if len(r.Reductions) > 0 {
		return fc.parallelReduceFor(f, r)
	}
	return fc.parallelFor(f, r)
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
// integer-sum bodies on every backend; canonical
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

// canonical compiles the bounds of a loop of omp.Canonical's shape whose
// iterator has a frame slot (a global does not: omp.Bind refuses it
// under a parallel-for pragma, and a sequential loop over it dispatches).
func (fc *funcCompiler) canonical(x *ast.ForStmt) (canonicalLoop, bool) {
	l, ok := omp.Canonical(fc.prog.info, x)
	if !ok {
		return canonicalLoop{}, false
	}
	sl, global := fc.slotOf(l.Iter, x)
	if global {
		return canonicalLoop{}, false
	}
	cl := canonicalLoop{iterSlot: sl.idx, iterSym: l.Iter, body: x.Body, lowerX: l.Lower, upperX: l.Upper}
	cl.lower = fc.integer(l.Lower)
	cl.upper = fc.integer(l.Upper)
	if !l.Inclusive {
		ub := cl.upper
		cl.upper = func(e *env) int64 { return ub(e) - 1 }
	}
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
// writing only the shared segments. omp.Bind has proved the loop
// canonical.
func (fc *funcCompiler) parallelFor(x *ast.ForStmt, r *omp.Region) stmtFn {
	lk := fc.matchLoop(x)
	sched, chunk := r.Schedule, r.Chunk
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
	if hi >= lo {
		kern(e, lo, hi)
		e.I[iterSlot] = hi
	}
	return ctrlNext
}

// scalarReductionFor builds the reduction of the scalar whose update
// site omp.Resolve bound. Global accumulators live in Process storage
// shared by every worker — they cannot be privatized through the frame
// clone — and run serially.
func (fc *funcCompiler) scalarReductionFor(site *ast.Ident, op token.Kind) (r reduction, ok bool) {
	sym := fc.prog.info.Ref[site]
	sl, global := fc.slotOf(sym, site)
	switch {
	case global:
	case sl.kind == slotInt:
		r, ok = scalarReduction[int64](sl.idx, op, false)
	case sl.kind == slotFloat:
		r, ok = scalarReduction[float64](sl.idx, op, sym.Type != nil && sym.Type.CSize == 4)
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
// omp.Bind has validated every clause. Clauses it left without a site
// (operators outside the parallelizable set such as "/", min/max
// clauses whose loop body lacks the guarded-update pattern) and
// accumulators that cannot be privatized (globals) compile to serial
// execution of the loop — always correct, never silently wrong.
func (fc *funcCompiler) parallelReduceFor(x *ast.ForStmt, rg *omp.Region) stmtFn {
	lk := fc.matchLoop(x)
	reds := make([]reduction, 0, len(rg.Reductions))
	hasArray := false
	for i, c := range rg.Reductions {
		var r reduction
		ok := false
		switch site := rg.Sites[i]; {
		case site == nil:
		case c.Array:
			r, ok = fc.arrayReductionFor(site, c.Kind)
		default:
			r, ok = fc.scalarReductionFor(site, c.Kind)
		}
		if !ok {
			return fc.seqFor(x, lk)
		}
		hasArray = hasArray || c.Array
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
		!hasArray && lk.kind == kindMinMax && len(reds) == 1 && lk.acc == rg.Reductions[0].Var && lk.dir == rg.Reductions[0].Kind:
		vecChunk = fc.fused(lk)
	}
	sched, chunk := rg.Schedule, rg.Chunk
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
