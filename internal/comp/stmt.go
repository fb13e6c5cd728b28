package comp

// Loop launches: a fused kernel (kernel.go) or a parallel region runs
// behind one tStmt. The tape computes the canonical bounds into
// registers just before it and skips the launch when the range is
// empty; a kernel reads its operands' bases and invariants from the
// registers and global slots its body reads (prepFrame), so a zero-trip
// loop evaluates no operand. The launch runs on the launching
// goroutine, and workers only read the frame (map kernels on the shared
// parent frame) or its copy (workerEnv clones the frame).

import (
	"purec/internal/ast"
	"purec/internal/omp"
	"purec/internal/sema"
	"purec/internal/token"
)

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

// launchFn runs a launched loop over the non-empty range lo..hi.
type launchFn func(e *env, lo, hi int64) ctrl

// launch is the site of a tStmt: what it runs, and the fused kernel it
// launches (nil for a parallel region over the dispatch body).
type launch struct {
	run launchFn
	k   *fusedKernel
}

// canonicalLoop is a loop of omp.Canonical's shape: "for (i = LB; i <
// UB; i++) body" (or i <= UB) over a frame slot.
type canonicalLoop struct {
	iterSlot int
	iterSym  *sema.Symbol
	body     ast.Stmt
	// lowerX and upperX are the bound expressions (upperX exclusive
	// unless inclusive); the lifter checks them for hoistability, and a
	// launch evaluates them once.
	lowerX, upperX ast.Expr
	inclusive      bool
}

// canonical recognizes a loop of omp.Canonical's shape whose iterator
// has a frame slot (a global does not: omp.Bind refuses it under a
// parallel-for pragma, and a sequential loop over it dispatches).
func (fc *funcCompiler) canonical(x *ast.ForStmt) (canonicalLoop, bool) {
	l, ok := omp.Canonical(fc.prog.info, x)
	if !ok {
		return canonicalLoop{}, false
	}
	sl, global := fc.slotOf(l.Iter, x)
	if global {
		return canonicalLoop{}, false
	}
	return canonicalLoop{iterSlot: sl.idx, iterSym: l.Iter, body: x.Body,
		lowerX: l.Lower, upperX: l.Upper, inclusive: l.Inclusive}, true
}

// launchLoop emits the launch of run over cl's bounds: lower, then
// upper; an empty range skips the launch (with emptyIter it leaves lower
// in the iterator slot, as the dispatch loop would); otherwise the
// tStmt reads the bounds' registers. k is the kernel run launches, nil
// for none.
func (tc *tapeCompiler) launchLoop(cl *canonicalLoop, k *fusedKernel, run launchFn, emptyIter bool) {
	lo := tc.intOp(cl.lowerX, -1)
	tc.hold(&lo, tkI, cl.upperX)
	hi := tc.intOp(cl.upperX, -1)
	if !cl.inclusive {
		hi = tc.arithI(cl.upperX, token.SUB, hi, immI(1), tc.ta.level(), -1)
	}
	empty := tc.cmpJumpOps(token.LSS, hi, lo, true, false)
	tc.tp.launches = append(tc.tp.launches, launch{run: run, k: k})
	tc.emit(tinstr{op: tStmt, a: tc.toReg(lo, tkI, -1), b: int32(len(tc.tp.launches) - 1), c: tc.toReg(hi, tkI, -1)})
	if emptyIter && empty != noJump {
		done := tc.jump(tinstr{op: tJmp})
		tc.patchHere(empty)
		tc.toReg(lo, tkI, int32(cl.iterSlot))
		empty = done
	}
	tc.patchHere(empty)
}

// parallelRegion compiles loop f under its bound pragma. Any reduction
// clause — parallelizable operator or not — must take the reduction
// path: compiling it as a plain parallelFor would discard the
// accumulator updates made in the workers' private clones.
func (tc *tapeCompiler) parallelRegion(f *ast.ForStmt, r *omp.Region) {
	if len(r.Reductions) > 0 {
		tc.parallelReduceFor(f, r)
		return
	}
	tc.parallelFor(f, r)
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
// per chunk. A fusible element-wise body skips the per-iteration
// dispatch entirely: each worker runs the fused kernel over its chunk
// bounds (composing with every schedule, on real and simulated teams),
// reading the parent environment's operand registers and writing only
// the shared segments; where a kernel stops, the worker's dispatch body
// runs the rest of its chunk. omp.Bind has proved the loop canonical.
func (tc *tapeCompiler) parallelFor(x *ast.ForStmt, r *omp.Region) {
	fc := tc.fc
	cl, _ := fc.canonical(x)
	sched, chunk := r.Schedule, r.Chunk
	iterSlot := cl.iterSlot
	tp := fc.loopBody(cl.body)
	body := tp.loop(iterSlot)
	if k := tc.lift(tp.code, &cl); k != nil && k.sink == sinkStore {
		// Chunked map kernels are safe — gathers included, which arrive
		// here once the polyhedral stage parallelizes proven-bounded
		// nests: chunks partition the store range and the gathered array
		// is only read.
		kern := k.run
		fc.prog.fusedKernels++
		tc.launchLoop(&cl, k, func(e *env, lo, hi int64) ctrl {
			if runsInline(e) {
				return inlineKernel(e, iterSlot, lo, hi, kern, body)
			}
			e.p.growWorkers(e.team.Size())
			e.team.ParallelFor(lo, hi, sched, chunk, func(w int, clo, chi int64) {
				if t := kern(e, clo, chi); t <= chi {
					body(e.workerEnv(w), t, chi, true)
				}
			})
			return ctrlNext
		}, false)
		return
	}
	tc.launchLoop(&cl, nil, func(e *env, lo, hi int64) ctrl {
		if runsInline(e) {
			return body(e, lo, hi, false)
		}
		e.p.growWorkers(e.team.Size())
		e.team.ParallelFor(lo, hi, sched, chunk, func(w int, clo, chi int64) {
			body(e.workerEnv(w), clo, chi, true)
		})
		return ctrlNext
	}, false)
}

// inlineKernel runs a parallel region's fused kernel inline on the
// calling environment, and the dispatch body from where it stopped,
// leaving the last iteration value in the iterator slot like the
// dispatch inline loop does.
func inlineKernel(e *env, iterSlot int, lo, hi int64, kern kernRun, body loopFn) ctrl {
	if t := kern(e, lo, hi); t <= hi {
		return body(e, t, hi, false)
	}
	e.I[iterSlot] = hi
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
func (tc *tapeCompiler) parallelReduceFor(x *ast.ForStmt, rg *omp.Region) {
	fc := tc.fc
	reds := make([]reduction, 0, len(rg.Reductions))
	hasArray := false
	var acc slot // the accumulator of the last clause
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
			tc.seqFor(x)
			return
		}
		acc, _ = fc.slotOf(fc.prog.info.Ref[rg.Sites[i]], x)
		hasArray = hasArray || c.Array
		reds = append(reds, r)
	}
	cl, _ := fc.canonical(x)
	tp := fc.loopBody(cl.body)
	// A fusible reduction body composes with the parallel runtime: each
	// worker runs the fused kernel over its chunk bounds, accumulating
	// into its private clone's identity-initialized accumulator slot,
	// and the partials fold back in worker order exactly like the
	// dispatch path. The kernel must update the one clause's
	// accumulator: a sum into its register, a scatter into its array —
	// the worker's cloned pointer slot aims it at the private copy — or
	// a min/max fold, the clause's guarded update, in its direction.
	var vecChunk kernRun
	k := tc.lift(tp.code, &cl)
	if dir := rg.Reductions[0].Kind; k != nil && len(reds) == 1 && k.acc == acc &&
		(k.sink == sinkMin) == (dir == token.LSS) && (k.sink == sinkMax) == (dir == token.GTR) {
		vecChunk = k.run
		fc.prog.fusedKernels++
	} else {
		k = nil
	}
	sched, chunk := rg.Schedule, rg.Chunk
	iterSlot := cl.iterSlot
	body := tp.loop(iterSlot)
	tc.launchLoop(&cl, k, func(e *env, lo, hi int64) ctrl {
		if runsInline(e) {
			if vecChunk != nil {
				return inlineKernel(e, iterSlot, lo, hi, vecChunk, body)
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
				clo = vecChunk(we, clo, chi)
			}
			if clo <= chi {
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
	}, false)
}
