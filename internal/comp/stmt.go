package comp

// Loop launches: a fused kernel (kernel.go) or a parallel region runs
// behind one tStmt, as a launch record that one method runs. The tape
// computes the canonical bounds into registers just before it; a
// kernel reads its operands' bases and invariants from the registers
// and global slots its body reads (prepFrame), so a zero-trip loop
// evaluates no operand. The launch runs on the launching goroutine, and
// workers only read the frame (map kernels on the shared parent frame)
// or its copy (workerEnv clones the frame).

import (
	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/omp"
	"purec/internal/rt"
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

// launch is the record a tStmt runs: the loop's dispatch body over
// its iterator slot, the kernel lifted from it (nil for none), and for
// a parallel region the schedule, the chunk and the reduction clauses.
type launch struct {
	body     *tape
	iter     int
	k        *fusedKernel
	parallel bool
	sched    rt.Schedule
	chunk    int
	reds     []reduction
	arrays   bool // a clause privatizes an array
}

// run executes the launch over [lo, hi]. An empty range runs nothing
// and leaves lo in the iterator slot, a completed one hi+1: the values
// the dispatch loop leaves. A sequential loop, or a region that runs
// inline, runs the kernel and then the dispatch body from the first
// iteration the kernel did not complete (the bail-out rule; the body
// leaves the slot as the dispatch loop does, break and return
// included). A region hands its chunks to the team, each worker doing
// the same on its chunk; a reduction region's workers start from the
// clauses' identities, run on their private environments and fold back
// in worker order.
func (l *launch) run(e *env, lo, hi int64) ctrl {
	switch {
	case hi < lo:
		e.I[l.iter] = lo
		return ctrlNext
	case !l.parallel || runsInline(e):
		if l.k != nil {
			lo = l.k.run(e, lo, hi)
		}
		if lo <= hi {
			return l.body.run(e, runRange, l.iter, lo, hi)
		}
	case len(l.reds) == 0:
		e.p.growWorkers(e.team.Size())
		// A map kernel writes only shared segments: it runs on the
		// parent's frame, and a chunk it completes copies no frame.
		e.team.ParallelFor(lo, hi, l.sched, l.chunk, func(w int, clo, chi int64) {
			if l.k != nil {
				clo = l.k.run(e, clo, chi)
			}
			if clo <= chi {
				l.body.run(e.workerEnv(w), runChunk, l.iter, clo, chi)
			}
		})
	default:
		e.p.growWorkers(e.team.Size())
		init := func(w int) any {
			we := e.workerEnv(w)
			for i := range l.reds {
				l.reds[i].setIdentity(we)
			}
			return we
		}
		body := func(_ int, clo, chi int64, acc any) any {
			we := acc.(*env)
			if l.k != nil {
				clo = l.k.run(we, clo, chi)
			}
			if clo <= chi {
				l.body.run(we, runChunk, l.iter, clo, chi)
			}
			return we
		}
		combine := func(_ int, acc any) {
			for i := range l.reds {
				l.reds[i].combine(e, acc.(*env))
			}
		}
		if l.arrays {
			// Array reductions allocate O(len) private copies: the
			// lazy-allocating runtime entry point skips workers that
			// never receive a chunk and charges the element-wise
			// combine pass on the simulated critical path.
			e.team.ParallelForReduceArray(lo, hi, l.sched, l.chunk, init, body, combine)
		} else {
			e.team.ParallelForReduce(lo, hi, l.sched, l.chunk, init, body, combine)
		}
	}
	e.I[l.iter] = hi + 1
	return ctrlNext
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

// launchLoop emits launch l of the canonical loop cl over its bounds:
// lower, then upper (made inclusive), read by the tStmt from
// registers.
func (tc *tapeCompiler) launchLoop(cl *canonicalLoop, l launch) {
	lo := tc.intOp(cl.lowerX, -1)
	tc.hold(&lo, tkI, cl.upperX)
	hi := tc.intOp(cl.upperX, -1)
	if !cl.inclusive {
		hi = tc.arithI(cl.upperX, token.SUB, hi, immI(1), tc.ta.level(), -1)
	}
	l.iter = cl.iterSlot
	tc.tp.launches = append(tc.tp.launches, l)
	tc.emit(tinstr{op: tStmt, a: tc.toReg(lo, tkI, -1), b: int32(len(tc.tp.launches) - 1), c: tc.toReg(hi, tkI, -1)})
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

// parallelRegion compiles loop x under its bound pragma, a
// #pragma omp parallel for. Iterations are distributed over the team;
// each worker executes every chunk on a fresh copy of the calling
// environment (private scalars, shared segments), the OpenMP
// private-variable analog — a copy into the worker's own frame stack, so
// a region allocates per worker, not per chunk. omp.Bind has proved the
// loop canonical and validated every clause.
//
// Any reduction clause — parallelizable operator or not — makes the
// region a reduction (rt.Team.ParallelForReduce): every worker
// accumulates into a private clone whose accumulator slots start at the
// operator identity, and the partials fold back in worker order 0..n-1
// (the determinism contract: integer reductions are exact everywhere;
// float reductions are reproducible at a fixed team size under static
// schedules and in simulated mode). Inline execution (nested regions, no
// team, real 1-worker teams) keeps the plain sequential accumulation
// order, so those runs stay bit-identical to the serial build and the
// interp oracle even for floats. Clauses omp.Bind left without a site
// (operators outside the parallelizable set such as "/", min/max
// clauses whose loop body lacks the guarded-update pattern) and
// accumulators that cannot be privatized (globals) compile to serial
// execution of the loop — always correct, never silently wrong.
//
// A fusible body skips the per-iteration dispatch: each worker runs the
// fused kernel over its chunk bounds (composing with every schedule, on
// real and simulated teams), and where it stops, the worker's dispatch
// body runs the rest of its chunk. A map kernel reads the parent
// environment's operand registers and writes only shared segments —
// gathers included, which arrive here once the polyhedral stage
// parallelizes proven-bounded nests: chunks partition the store range
// and the gathered array is only read. A reduction's kernel must update
// the one clause's accumulator in the worker's private clone: a sum into
// its register, a scatter into its array — the worker's cloned pointer
// slot aims it at the private copy — or a min/max fold, the clause's
// guarded update, in its direction.
func (tc *tapeCompiler) parallelRegion(x *ast.ForStmt, rg *omp.Region) {
	fc := tc.fc
	l := launch{parallel: true, sched: rg.Schedule, chunk: rg.Chunk, reds: make([]reduction, 0, len(rg.Reductions))}
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
		l.reds, l.arrays = append(l.reds, r), l.arrays || c.Array
	}
	cl, _ := fc.canonical(x)
	l.body = fc.loopBody(cl.body)
	switch k := tc.lift(l.body.code, &cl); {
	case k == nil:
	case len(l.reds) == 0 && k.sink == sinkStore,
		len(l.reds) == 1 && k.acc == acc &&
			(k.sink == sinkMin) == (rg.Reductions[0].Kind == token.LSS) &&
			(k.sink == sinkMax) == (rg.Reductions[0].Kind == token.GTR):
		l.k = k
		fc.prog.fusedKernels++
	}
	tc.launchLoop(&cl, l)
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
		r, ok = newReduction(sl.idx, false, mem.CellInt, op, false, site.Name)
	case sl.kind == slotFloat:
		r, ok = newReduction(sl.idx, false, mem.CellFloat, op, sym.Type != nil && sym.Type.CSize == 4, site.Name)
	}
	return r, ok
}
