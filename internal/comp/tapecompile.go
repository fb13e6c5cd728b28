package comp

// The tape compiler walks the same AST the closure backend walks and
// emits tinstr words instead of closures. Every emitter mirrors its
// closure counterpart's evaluation order exactly — operands materialize
// into temp registers at the moment the corresponding closure would
// run, compound assignments compute the lvalue address twice, and the
// integer /= and %= forms evaluate the divisor (and trap on zero)
// before the accumulator load, because that is what the closure
// backend does.
//
// Totality comes from the bail mechanism: any construct the tape does
// not linearize (calls in value context compile to pooled closures,
// except leaf pure calls, whose inlined expression goes on the tape
// like any other; assignment used as an expression value and anything
// the closure backend itself rejects) panics tapeBail,
// which rolls the current statement back and re-compiles the whole
// statement with the regular backend into a tStmt escape. The
// surrounding control flow stays on the tape either way.

import (
	"sync"

	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// tapeBail aborts native tape compilation of the current statement;
// tapeCompiler.stmt recovers it and escapes the statement into a
// pooled closure compiled by the regular backend.
type tapeBail struct{}

// tapeAlloc manages one function's temp register space. The bases sit
// just past the locals; temps stack upward and never live across a
// statement boundary, so the main tape and every nested parallel-body
// tape of the function share the same registers. The high-water marks
// extend cf.nI/nF/nP when compilation finishes, which makes worker
// clones privatize temps for free.
type tapeAlloc struct {
	baseI, baseF, baseP int
	tI, tF, tP          int
	maxI, maxF, maxP    int
}

func (ta *tapeAlloc) allocI() int32 {
	r := ta.baseI + ta.tI
	ta.tI++
	if ta.tI > ta.maxI {
		ta.maxI = ta.tI
	}
	return int32(r)
}

func (ta *tapeAlloc) allocF() int32 {
	r := ta.baseF + ta.tF
	ta.tF++
	if ta.tF > ta.maxF {
		ta.maxF = ta.tF
	}
	return int32(r)
}

func (ta *tapeAlloc) allocP() int32 {
	r := ta.baseP + ta.tP
	ta.tP++
	if ta.tP > ta.maxP {
		ta.maxP = ta.tP
	}
	return int32(r)
}

// alloc allocates a temp register of the slot kind.
func (ta *tapeAlloc) alloc(kind int) int32 {
	switch kind {
	case tkI:
		return ta.allocI()
	case tkF:
		return ta.allocF()
	default:
		return ta.allocP()
	}
}

func (ta *tapeAlloc) popI() { ta.tI-- }
func (ta *tapeAlloc) popF() { ta.tF-- }
func (ta *tapeAlloc) popP() { ta.tP-- }

// tapePatch is a pending jump offset: field a of the instruction at pc,
// or field c (the tStmt continue offset) when cont is set.
type tapePatch struct {
	pc   int
	cont bool
}

// tapeLoopCtx collects the pending break/continue exits of one open
// tape loop.
type tapeLoopCtx struct {
	breaks []tapePatch
	conts  []tapePatch
}

type tapeCompiler struct {
	fc    *funcCompiler
	tp    *tape
	ta    *tapeAlloc
	loops []*tapeLoopCtx
	// buf is the emission buffer this nesting depth keeps between tapes.
	buf []tinstr
}

// tapeScratch is the working memory of one CompileProgram's tape
// builds, reused across fixpoint rounds, tapes, functions and (through
// tapeScratchPool) compiles: a tapeCompiler with its emission buffer
// per tape nesting depth (a nested loop-body tape compiles while its
// parent is open), the register space of the function being compiled,
// the backing of the program's pools, the bail-rollback stack and the
// optimizer's arrays. Finished tapes and pools are copied out at exact
// size, so the Program never references the scratch.
type tapeScratch struct {
	tcs   []*tapeCompiler
	depth int
	ta    tapeAlloc
	pools *tapePools
	free  tapePools // emptied pool buffers and cleared dedup indexes
	tapes []*tape   // the program's finished tapes, in compile order
	marks []int     // loop break/continue lengths saved by tapeCompiler.mark
	opt   tlive
}

var tapeScratchPool = sync.Pool{New: func() any {
	return &tapeScratch{free: tapePools{cI: map[int64]int32{}, cF: map[uint64]int32{}}}
}}

// start opens the program's pools on the scratch buffers.
func (sc *tapeScratch) start() {
	clear(sc.free.cI)
	clear(sc.free.cF)
	sc.depth, sc.marks, sc.tapes = 0, sc.marks[:0], sc.tapes[:0]
	p := sc.free
	sc.pools = &p
}

// finish gives the program's pools their exact size, takes the buffers
// back and hands the pools and tapes to p.
func (sc *tapeScratch) finish(p *Program) {
	pl, f := sc.pools, &sc.free
	f.constI, f.constF = settle(&pl.constI), settle(&pl.constF)
	f.intFns, f.fltFns, f.ptrFns = settle(&pl.intFns), settle(&pl.fltFns), settle(&pl.ptrFns)
	f.effFns, f.stmts = settle(&pl.effFns), settle(&pl.stmts)
	pl.cI, pl.cF, sc.pools = nil, nil, nil
	p.tapes = sc.tapes
	sc.tapes = settle(&p.tapes)
}

// clone returns an exact-size copy of s (nil when empty).
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// settle swaps *pool for an exact-size copy and returns the original
// emptied, its elements zeroed so the reused buffer pins nothing.
func settle[T any](pool *[]T) []T {
	old := *pool
	*pool = clone(old)
	clear(old)
	return old[:0]
}

// newTape compiles one statement into an instruction sequence sharing
// the function's register space and the program's pools.
func (fc *funcCompiler) newTape(s ast.Stmt) *tape {
	sc, ta := fc.scratch, fc.talloc
	if sc.depth == len(sc.tcs) {
		sc.tcs = append(sc.tcs, &tapeCompiler{})
	}
	tc := sc.tcs[sc.depth]
	sc.depth++
	tp := &tape{
		code:      tc.buf[:0],
		tapePools: sc.pools,
		tmpI:      int32(ta.baseI),
		tmpF:      int32(ta.baseF),
		tmpP:      int32(ta.baseP),
	}
	tc.fc, tc.tp, tc.ta, tc.loops = fc, tp, ta, tc.loops[:0]
	tc.stmt(s)
	tp.optimize(&sc.opt, ta)
	tc.buf, tp.code = tp.code[:0], clone(tp.code)
	tc.fc, tc.tp, tc.ta = nil, nil, nil
	sc.depth--
	sc.tapes = append(sc.tapes, tp)
	return tp
}

// compileTapeBody compiles the function body for EngineTape.
func (fc *funcCompiler) compileTapeBody() {
	sc := fc.scratch
	sc.ta = tapeAlloc{baseI: fc.cf.nI, baseF: fc.cf.nF, baseP: fc.cf.nP}
	fc.talloc = &sc.ta
	tp := fc.newTape(fc.cf.decl.Body)
	fc.cf.body, fc.cf.tape = tp.stmtFn(), tp
	ta := fc.talloc
	fc.cf.nI = ta.baseI + ta.maxI
	fc.cf.nF = ta.baseF + ta.maxF
	fc.cf.nP = ta.baseP + ta.maxP
	fc.prog.tapeTemps += ta.maxI + ta.maxF + ta.maxP
	fc.talloc, fc.scratch = nil, nil
}

// loopFn runs a parallel loop's body for the iterator values lo..hi on
// e: inline (break ends the range, return propagates) or, with chunk
// set, as a worker's chunk (every iteration runs, ctrl results are
// dropped).
type loopFn func(e *env, lo, hi int64, chunk bool) ctrl

// loopBody compiles a parallel-loop body over iterator slot slot with
// the active engine: under EngineTape the dispatch runs on a nested
// tape sharing the function's temp registers (all temps are dead at the
// region boundary, and worker clones copy the extended frame), one tape
// run per range.
func (fc *funcCompiler) loopBody(s ast.Stmt, slot int) loopFn {
	if fc.prog.engine != EngineTape || fc.talloc == nil {
		body := fc.stmt(s)
		return func(e *env, lo, hi int64, chunk bool) ctrl {
			for i := lo; i <= hi; i++ {
				e.I[slot] = i
				switch c := body(e); {
				case chunk:
				case c == ctrlBreak:
					return ctrlNext
				case c == ctrlReturn:
					return ctrlReturn
				}
			}
			return ctrlNext
		}
	}
	savedI, savedF, savedP := fc.talloc.tI, fc.talloc.tF, fc.talloc.tP
	tp := fc.newTape(s)
	fc.talloc.tI, fc.talloc.tF, fc.talloc.tP = savedI, savedF, savedP
	return func(e *env, lo, hi int64, chunk bool) ctrl {
		mode := runRange
		if chunk {
			mode = runChunk
		}
		return tp.run(e, mode, slot, lo, hi)
	}
}

// pushLoop opens a loop's break/continue context, reusing the one this
// loop nesting level held last.
func (tc *tapeCompiler) pushLoop() *tapeLoopCtx {
	n := len(tc.loops)
	var ctx *tapeLoopCtx
	if n < cap(tc.loops) {
		ctx = tc.loops[:n+1][n]
	}
	if ctx == nil {
		ctx = &tapeLoopCtx{}
	}
	ctx.breaks, ctx.conts = ctx.breaks[:0], ctx.conts[:0]
	tc.loops = append(tc.loops, ctx)
	return ctx
}

func (tc *tapeCompiler) popLoop() { tc.loops = tc.loops[:len(tc.loops)-1] }

// ----------------------------------------------------------------------------
// Emission primitives

func (tc *tapeCompiler) emit(in tinstr) int {
	tc.tp.code = append(tc.tp.code, in)
	return len(tc.tp.code) - 1
}

func (tc *tapeCompiler) here() int { return len(tc.tp.code) }

// patch aims the jump at pc at the current end of the tape.
func (tc *tapeCompiler) patch(pc int) {
	tc.tp.code[pc].a = int32(len(tc.tp.code) - pc)
}

func (tc *tapeCompiler) patchList(ps []tapePatch, target int) {
	for _, p := range ps {
		off := int32(target - p.pc)
		if p.cont {
			tc.tp.code[p.pc].c = off
		} else {
			tc.tp.code[p.pc].a = off
		}
	}
}

func (tc *tapeCompiler) loadConstI(v int64) int32 {
	r := tc.ta.allocI()
	tc.emit(tinstr{op: tConstI, a: r, b: tc.tp.constIdxI(v)})
	return r
}

func (tc *tapeCompiler) loadConstF(v float64) int32 {
	r := tc.ta.allocF()
	tc.emit(tinstr{op: tConstF, a: r, b: tc.tp.constIdxF(v)})
	return r
}

// Closure escape pools: the result lands in a fresh register.

func (tc *tapeCompiler) callI(fn intFn) int32 {
	idx := int32(len(tc.tp.intFns))
	tc.tp.intFns = append(tc.tp.intFns, fn)
	r := tc.ta.allocI()
	tc.emit(tinstr{op: tCallI, a: r, b: idx})
	return r
}

func (tc *tapeCompiler) callF(fn fltFn) int32 {
	idx := int32(len(tc.tp.fltFns))
	tc.tp.fltFns = append(tc.tp.fltFns, fn)
	r := tc.ta.allocF()
	tc.emit(tinstr{op: tCallF, a: r, b: idx})
	return r
}

func (tc *tapeCompiler) callP(fn ptrFn) int32 {
	idx := int32(len(tc.tp.ptrFns))
	tc.tp.ptrFns = append(tc.tp.ptrFns, fn)
	r := tc.ta.allocP()
	tc.emit(tinstr{op: tCallP, a: r, b: idx})
	return r
}

// escapeStmt pools a closure-compiled statement behind a tStmt word.
// Inside a tape loop its break/continue ctrl results jump like native
// break/continue; otherwise they propagate out of the tape.
func (tc *tapeCompiler) escapeStmt(fn stmtFn) {
	idx := int32(len(tc.tp.stmts))
	tc.tp.stmts = append(tc.tp.stmts, fn)
	pc := tc.emit(tinstr{op: tStmt, a: tapeCtrlRet, b: idx, c: tapeCtrlRet})
	if n := len(tc.loops); n > 0 {
		ctx := tc.loops[n-1]
		ctx.breaks = append(ctx.breaks, tapePatch{pc: pc})
		ctx.conts = append(ctx.conts, tapePatch{pc: pc, cont: true})
	}
}

// ----------------------------------------------------------------------------
// Statements

// tapeMark snapshots compiler state for the bail rollback. The open
// loops' break/continue list lengths go on the scratch marks stack from
// index lens, popped when the statement finishes.
type tapeMark struct {
	code       int
	loops      int
	lens       int
	tI, tF, tP int
	fused      int
	elided     int
}

func (tc *tapeCompiler) mark() tapeMark {
	sc := tc.fc.scratch
	m := tapeMark{
		code:  len(tc.tp.code),
		loops: len(tc.loops),
		lens:  len(sc.marks),
		tI:    tc.ta.tI, tF: tc.ta.tF, tP: tc.ta.tP,
		fused: tc.fc.prog.fusedKernels, elided: tc.fc.prog.elidedChecks,
	}
	for _, ctx := range tc.loops {
		sc.marks = append(sc.marks, len(ctx.breaks), len(ctx.conts))
	}
	return m
}

func (tc *tapeCompiler) rollback(m tapeMark) {
	lens := tc.fc.scratch.marks[m.lens:]
	tc.tp.code = tc.tp.code[:m.code]
	tc.loops = tc.loops[:m.loops]
	for i, ctx := range tc.loops {
		ctx.breaks = ctx.breaks[:lens[2*i]]
		ctx.conts = ctx.conts[:lens[2*i+1]]
	}
	tc.ta.tI, tc.ta.tF, tc.ta.tP = m.tI, m.tF, m.tP
	tc.fc.prog.fusedKernels, tc.fc.prog.elidedChecks = m.fused, m.elided
}

// stmt compiles one statement, escaping it to the closure backend when
// any part of it bails. Compile errors propagate.
func (tc *tapeCompiler) stmt(s ast.Stmt) {
	m := tc.mark()
	defer func() {
		r := recover()
		if r != nil {
			if _, ok := r.(tapeBail); !ok {
				panic(r)
			}
			tc.rollback(m)
		}
		sc := tc.fc.scratch
		sc.marks = sc.marks[:m.lens]
		if r != nil {
			tc.escapeStmt(tc.fc.stmt(s))
		}
	}()
	tc.stmtNative(s)
}

func (tc *tapeCompiler) stmtNative(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.DeclStmt:
		tc.tapeDecl(x)
	case *ast.ExprStmt:
		tc.effect(x.X)
	case *ast.EmptyStmt, *ast.PragmaStmt:
		// stray scop/endscop/simd markers have no runtime effect
	case *ast.BlockStmt:
		tc.stmtList(x.List)
	case *ast.IfStmt:
		r := tc.test(x.Cond)
		jz := tc.emit(tinstr{op: tJz, b: r})
		tc.ta.popI()
		tc.stmt(x.Then)
		if x.Else == nil {
			tc.patch(jz)
		} else {
			jmp := tc.emit(tinstr{op: tJmp})
			tc.patch(jz)
			tc.stmt(x.Else)
			tc.patch(jmp)
		}
	case *ast.ForStmt:
		tc.tapeFor(x)
	case *ast.WhileStmt:
		lcond := tc.here()
		r := tc.test(x.Cond)
		jz := tc.emit(tinstr{op: tJz, b: r})
		tc.ta.popI()
		ctx := tc.pushLoop()
		tc.stmt(x.Body)
		tc.popLoop()
		jpc := tc.emit(tinstr{op: tJmp})
		tc.tp.code[jpc].a = int32(lcond - jpc)
		tc.patch(jz)
		tc.patchList(ctx.breaks, tc.here())
		tc.patchList(ctx.conts, lcond)
	case *ast.DoStmt:
		lbody := tc.here()
		ctx := tc.pushLoop()
		tc.stmt(x.Body)
		tc.popLoop()
		lcond := tc.here()
		r := tc.test(x.Cond)
		jnz := tc.emit(tinstr{op: tJnz, b: r})
		tc.tp.code[jnz].a = int32(lbody - jnz)
		tc.ta.popI()
		tc.patchList(ctx.breaks, tc.here())
		tc.patchList(ctx.conts, lcond)
	case *ast.ReturnStmt:
		tc.tapeReturn(x)
	case *ast.BreakStmt:
		if n := len(tc.loops); n > 0 {
			pc := tc.emit(tinstr{op: tJmp})
			ctx := tc.loops[n-1]
			ctx.breaks = append(ctx.breaks, tapePatch{pc: pc})
		} else {
			tc.emit(tinstr{op: tBrk})
		}
	case *ast.ContinueStmt:
		if n := len(tc.loops); n > 0 {
			pc := tc.emit(tinstr{op: tJmp})
			ctx := tc.loops[n-1]
			ctx.conts = append(ctx.conts, tapePatch{pc: pc})
		} else {
			tc.emit(tinstr{op: tCont})
		}
	case *ast.SwitchStmt:
		// C fall-through and per-case break consumption stay on the
		// battle-tested closure path.
		tc.escapeStmt(tc.fc.switchStmt(x))
	default:
		panic(tapeBail{}) // closure backend reports the diagnostic
	}
}

// stmtList shares the closure backend's pragma handling: an omp
// parallel-for pragma plus loop compiles through the parallel runtime
// (whose per-iteration bodies come back as nested tapes via loopBody).
func (tc *tapeCompiler) stmtList(list []ast.Stmt) {
	for i := 0; i < len(list); i++ {
		s := list[i]
		if _, ok := s.(*ast.PragmaStmt); ok {
			if f, r := tc.fc.ompLoop(list, i); r != nil {
				tc.escapeStmt(tc.fc.parallelRegion(f, r))
				i++
			}
			continue
		}
		tc.stmt(s)
	}
}

func (tc *tapeCompiler) tapeDecl(x *ast.DeclStmt) {
	fc := tc.fc
	for _, d := range x.Decls {
		sym := fc.declSym[d]
		if sym == nil {
			panic(tapeBail{})
		}
		if d.Init == nil {
			continue
		}
		sl := fc.slots[sym]
		switch sl.kind {
		case slotInt:
			r := tc.integer(d.Init)
			tc.emit(tinstr{op: tMovI, a: int32(sl.idx), b: r})
			tc.ta.popI()
		case slotFloat:
			r := tc.num(d.Init)
			if sym.Type.CSize == 4 {
				tc.emit(tinstr{op: tRoundF, a: r, b: r})
			}
			tc.emit(tinstr{op: tMovF, a: int32(sl.idx), b: r})
			tc.ta.popF()
		case slotPtr:
			if sym.IsArray() || sym.Type.Kind == types.Struct {
				panic(tapeBail{})
			}
			r := tc.ptrExpr(d.Init)
			tc.emit(tinstr{op: tMovP, a: int32(sl.idx), b: r})
			tc.ta.popP()
		}
	}
}

func (tc *tapeCompiler) tapeReturn(x *ast.ReturnStmt) {
	fc := tc.fc
	if x.X == nil {
		tc.emit(tinstr{op: tRet})
		return
	}
	if fc.cf.retVoid {
		panic(tapeBail{})
	}
	switch fc.cf.retKind {
	case slotInt:
		r := tc.integer(x.X)
		tc.emit(tinstr{op: tRetI, a: r})
		tc.ta.popI()
	case slotFloat:
		r := tc.num(x.X)
		if fc.sig != nil && fc.sig.Ret.CSize == 4 {
			tc.emit(tinstr{op: tRoundF, a: r, b: r})
		}
		tc.emit(tinstr{op: tRetF, a: r})
		tc.ta.popF()
	default:
		r := tc.ptrExpr(x.X)
		tc.emit(tinstr{op: tRetP, a: r})
		tc.ta.popP()
	}
}

// tapeFor mirrors forStmt: fused kernels still win where they match
// (escaped behind tStmt); everything else linearizes.
func (tc *tapeCompiler) tapeFor(x *ast.ForStmt) {
	if lk := tc.fc.matchLoop(x); lk.run != nil {
		tc.escapeStmt(tc.fc.seqKernelStmt(lk))
		return
	}
	// Rotated loop: entry test, body, post, bottom test jumping back.
	// The condition compiles twice but evaluates once per round exactly
	// as the top-test form did (entry + one per iteration), so side
	// effects and traps keep their order — and the hot path pays one
	// taken branch per iteration instead of two.
	if x.Init != nil {
		tc.stmt(x.Init)
	}
	jz := -1
	if x.Cond != nil {
		r := tc.test(x.Cond)
		jz = tc.emit(tinstr{op: tJz, b: r})
		tc.ta.popI()
	}
	lbody := tc.here()
	ctx := tc.pushLoop()
	tc.stmt(x.Body)
	tc.popLoop()
	lpost := tc.here()
	if x.Post != nil {
		tc.effect(x.Post)
	}
	if x.Cond != nil {
		r := tc.test(x.Cond)
		jnz := tc.emit(tinstr{op: tJnz, b: r})
		tc.ta.popI()
		tc.tp.code[jnz].a = int32(lbody - jnz)
	} else {
		jpc := tc.emit(tinstr{op: tJmp})
		tc.tp.code[jpc].a = int32(lbody - jpc)
	}
	if jz >= 0 {
		tc.patch(jz)
	}
	tc.patchList(ctx.breaks, tc.here())
	tc.patchList(ctx.conts, lpost)
}

// ----------------------------------------------------------------------------
// Expressions. Every emitter nets exactly one new register of its
// result kind; operand registers pop as soon as the consuming
// instruction is emitted.

// test compiles any scalar expression into an int register that is
// nonzero iff the closure backend's cond would be true.
func (tc *tapeCompiler) test(e ast.Expr) int32 {
	t := tc.fc.typeOf(e)
	switch t.Kind {
	case types.Float:
		f := tc.flt(e)
		tc.ta.popF()
		r := tc.ta.allocI()
		tc.emit(tinstr{op: tTstF, a: r, b: f})
		return r
	case types.Ptr:
		p := tc.ptrExpr(e)
		tc.ta.popP()
		r := tc.ta.allocI()
		tc.emit(tinstr{op: tTstP, a: r, b: p})
		return r
	default:
		return tc.intExpr(e)
	}
}

// num compiles an arithmetic expression into a float register,
// converting integers.
func (tc *tapeCompiler) num(e ast.Expr) int32 {
	if tc.fc.typeOf(e).Kind == types.Float {
		return tc.flt(e)
	}
	r := tc.integer(e)
	tc.ta.popI()
	f := tc.ta.allocF()
	tc.emit(tinstr{op: tI2F, a: f, b: r})
	return f
}

// integer compiles an integer-typed expression (coercing floats by C
// truncation).
func (tc *tapeCompiler) integer(e ast.Expr) int32 {
	t := tc.fc.typeOf(e)
	if t.Kind == types.Float {
		f := tc.flt(e)
		tc.ta.popF()
		r := tc.ta.allocI()
		tc.emit(tinstr{op: tF2I, a: r, b: f})
		return r
	}
	if t.Kind == types.Ptr {
		tc.fc.errorf(e, "pointer used in integer context")
	}
	return tc.intExpr(e)
}

func (tc *tapeCompiler) intExpr(e ast.Expr) int32 {
	fc := tc.fc
	switch x := e.(type) {
	case *ast.IntLit:
		return tc.loadConstI(x.Value)
	case *ast.CharLit:
		return tc.loadConstI(x.Value)
	case *ast.Ident:
		sym := fc.symOf(x)
		sl, global := fc.slotOf(sym, x)
		r := tc.ta.allocI()
		if global {
			tc.emit(tinstr{op: tLdGI, a: r, b: int32(sl.idx)})
		} else {
			tc.emit(tinstr{op: tMovI, a: r, b: int32(sl.idx)})
		}
		return r
	case *ast.ParenExpr:
		return tc.intExpr(x.X)
	case *ast.BinaryExpr:
		return tc.intBinary(x)
	case *ast.UnaryExpr:
		return tc.intUnary(x)
	case *ast.PostfixExpr:
		// x++ as int expression: the old value stays on the stack.
		lv := tc.lval(x.X, tkI)
		v := tc.get(lv)
		delta := int64(1)
		if x.Op == token.DEC {
			delta = -1
		}
		d := tc.loadConstI(delta)
		nv := tc.ta.allocI()
		tc.emit(tinstr{op: tAddI, a: nv, b: v, c: d})
		tc.set(lv, nv)
		tc.ta.popI() // nv
		tc.ta.popI() // d
		return v
	case *ast.AssignExpr:
		// Assignment as an expression value re-evaluates the RHS in the
		// closure backend; escape the whole statement to preserve that.
		panic(tapeBail{})
	case *ast.CondExpr:
		r := tc.ta.allocI()
		c := tc.test(x.Cond)
		jz := tc.emit(tinstr{op: tJz, b: c})
		tc.ta.popI()
		a := tc.integer(x.Then)
		tc.emit(tinstr{op: tMovI, a: r, b: a})
		tc.ta.popI()
		jmp := tc.emit(tinstr{op: tJmp})
		tc.patch(jz)
		b := tc.integer(x.Else)
		tc.emit(tinstr{op: tMovI, a: r, b: b})
		tc.ta.popI()
		tc.patch(jmp)
		return r
	case *ast.IndexExpr, *ast.MemberExpr:
		p := tc.addr(e)
		r := tc.ta.allocI()
		tc.emit(tinstr{op: tLdInd, a: r, b: p})
		tc.ta.popP()
		// r is now the top int temp; shift it down over the freed slot
		// is unnecessary — registers are indices, not stack cells.
		return r
	case *ast.CastExpr:
		if fc.typeOf(x).Kind == types.Int {
			inner := fc.typeOf(x.X)
			if inner.Kind == types.Float {
				f := tc.flt(x.X)
				tc.ta.popF()
				r := tc.ta.allocI()
				tc.emit(tinstr{op: tF2I, a: r, b: f})
				return r
			}
			return tc.intExpr(x.X)
		}
		panic(tapeBail{})
	case *ast.SizeofExpr:
		return tc.loadConstI(fc.sizeofValue(x))
	case *ast.CallExpr:
		if inl, ok := fc.inlineCall(x); ok {
			return tc.intExpr(inl)
		}
		return tc.callI(fc.callInt(x))
	}
	panic(tapeBail{})
}

func (tc *tapeCompiler) intBinary(x *ast.BinaryExpr) int32 {
	fc := tc.fc
	tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
	switch x.Op {
	case token.LAND:
		r := tc.ta.allocI()
		a := tc.test(x.X)
		jz1 := tc.emit(tinstr{op: tJz, b: a})
		tc.ta.popI()
		b := tc.test(x.Y)
		jz2 := tc.emit(tinstr{op: tJz, b: b})
		tc.ta.popI()
		tc.emit(tinstr{op: tConstI, a: r, b: tc.tp.constIdxI(1)})
		jend := tc.emit(tinstr{op: tJmp})
		tc.patch(jz1)
		tc.patch(jz2)
		tc.emit(tinstr{op: tConstI, a: r, b: tc.tp.constIdxI(0)})
		tc.patch(jend)
		return r
	case token.LOR:
		r := tc.ta.allocI()
		a := tc.test(x.X)
		jnz1 := tc.emit(tinstr{op: tJnz, b: a})
		tc.ta.popI()
		b := tc.test(x.Y)
		jnz2 := tc.emit(tinstr{op: tJnz, b: b})
		tc.ta.popI()
		tc.emit(tinstr{op: tConstI, a: r, b: tc.tp.constIdxI(0)})
		jend := tc.emit(tinstr{op: tJmp})
		tc.patch(jnz1)
		tc.patch(jnz2)
		tc.emit(tinstr{op: tConstI, a: r, b: tc.tp.constIdxI(1)})
		tc.patch(jend)
		return r
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return tc.compare(x)
	}
	if tl.IsPtr() || tr.IsPtr() {
		if x.Op == token.SUB && tl.IsPtr() && tr.IsPtr() {
			a := tc.ptrExpr(x.X)
			b := tc.ptrExpr(x.Y)
			r := tc.ta.allocI()
			tc.emit(tinstr{op: tPtrDiff, a: r, b: a, c: b, aux: elemStride(tl.Elem)})
			tc.ta.popP()
			tc.ta.popP()
			return r
		}
		panic(tapeBail{})
	}
	a := tc.integer(x.X)
	b := tc.integer(x.Y)
	var op topcode
	switch x.Op {
	case token.ADD:
		op = tAddI
	case token.SUB:
		op = tSubI
	case token.MUL:
		op = tMulI
	case token.QUO:
		op = tDivI
	case token.REM:
		op = tRemI
	case token.AND:
		op = tAndI
	case token.OR:
		op = tOrI
	case token.XOR:
		op = tXorI
	case token.SHL:
		op = tShlI
	case token.SHR:
		op = tShrI
	default:
		panic(tapeBail{})
	}
	tc.emit(tinstr{op: op, a: a, b: a, c: b})
	tc.ta.popI()
	return a
}

func (tc *tapeCompiler) compare(x *ast.BinaryExpr) int32 {
	fc := tc.fc
	tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
	if tl.IsPtr() && tr.IsPtr() {
		a := tc.ptrExpr(x.X)
		b := tc.ptrExpr(x.Y)
		r := tc.ta.allocI()
		var op topcode
		switch x.Op {
		case token.EQL:
			op = tPtrEq
		case token.NEQ:
			op = tPtrNe
		case token.LSS:
			op = tPtrLt
		case token.LEQ:
			op = tPtrLe
		case token.GTR:
			op = tPtrGt
		case token.GEQ:
			op = tPtrGe
		}
		tc.emit(tinstr{op: op, a: r, b: a, c: b})
		tc.ta.popP()
		tc.ta.popP()
		return r
	}
	if tl.Kind == types.Float || tr.Kind == types.Float {
		a := tc.num(x.X)
		b := tc.num(x.Y)
		r := tc.ta.allocI()
		var op topcode
		switch x.Op {
		case token.EQL:
			op = tEqF
		case token.NEQ:
			op = tNeF
		case token.LSS:
			op = tLtF
		case token.LEQ:
			op = tLeF
		case token.GTR:
			op = tGtF
		case token.GEQ:
			op = tGeF
		}
		tc.emit(tinstr{op: op, a: r, b: a, c: b})
		tc.ta.popF()
		tc.ta.popF()
		return r
	}
	a := tc.integer(x.X)
	b := tc.integer(x.Y)
	var op topcode
	switch x.Op {
	case token.EQL:
		op = tEqI
	case token.NEQ:
		op = tNeI
	case token.LSS:
		op = tLtI
	case token.LEQ:
		op = tLeI
	case token.GTR:
		op = tGtI
	case token.GEQ:
		op = tGeI
	}
	tc.emit(tinstr{op: op, a: a, b: a, c: b})
	tc.ta.popI()
	return a
}

func (tc *tapeCompiler) intUnary(x *ast.UnaryExpr) int32 {
	switch x.Op {
	case token.SUB:
		a := tc.integer(x.X)
		tc.emit(tinstr{op: tNegI, a: a, b: a})
		return a
	case token.NOT:
		a := tc.test(x.X)
		tc.emit(tinstr{op: tNotI, a: a, b: a})
		return a
	case token.TILDE:
		a := tc.integer(x.X)
		tc.emit(tinstr{op: tCmplI, a: a, b: a})
		return a
	case token.MUL:
		p := tc.addr(x)
		r := tc.ta.allocI()
		tc.emit(tinstr{op: tLdInd, a: r, b: p})
		tc.ta.popP()
		return r
	case token.INC, token.DEC:
		// pre-increment yields the new value
		lv := tc.lval(x.X, tkI)
		v := tc.get(lv)
		delta := int64(1)
		if x.Op == token.DEC {
			delta = -1
		}
		d := tc.loadConstI(delta)
		tc.emit(tinstr{op: tAddI, a: v, b: v, c: d})
		tc.ta.popI()
		tc.set(lv, v)
		return v
	}
	panic(tapeBail{})
}

func (tc *tapeCompiler) flt(e ast.Expr) int32 {
	fc := tc.fc
	switch x := e.(type) {
	case *ast.FloatLit:
		return tc.loadConstF(x.Value)
	case *ast.IntLit:
		return tc.loadConstF(float64(x.Value))
	case *ast.Ident:
		sym := fc.symOf(x)
		sl, global := fc.slotOf(sym, x)
		r := tc.ta.allocF()
		if global {
			tc.emit(tinstr{op: tLdGF, a: r, b: int32(sl.idx)})
		} else {
			tc.emit(tinstr{op: tMovF, a: r, b: int32(sl.idx)})
		}
		return r
	case *ast.ParenExpr:
		return tc.flt(x.X)
	case *ast.BinaryExpr:
		a := tc.num(x.X)
		b := tc.num(x.Y)
		var op topcode
		switch x.Op {
		case token.ADD:
			op = tAddF
		case token.SUB:
			op = tSubF
		case token.MUL:
			op = tMulF
		case token.QUO:
			op = tDivF
		default:
			panic(tapeBail{})
		}
		tc.emit(tinstr{op: op, a: a, b: a, c: b})
		tc.ta.popF()
		return a
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			a := tc.num(x.X)
			tc.emit(tinstr{op: tNegF, a: a, b: a})
			return a
		case token.MUL:
			p := tc.addr(x)
			r := tc.ta.allocF()
			tc.emit(tinstr{op: tLdIndF, a: r, b: p})
			tc.ta.popP()
			return r
		case token.INC, token.DEC:
			// no float32 rounding on ++/--, matching the closure backend
			lv := tc.lval(x.X, tkF)
			v := tc.get(lv)
			d := 1.0
			if x.Op == token.DEC {
				d = -1
			}
			dr := tc.loadConstF(d)
			tc.emit(tinstr{op: tAddF, a: v, b: v, c: dr})
			tc.ta.popF()
			tc.set(lv, v)
			return v
		}
		panic(tapeBail{})
	case *ast.PostfixExpr:
		lv := tc.lval(x.X, tkF)
		v := tc.get(lv)
		d := 1.0
		if x.Op == token.DEC {
			d = -1
		}
		dr := tc.loadConstF(d)
		nv := tc.ta.allocF()
		tc.emit(tinstr{op: tAddF, a: nv, b: v, c: dr})
		tc.set(lv, nv)
		tc.ta.popF() // nv
		tc.ta.popF() // dr
		return v
	case *ast.AssignExpr:
		panic(tapeBail{})
	case *ast.CondExpr:
		r := tc.ta.allocF()
		c := tc.test(x.Cond)
		jz := tc.emit(tinstr{op: tJz, b: c})
		tc.ta.popI()
		a := tc.num(x.Then)
		tc.emit(tinstr{op: tMovF, a: r, b: a})
		tc.ta.popF()
		jmp := tc.emit(tinstr{op: tJmp})
		tc.patch(jz)
		b := tc.num(x.Else)
		tc.emit(tinstr{op: tMovF, a: r, b: b})
		tc.ta.popF()
		tc.patch(jmp)
		return r
	case *ast.IndexExpr, *ast.MemberExpr:
		p := tc.addr(e)
		r := tc.ta.allocF()
		tc.emit(tinstr{op: tLdIndF, a: r, b: p})
		tc.ta.popP()
		return r
	case *ast.CastExpr:
		inner := fc.typeOf(x.X)
		if inner.Kind == types.Float {
			f := tc.flt(x.X)
			if fc.typeOf(x).CSize == 4 {
				// (float) cast of a double rounds through float32 like C.
				tc.emit(tinstr{op: tRoundF, a: f, b: f})
			}
			return f
		}
		g := tc.integer(x.X)
		tc.ta.popI()
		r := tc.ta.allocF()
		tc.emit(tinstr{op: tI2F, a: r, b: g})
		if fc.typeOf(x).CSize == 4 {
			tc.emit(tinstr{op: tRoundF, a: r, b: r})
		}
		return r
	case *ast.CallExpr:
		if inl, ok := fc.inlineCall(x); ok {
			return tc.flt(inl)
		}
		return tc.callF(fc.callFlt(x))
	}
	panic(tapeBail{})
}

func (tc *tapeCompiler) ptrExpr(e ast.Expr) int32 {
	fc := tc.fc
	switch x := e.(type) {
	case *ast.Ident:
		sl, global := fc.slotOf(fc.symOf(x), x)
		r := tc.ta.allocP()
		if global {
			tc.emit(tinstr{op: tLdGP, a: r, b: int32(sl.idx)})
		} else {
			tc.emit(tinstr{op: tMovP, a: r, b: int32(sl.idx)})
		}
		return r
	case *ast.ParenExpr:
		return tc.ptrExpr(x.X)
	case *ast.IndexExpr:
		if r, ok := tc.partialArrayIndex(x); ok {
			return r
		}
		p := tc.addr(x)
		tc.emit(tinstr{op: tLdIndP, a: p, b: p})
		return p
	case *ast.MemberExpr:
		// array field decays to a pointer; pointer field loads
		_, fld := fc.fieldOf(x)
		base := tc.structBase(x)
		tc.emit(tinstr{op: tPtrImm, a: base, b: base, aux: int64(fld.Offset)})
		if fld.Count <= 1 {
			tc.emit(tinstr{op: tLdIndP, a: base, b: base})
		}
		return base
	case *ast.CastExpr:
		if call, ok := stripParens(x.X).(*ast.CallExpr); ok && call.Fun.Name == "malloc" {
			return tc.callP(fc.mallocCall(x, call))
		}
		inner := fc.typeOf(x.X)
		if inner.Kind == types.Ptr {
			return tc.ptrExpr(x.X)
		}
		if inner.Kind == types.Int {
			g := tc.integer(x.X)
			tc.ta.popI()
			r := tc.ta.allocP()
			tc.emit(tinstr{op: tIntToPtr, a: r, b: g})
			return r
		}
		panic(tapeBail{})
	case *ast.BinaryExpr:
		tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
		switch {
		case tl.IsPtr() && tr.Kind == types.Int:
			p := tc.ptrExpr(x.X)
			i := tc.integer(x.Y)
			op := tPtrAdd
			if x.Op == token.SUB {
				op = tPtrSub
			}
			tc.emit(tinstr{op: op, a: p, b: p, c: i, aux: elemStride(tl.Elem)})
			tc.ta.popI()
			return p
		case tr.IsPtr() && tl.Kind == types.Int && x.Op == token.ADD:
			// i + p: the closure backend evaluates the pointer first
			p := tc.ptrExpr(x.Y)
			i := tc.integer(x.X)
			tc.emit(tinstr{op: tPtrAdd, a: p, b: p, c: i, aux: elemStride(tr.Elem)})
			tc.ta.popI()
			return p
		}
		panic(tapeBail{})
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return tc.addr(x.X)
		case token.MUL:
			p := tc.addr(x)
			tc.emit(tinstr{op: tLdIndP, a: p, b: p})
			return p
		}
		panic(tapeBail{})
	case *ast.CondExpr:
		r := tc.ta.allocP()
		c := tc.test(x.Cond)
		jz := tc.emit(tinstr{op: tJz, b: c})
		tc.ta.popI()
		a := tc.ptrExpr(x.Then)
		tc.emit(tinstr{op: tMovP, a: r, b: a})
		tc.ta.popP()
		jmp := tc.emit(tinstr{op: tJmp})
		tc.patch(jz)
		b := tc.ptrExpr(x.Else)
		tc.emit(tinstr{op: tMovP, a: r, b: b})
		tc.ta.popP()
		tc.patch(jmp)
		return r
	case *ast.AssignExpr:
		panic(tapeBail{})
	case *ast.CallExpr:
		if x.Fun.Name == "malloc" {
			panic(tapeBail{}) // closure backend reports the cast diagnostic
		}
		if inl, ok := fc.inlineCall(x); ok {
			return tc.ptrExpr(inl)
		}
		return tc.callP(fc.callPtr(x))
	case *ast.IntLit:
		if x.Value == 0 {
			r := tc.ta.allocP()
			tc.emit(tinstr{op: tNullP, a: r})
			return r
		}
		panic(tapeBail{})
	case *ast.StringLit:
		// the closure materializes the segment at compile time
		return tc.callP(fc.ptr(e))
	}
	panic(tapeBail{})
}

// partialArrayIndex mirrors the closure backend's row-pointer rule for
// under-subscripted multi-dimensional arrays.
func (tc *tapeCompiler) partialArrayIndex(x *ast.IndexExpr) (int32, bool) {
	fc := tc.fc
	subs, base := collectSubs(x)
	id, ok := base.(*ast.Ident)
	if !ok {
		return 0, false
	}
	sym := fc.prog.info.Ref[id]
	if sym == nil || !sym.IsArray() || len(subs) >= len(sym.Dims) {
		return 0, false
	}
	p := tc.ptrExpr(id)
	off := tc.flatOffset(sym, subs)
	stride := int64(1)
	for _, d := range sym.Dims[len(subs):] {
		stride *= int64(d)
	}
	tc.emit(tinstr{op: tPtrIdx, a: p, b: p, c: off, aux: stride})
	tc.ta.popI()
	return p, true
}

// flatOffset emits the row-major offset of the subscripts, evaluating
// them left to right like the closure backend.
func (tc *tapeCompiler) flatOffset(sym *sema.Symbol, subs []ast.Expr) int32 {
	if len(subs) == 1 {
		return tc.integer(subs[0])
	}
	acc := tc.loadConstI(0)
	for i := range subs {
		stride := int64(1)
		for _, d := range sym.Dims[i+1 : len(subs)] {
			stride *= int64(d)
		}
		f := tc.integer(subs[i])
		s := tc.loadConstI(stride)
		tc.emit(tinstr{op: tMulI, a: f, b: f, c: s})
		tc.emit(tinstr{op: tAddI, a: acc, b: acc, c: f})
		tc.ta.popI() // s
		tc.ta.popI() // f
	}
	return acc
}

// addr emits the address of an lvalue cell into a pointer register.
func (tc *tapeCompiler) addr(e ast.Expr) int32 {
	fc := tc.fc
	switch x := e.(type) {
	case *ast.ParenExpr:
		return tc.addr(x.X)
	case *ast.IndexExpr:
		subs, base := collectSubs(x)
		if id, ok := base.(*ast.Ident); ok {
			sym := fc.symOf(id)
			if sym.IsArray() && len(subs) == len(sym.Dims) {
				p := tc.ptrExpr(id)
				off := tc.flatOffset(sym, subs)
				tc.emit(tinstr{op: tPtrOff, a: p, b: p, c: off})
				tc.ta.popI()
				return p
			}
		}
		bt := fc.typeOf(x.X)
		if !bt.IsPtr() {
			panic(tapeBail{})
		}
		p := tc.ptrExpr(x.X)
		i := tc.integer(x.Index)
		tc.emit(tinstr{op: tPtrIdx, a: p, b: p, c: i, aux: elemStride(bt.Elem)})
		tc.ta.popI()
		return p
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return tc.ptrExpr(x.X)
		}
		panic(tapeBail{})
	case *ast.MemberExpr:
		_, fld := fc.fieldOf(x)
		base := tc.structBase(x)
		tc.emit(tinstr{op: tPtrImm, a: base, b: base, aux: int64(fld.Offset)})
		return base
	case *ast.Ident:
		sym := fc.symOf(x)
		if sym.IsArray() || (sym.Type != nil && sym.Type.Kind == types.Struct) {
			return tc.ptrExpr(x)
		}
		panic(tapeBail{}) // scalar address-of is a closure-side diagnostic
	}
	panic(tapeBail{})
}

func (tc *tapeCompiler) structBase(x *ast.MemberExpr) int32 {
	if x.Arrow {
		return tc.ptrExpr(x.X)
	}
	return tc.addrOfStruct(x.X)
}

func (tc *tapeCompiler) addrOfStruct(e ast.Expr) int32 {
	switch x := e.(type) {
	case *ast.Ident:
		return tc.ptrExpr(x)
	case *ast.ParenExpr:
		return tc.addrOfStruct(x.X)
	case *ast.IndexExpr:
		return tc.addr(x)
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return tc.ptrExpr(x.X)
		}
	case *ast.MemberExpr:
		_, fld := tc.fc.fieldOf(x)
		base := tc.structBase(x)
		tc.emit(tinstr{op: tPtrImm, a: base, b: base, aux: int64(fld.Offset)})
		return base
	}
	panic(tapeBail{})
}

// ----------------------------------------------------------------------------
// Lvalues. get emits a load into a fresh register; set emits the store
// of a source register. Non-identifier lvalues compute their address
// independently in get and set — exactly the closure backend's
// behavior for compound assignment and ++/--.

// tlval is an lvalue of one slot kind: a frame or global slot, or the
// address expression e.
type tlval struct {
	e      ast.Expr
	kind   int
	slot   int32
	global bool
}

// lvalOps are the access opcodes of one slot kind.
var lvalOps = [3]struct{ ldG, stG, mov, ldInd, stInd topcode }{
	tkI: {tLdGI, tStGI, tMovI, tLdInd, tStInd},
	tkF: {tLdGF, tStGF, tMovF, tLdIndF, tStIndF},
	tkP: {tLdGP, tStGP, tMovP, tLdIndP, tStIndP},
}

func (tc *tapeCompiler) lval(e ast.Expr, kind int) tlval {
	if x, ok := stripParens(e).(*ast.Ident); ok {
		sl, global := tc.fc.slotOf(tc.fc.symOf(x), x)
		return tlval{kind: kind, slot: int32(sl.idx), global: global}
	}
	return tlval{e: e, kind: kind}
}

func (tc *tapeCompiler) get(lv tlval) int32 {
	ops := &lvalOps[lv.kind]
	if lv.e == nil {
		r := tc.ta.alloc(lv.kind)
		op := ops.mov
		if lv.global {
			op = ops.ldG
		}
		tc.emit(tinstr{op: op, a: r, b: lv.slot})
		return r
	}
	p := tc.addr(lv.e)
	if lv.kind == tkP {
		// The loaded pointer replaces its address in the same register.
		tc.emit(tinstr{op: ops.ldInd, a: p, b: p})
		return p
	}
	r := tc.ta.alloc(lv.kind)
	tc.emit(tinstr{op: ops.ldInd, a: r, b: p})
	tc.ta.popP()
	return r
}

func (tc *tapeCompiler) set(lv tlval, src int32) {
	ops := &lvalOps[lv.kind]
	switch {
	case lv.e != nil:
		p := tc.addr(lv.e)
		tc.emit(tinstr{op: ops.stInd, a: p, b: src})
		tc.ta.popP()
	case lv.global:
		tc.emit(tinstr{op: ops.stG, a: lv.slot, b: src})
	default:
		tc.emit(tinstr{op: ops.mov, a: lv.slot, b: src})
	}
}

// assignEffect compiles a statement-context assignment. (Assignment in
// expression-value context bails: the closure backend re-evaluates the
// RHS there, and the tape must not paper over that.)
func (tc *tapeCompiler) assignEffect(x *ast.AssignExpr) {
	fc := tc.fc
	tl := fc.typeOf(x.LHS)
	switch tl.Kind {
	case types.Float:
		lv := tc.lval(x.LHS, tkF)
		var v int32
		if bin, ok := x.Op.AssignBinOp(); ok {
			v = tc.get(lv)
			r := tc.num(x.RHS)
			var op topcode
			switch bin {
			case token.ADD:
				op = tAddF
			case token.SUB:
				op = tSubF
			case token.MUL:
				op = tMulF
			case token.QUO:
				op = tDivF
			default:
				panic(tapeBail{})
			}
			tc.emit(tinstr{op: op, a: v, b: v, c: r})
			tc.ta.popF()
		} else {
			v = tc.num(x.RHS)
		}
		// C float (4 bytes) rounds every stored value through float32.
		if tl.CSize == 4 {
			tc.emit(tinstr{op: tRoundF, a: v, b: v})
		}
		tc.set(lv, v)
		tc.ta.popF()
	case types.Ptr:
		lv := tc.lval(x.LHS, tkP)
		var v int32
		if bin, ok := x.Op.AssignBinOp(); ok {
			v = tc.get(lv)
			r := tc.integer(x.RHS)
			op := tPtrAdd
			switch bin {
			case token.ADD:
				op = tPtrAdd
			case token.SUB:
				op = tPtrSub
			default:
				panic(tapeBail{})
			}
			tc.emit(tinstr{op: op, a: v, b: v, c: r, aux: elemStride(tl.Elem)})
			tc.ta.popI()
		} else {
			v = tc.ptrExpr(x.RHS)
		}
		tc.set(lv, v)
		tc.ta.popP()
	default:
		lv := tc.lval(x.LHS, tkI)
		var v int32
		if bin, ok := x.Op.AssignBinOp(); ok {
			if bin == token.QUO || bin == token.REM {
				// The closure backend evaluates the divisor first and
				// traps on zero before the accumulator load.
				r := tc.integer(x.RHS)
				chk, op := tChkDiv0, tDivI
				if bin == token.REM {
					chk, op = tChkRem0, tRemI
				}
				tc.emit(tinstr{op: chk, b: r})
				v = tc.get(lv)
				tc.emit(tinstr{op: op, a: v, b: v, c: r})
				tc.set(lv, v)
				tc.ta.popI() // v
				tc.ta.popI() // r
				return
			}
			v = tc.get(lv)
			r := tc.integer(x.RHS)
			var op topcode
			switch bin {
			case token.ADD:
				op = tAddI
			case token.SUB:
				op = tSubI
			case token.MUL:
				op = tMulI
			case token.AND:
				op = tAndI
			case token.OR:
				op = tOrI
			case token.XOR:
				op = tXorI
			case token.SHL:
				op = tShlI
			case token.SHR:
				op = tShrI
			default:
				panic(tapeBail{})
			}
			tc.emit(tinstr{op: op, a: v, b: v, c: r})
			tc.ta.popI()
		} else {
			v = tc.integer(x.RHS)
		}
		tc.set(lv, v)
		tc.ta.popI()
	}
}

// effect compiles an expression statement for its side effects.
func (tc *tapeCompiler) effect(e ast.Expr) {
	fc := tc.fc
	switch x := e.(type) {
	case *ast.AssignExpr:
		tc.assignEffect(x)
	case *ast.CallExpr:
		fn := fc.callEffect(x)
		idx := int32(len(tc.tp.effFns))
		tc.tp.effFns = append(tc.tp.effFns, fn)
		tc.emit(tinstr{op: tEff, b: idx})
	case *ast.ParenExpr:
		tc.effect(x.X)
	default:
		switch fc.typeOf(e).Kind {
		case types.Float:
			tc.flt(e)
			tc.ta.popF()
		case types.Ptr:
			tc.ptrExpr(e)
			tc.ta.popP()
		default:
			tc.intExpr(e)
			tc.ta.popI()
		}
	}
}
