package comp

// The tape compiler walks the checked AST and emits tinstr words. It is
// total over what comp accepts: every statement and expression either
// becomes tape code or is a compile error. Operands evaluate in the
// interp oracle's order; where two orders are indistinguishable the
// emitter picks the one the peephole optimizer fuses best (an
// assignment's address after its right side, see pinned).
//
// Register discipline: every expression emitter nets exactly one new
// temp register of its result kind, at the top of that kind's stack as
// it stood on entry; operand registers pop as soon as the consuming
// instruction is emitted.

import (
	"sync"

	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

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

// pop frees the top temp register of the slot kind.
func (ta *tapeAlloc) pop(kind int) {
	switch kind {
	case tkI:
		ta.tI--
	case tkF:
		ta.tF--
	default:
		ta.tP--
	}
}

// level returns the next free register of each kind.
func (ta *tapeAlloc) level() [3]int32 {
	return [3]int32{int32(ta.baseI + ta.tI), int32(ta.baseF + ta.tF), int32(ta.baseP + ta.tP)}
}

// restore frees every register allocated since level l.
func (ta *tapeAlloc) restore(l [3]int32) {
	ta.tI, ta.tF, ta.tP = int(l[tkI])-ta.baseI, int(l[tkF])-ta.baseF, int(l[tkP])-ta.baseP
}

// regSpan is the block of registers a site op reads: n[k] consecutive
// registers of kind k from first[k] — a call's or printf's arguments in
// order, a launch's bounds and kernel operands.
type regSpan struct{ first, n [3]int32 }

// span returns the registers allocated since level from.
func (ta *tapeAlloc) span(from [3]int32) regSpan {
	to := ta.level()
	return regSpan{first: from, n: [3]int32{to[0] - from[0], to[1] - from[1], to[2] - from[2]}}
}

// tapeLoopCtx collects the pending break/continue jumps of one open
// tape loop or switch (whose continues belong to the enclosing loop).
type tapeLoopCtx struct {
	breaks, conts []int
	sw            bool
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
// the backing of the program's pools and the optimizer's arrays.
// Finished tapes and pools are copied out at exact size, so the Program
// never references the scratch.
type tapeScratch struct {
	tcs   []*tapeCompiler
	depth int
	ta    tapeAlloc
	pools *tapePools
	free  tapePools // emptied pool buffers and cleared dedup indexes
	tapes []*tape   // the program's finished tapes, in compile order
	opt   tlive
}

var tapeScratchPool = sync.Pool{New: func() any {
	return &tapeScratch{free: tapePools{cI: map[int64]int32{}, cF: map[uint64]int32{}}}
}}

// start opens the program's pools on the scratch buffers.
func (sc *tapeScratch) start() {
	clear(sc.free.cI)
	clear(sc.free.cF)
	sc.depth, sc.tapes = 0, sc.tapes[:0]
	p := sc.free
	sc.pools = &p
}

// finish gives the program's pools their exact size, takes the buffers
// back and hands the pools and tapes to p.
func (sc *tapeScratch) finish(p *Program) {
	pl, f := sc.pools, &sc.free
	f.constI, f.constF, f.constP = settle(&pl.constI), settle(&pl.constF), settle(&pl.constP)
	f.calls, f.printfs = settle(&pl.calls), settle(&pl.printfs)
	f.mallocs, f.launches = settle(&pl.mallocs), settle(&pl.launches)
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

// compileTapeBody compiles the function body.
func (fc *funcCompiler) compileTapeBody() {
	sc := fc.scratch
	sc.ta = tapeAlloc{baseI: fc.cf.nI, baseF: fc.cf.nF, baseP: fc.cf.nP}
	fc.talloc = &sc.ta
	fc.cf.tape = fc.newTape(fc.cf.decl.Body)
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

// loopBody compiles a parallel-loop body over iterator slot slot into a
// nested tape sharing the function's temp registers (all temps are dead
// at the region boundary, and worker clones copy the extended frame),
// run once per range.
func (fc *funcCompiler) loopBody(s ast.Stmt, slot int) loopFn {
	saved := fc.talloc.level()
	tp := fc.newTape(s)
	fc.talloc.restore(saved)
	return func(e *env, lo, hi int64, chunk bool) ctrl {
		mode := runRange
		if chunk {
			mode = runChunk
		}
		return tp.run(e, mode, slot, lo, hi)
	}
}

// pushLoop opens a loop's (or a switch's) break/continue context,
// reusing the one this nesting level held last.
func (tc *tapeCompiler) pushLoop(sw bool) *tapeLoopCtx {
	n := len(tc.loops)
	var ctx *tapeLoopCtx
	if n < cap(tc.loops) {
		ctx = tc.loops[:n+1][n]
	}
	if ctx == nil {
		ctx = &tapeLoopCtx{}
	}
	ctx.breaks, ctx.conts, ctx.sw = ctx.breaks[:0], ctx.conts[:0], sw
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

func (tc *tapeCompiler) patchList(ps []int, target int) {
	for _, pc := range ps {
		tc.tp.code[pc].a = int32(target - pc)
	}
}

// jumpTo emits an instruction whose jump lands at target.
func (tc *tapeCompiler) jumpTo(in tinstr, target int) {
	pc := tc.emit(in)
	tc.tp.code[pc].a = int32(target - pc)
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

// ----------------------------------------------------------------------------
// Statements

func (tc *tapeCompiler) stmt(s ast.Stmt) {
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
		tc.seqFor(x, tc.fc.matchLoop(x))
	case *ast.WhileStmt:
		lcond := tc.here()
		r := tc.test(x.Cond)
		jz := tc.emit(tinstr{op: tJz, b: r})
		tc.ta.popI()
		ctx := tc.pushLoop(false)
		tc.stmt(x.Body)
		tc.popLoop()
		tc.jumpTo(tinstr{op: tJmp}, lcond)
		tc.patch(jz)
		tc.patchList(ctx.breaks, tc.here())
		tc.patchList(ctx.conts, lcond)
	case *ast.DoStmt:
		lbody := tc.here()
		ctx := tc.pushLoop(false)
		tc.stmt(x.Body)
		tc.popLoop()
		lcond := tc.here()
		r := tc.test(x.Cond)
		tc.jumpTo(tinstr{op: tJnz, b: r}, lbody)
		tc.ta.popI()
		tc.patchList(ctx.breaks, tc.here())
		tc.patchList(ctx.conts, lcond)
	case *ast.ReturnStmt:
		tc.tapeReturn(x)
	case *ast.BreakStmt:
		if n := len(tc.loops); n > 0 {
			ctx := tc.loops[n-1]
			ctx.breaks = append(ctx.breaks, tc.emit(tinstr{op: tJmp}))
		} else {
			tc.emit(tinstr{op: tBrk})
		}
	case *ast.ContinueStmt:
		for i := len(tc.loops) - 1; i >= 0; i-- {
			if ctx := tc.loops[i]; !ctx.sw {
				ctx.conts = append(ctx.conts, tc.emit(tinstr{op: tJmp}))
				return
			}
		}
		tc.emit(tinstr{op: tCont})
	case *ast.SwitchStmt:
		tc.tapeSwitch(x)
	default:
		tc.fc.errorf(s, "unsupported statement %T", s)
	}
}

// stmtList compiles a statement list; an omp parallel-for pragma plus
// the loop it annotates becomes a region launch (stmt.go).
func (tc *tapeCompiler) stmtList(list []ast.Stmt) {
	for i := 0; i < len(list); i++ {
		s := list[i]
		if _, ok := s.(*ast.PragmaStmt); ok {
			if f, r := tc.fc.ompLoop(list, i); r != nil {
				tc.parallelRegion(f, r)
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
			fc.errorf(d, "declaration of %s has no symbol", d.Name)
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
				fc.errorf(d, "array/struct initializers are not supported")
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
		fc.errorf(x, "value returned from void function")
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

// seqFor compiles a sequential for loop given its match: the fused
// kernel's launch where the matcher found one, otherwise a rotated
// loop — entry test, body, post, bottom test jumping back. The
// condition compiles twice but evaluates once per round exactly as the
// top-test form does (entry + one per iteration), so side effects and
// traps keep their order, and the hot path pays one taken branch per
// iteration instead of two.
func (tc *tapeCompiler) seqFor(x *ast.ForStmt, lk loopKernel) {
	if lk.run != nil {
		kern, iter := tc.fc.fused(lk), lk.iterSlot
		// The dispatch loop leaves the first failing iterator value in
		// the slot: hi+1 here, lo on the empty path (launchLoop).
		tc.launchLoop(&lk.canonicalLoop, lk.k, func(e *env, lo, hi int64) ctrl {
			kern(e, lo, hi)
			e.I[iter] = hi + 1
			return ctrlNext
		}, true)
		return
	}
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
	ctx := tc.pushLoop(false)
	tc.stmt(x.Body)
	tc.popLoop()
	lpost := tc.here()
	if x.Post != nil {
		tc.effect(x.Post)
	}
	if x.Cond != nil {
		r := tc.test(x.Cond)
		tc.jumpTo(tinstr{op: tJnz, b: r}, lbody)
		tc.ta.popI()
	} else {
		tc.jumpTo(tinstr{op: tJmp}, lbody)
	}
	if jz >= 0 {
		tc.patch(jz)
	}
	tc.patchList(ctx.breaks, tc.here())
	tc.patchList(ctx.conts, lpost)
}

// tapeSwitch compiles a switch into a compare chain over the tag
// (cases in source order, the first equal label wins, then default),
// followed by the case bodies in source order, so execution falls
// through from the selected case until a break.
func (tc *tapeCompiler) tapeSwitch(x *ast.SwitchStmt) {
	fc := tc.fc
	tag := tc.integer(x.Tag)
	jumps := make([]int, len(x.Cases))
	deflt := -1
	for i, c := range x.Cases {
		if c.Value == nil {
			if deflt < 0 {
				deflt = i
			}
			continue
		}
		v, ok := sema.ConstInt(c.Value)
		if !ok {
			fc.errorf(c, "case label must be constant")
		}
		k := tc.loadConstI(v)
		tc.emit(tinstr{op: tEqI, a: k, b: tag, c: k})
		jumps[i] = tc.emit(tinstr{op: tJnz, b: k})
		tc.ta.popI()
	}
	tc.ta.popI()
	miss := tc.emit(tinstr{op: tJmp})
	ctx := tc.pushLoop(true)
	for i, c := range x.Cases {
		switch {
		case i == deflt:
			tc.patch(miss)
		case c.Value != nil:
			tc.patch(jumps[i])
		}
		tc.stmtList(c.Body)
	}
	tc.popLoop()
	if deflt < 0 {
		tc.patch(miss)
	}
	tc.patchList(ctx.breaks, tc.here())
}

// ----------------------------------------------------------------------------
// Expressions

// test compiles any scalar expression into an int register that is
// nonzero iff the expression is true in C.
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
		return tc.incdec(x.X, x.Op, true, tkI)
	case *ast.AssignExpr:
		return tc.assign(x)
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
		tc.ta.popP()
		r := tc.ta.allocI()
		tc.emit(tinstr{op: tLdInd, a: r, b: p})
		return r
	case *ast.CastExpr:
		t := fc.typeOf(x)
		if t.Kind != types.Int {
			fc.errorf(e, "unsupported cast to %s in integer context", t)
		}
		if fc.typeOf(x.X).Kind == types.Float {
			f := tc.flt(x.X)
			tc.ta.popF()
			r := tc.ta.allocI()
			tc.emit(tinstr{op: tF2I, a: r, b: f})
			return r
		}
		return tc.intExpr(x.X)
	case *ast.SizeofExpr:
		return tc.loadConstI(fc.sizeofValue(x))
	case *ast.CallExpr:
		return tc.callInt(x)
	case *ast.StringLit:
		fc.errorf(e, "string literal in integer context")
	}
	fc.errorf(e, "unsupported integer expression %T", e)
	return 0
}

// Opcodes of the integer and float binary operators.
var (
	intOps = map[token.Kind]topcode{
		token.ADD: tAddI, token.SUB: tSubI, token.MUL: tMulI, token.QUO: tDivI,
		token.REM: tRemI, token.AND: tAndI, token.OR: tOrI, token.XOR: tXorI,
		token.SHL: tShlI, token.SHR: tShrI,
	}
	fltOps = map[token.Kind]topcode{
		token.ADD: tAddF, token.SUB: tSubF, token.MUL: tMulF, token.QUO: tDivF,
	}
	// cmpOps holds the int, float and pointer compare of each operator.
	cmpOps = map[token.Kind][3]topcode{
		token.EQL: {tEqI, tEqF, tPtrEq}, token.NEQ: {tNeI, tNeF, tPtrNe},
		token.LSS: {tLtI, tLtF, tPtrLt}, token.LEQ: {tLeI, tLeF, tPtrLe},
		token.GTR: {tGtI, tGtF, tPtrGt}, token.GEQ: {tGeI, tGeF, tPtrGe},
	}
)

func (tc *tapeCompiler) intBinary(x *ast.BinaryExpr) int32 {
	fc := tc.fc
	switch x.Op {
	case token.LAND, token.LOR:
		// The result is !and (resp. or) until both tests pass (fail).
		and := x.Op == token.LAND
		jop := tJnz
		if and {
			jop = tJz
		}
		r := tc.ta.allocI()
		a := tc.test(x.X)
		j1 := tc.emit(tinstr{op: jop, b: a})
		tc.ta.popI()
		b := tc.test(x.Y)
		j2 := tc.emit(tinstr{op: jop, b: b})
		tc.ta.popI()
		tc.emit(tinstr{op: tConstI, a: r, b: tc.tp.constIdxI(b2i(and))})
		jend := tc.emit(tinstr{op: tJmp})
		tc.patch(j1)
		tc.patch(j2)
		tc.emit(tinstr{op: tConstI, a: r, b: tc.tp.constIdxI(b2i(!and))})
		tc.patch(jend)
		return r
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return tc.compare(x)
	}
	tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
	if tl.IsPtr() || tr.IsPtr() {
		if x.Op != token.SUB || !tl.IsPtr() || !tr.IsPtr() {
			fc.errorf(x, "invalid pointer arithmetic in integer context")
		}
		a := tc.ptrExpr(x.X)
		b := tc.ptrExpr(x.Y)
		tc.ta.popP()
		tc.ta.popP()
		r := tc.ta.allocI()
		tc.emit(tinstr{op: tPtrDiff, a: r, b: a, c: b, aux: elemStride(tl.Elem)})
		return r
	}
	a := tc.integer(x.X)
	b := tc.integer(x.Y)
	op, ok := intOps[x.Op]
	if !ok {
		fc.errorf(x, "unsupported integer operator %s", x.Op)
	}
	tc.emit(tinstr{op: op, a: a, b: a, c: b})
	tc.ta.popI()
	return a
}

// compare compiles a comparison of arithmetic or pointer operands.
func (tc *tapeCompiler) compare(x *ast.BinaryExpr) int32 {
	fc := tc.fc
	ops := cmpOps[x.Op]
	tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
	switch {
	case tl.IsPtr() && tr.IsPtr():
		a := tc.ptrExpr(x.X)
		b := tc.ptrExpr(x.Y)
		tc.ta.popP()
		tc.ta.popP()
		r := tc.ta.allocI()
		tc.emit(tinstr{op: ops[tkP], a: r, b: a, c: b})
		return r
	case tl.Kind == types.Float || tr.Kind == types.Float:
		a := tc.num(x.X)
		b := tc.num(x.Y)
		tc.ta.popF()
		tc.ta.popF()
		r := tc.ta.allocI()
		tc.emit(tinstr{op: ops[tkF], a: r, b: a, c: b})
		return r
	}
	a := tc.integer(x.X)
	b := tc.integer(x.Y)
	tc.emit(tinstr{op: ops[tkI], a: a, b: a, c: b})
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
		tc.ta.popP()
		r := tc.ta.allocI()
		tc.emit(tinstr{op: tLdInd, a: r, b: p})
		return r
	case token.INC, token.DEC:
		return tc.incdec(x.X, x.Op, false, tkI)
	}
	tc.fc.errorf(x, "unsupported unary operator %s in integer context", x.Op)
	return 0
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
		op, ok := fltOps[x.Op]
		if !ok {
			fc.errorf(x, "unsupported float operator %s", x.Op)
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
			tc.ta.popP()
			r := tc.ta.allocF()
			tc.emit(tinstr{op: tLdIndF, a: r, b: p})
			return r
		case token.INC, token.DEC:
			return tc.incdec(x.X, x.Op, false, tkF)
		}
		fc.errorf(x, "unsupported unary %s in float context", x.Op)
	case *ast.PostfixExpr:
		return tc.incdec(x.X, x.Op, true, tkF)
	case *ast.AssignExpr:
		return tc.assign(x)
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
		tc.ta.popP()
		r := tc.ta.allocF()
		tc.emit(tinstr{op: tLdIndF, a: r, b: p})
		return r
	case *ast.CastExpr:
		var r int32
		if fc.typeOf(x.X).Kind == types.Float {
			r = tc.flt(x.X)
		} else {
			g := tc.integer(x.X)
			tc.ta.popI()
			r = tc.ta.allocF()
			tc.emit(tinstr{op: tI2F, a: r, b: g})
		}
		if fc.typeOf(x).CSize == 4 {
			// A conversion to float rounds through float32 like C.
			tc.emit(tinstr{op: tRoundF, a: r, b: r})
		}
		return r
	case *ast.CallExpr:
		return tc.callFlt(x)
	}
	fc.errorf(e, "unsupported float expression %T", e)
	return 0
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
		// Partial indexing of a multi-dimensional array yields a row
		// pointer; full indexing of a pointer-element array loads it.
		if r, ok := tc.partialArrayIndex(x); ok {
			return r
		}
		p := tc.addr(x)
		tc.emit(tinstr{op: tLdIndP, a: p, b: p})
		return p
	case *ast.MemberExpr:
		// An array field decays to a pointer; a pointer field loads.
		_, fld := fc.fieldOf(x)
		base := tc.structBase(x)
		tc.emit(tinstr{op: tPtrImm, a: base, b: base, aux: int64(fld.Offset)})
		if fld.Count <= 1 {
			tc.emit(tinstr{op: tLdIndP, a: base, b: base})
		}
		return base
	case *ast.CastExpr:
		if call, ok := stripParens(x.X).(*ast.CallExpr); ok && call.Fun.Name == "malloc" {
			return tc.malloc(x, call)
		}
		inner := fc.typeOf(x.X)
		switch inner.Kind {
		case types.Ptr:
			return tc.ptrExpr(x.X)
		case types.Int:
			// null-pointer constants
			g := tc.integer(x.X)
			tc.ta.popI()
			r := tc.ta.allocP()
			tc.emit(tinstr{op: tIntToPtr, a: r, b: g})
			return r
		}
		fc.errorf(x, "unsupported pointer cast from %s", inner)
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
			// i + p evaluates the pointer first
			p := tc.ptrExpr(x.Y)
			i := tc.integer(x.X)
			tc.emit(tinstr{op: tPtrAdd, a: p, b: p, c: i, aux: elemStride(tr.Elem)})
			tc.ta.popI()
			return p
		}
		fc.errorf(x, "unsupported pointer arithmetic")
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return tc.addr(x.X)
		case token.MUL:
			p := tc.addr(x)
			tc.emit(tinstr{op: tLdIndP, a: p, b: p})
			return p
		}
		fc.errorf(x, "unsupported unary %s in pointer context", x.Op)
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
		return tc.assign(x)
	case *ast.CallExpr:
		if x.Fun.Name == "malloc" {
			fc.errorf(x, "malloc must be cast to its target pointer type, e.g. (int*)malloc(n)")
		}
		return tc.callPtr(x)
	case *ast.IntLit:
		if x.Value != 0 {
			fc.errorf(e, "non-zero integer used as pointer")
		}
		r := tc.ta.allocP()
		tc.emit(tinstr{op: tNullP, a: r})
		return r
	case *ast.StringLit:
		return tc.stringLit(x)
	}
	fc.errorf(e, "unsupported pointer expression %T", e)
	return 0
}

// partialArrayIndex handles a[i] (or a[i][j]...) where a is a declared
// multi-dimensional array indexed with fewer subscripts than dimensions:
// the result is a row pointer into the flattened segment.
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

// flatOffset emits the row-major offset of the subscripts over the
// leading dims of sym, evaluating them left to right.
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
		// General chain: evaluate the base as a pointer, add the index.
		bt := fc.typeOf(x.X)
		if !bt.IsPtr() {
			fc.errorf(x, "indexing non-pointer")
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
		fc.errorf(x, "cannot take the address of scalar %s (frame storage)", x.Name)
	}
	fc.errorf(e, "expression is not addressable")
	return 0
}

// structBase emits the base pointer of a member access.
func (tc *tapeCompiler) structBase(x *ast.MemberExpr) int32 {
	if x.Arrow {
		return tc.ptrExpr(x.X)
	}
	// value access: the struct lives in a segment referenced by its slot
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
	tc.fc.errorf(e, "unsupported struct expression")
	return 0
}

// ----------------------------------------------------------------------------
// Lvalues and assignment. get emits a load into a fresh register; set
// emits the store of a source register.

// tlval is an lvalue of one slot kind: a frame or global slot, the
// address expression e (computed at each access), or, pinned, the
// address held in pointer register slot (computed once).
type tlval struct {
	e      ast.Expr
	kind   int
	slot   int32
	global bool
	pinned bool
}

// lvalOps are the access opcodes of one slot kind.
var lvalOps = [3]struct{ ldG, stG, mov, ldInd, stInd topcode }{
	tkI: {tLdGI, tStGI, tMovI, tLdInd, tStInd},
	tkF: {tLdGF, tStGF, tMovF, tLdIndF, tStIndF},
	tkP: {tLdGP, tStGP, tMovP, tLdIndP, tStIndP},
}

// kindOf is the register kind values of type t occupy.
func kindOf(t *types.Type) int {
	switch t.Kind {
	case types.Float:
		return tkF
	case types.Ptr:
		return tkP
	}
	return tkI
}

// lval resolves an lvalue. A pinned one computes its address now, into
// a pointer register the caller pops after the last access.
func (tc *tapeCompiler) lval(e ast.Expr, kind int, pin bool) tlval {
	if x, ok := stripParens(e).(*ast.Ident); ok {
		sl, global := tc.fc.slotOf(tc.fc.symOf(x), x)
		return tlval{kind: kind, slot: int32(sl.idx), global: global}
	}
	if pin {
		return tlval{kind: kind, slot: tc.addr(e), pinned: true}
	}
	return tlval{e: e, kind: kind}
}

// pinned reports whether the address of lvalue lhs must be computed once
// and before rhs (nil for ++/--), the oracle's order: when computing it
// has side effects, or when it and rhs could observe each other — rhs
// has side effects, or both can trap. Otherwise the address is computed
// at each access, after the right side, where the optimizer fuses it
// into the indexed load or store.
func (tc *tapeCompiler) pinned(lhs, rhs ast.Expr) bool {
	if _, ok := stripParens(lhs).(*ast.Ident); ok {
		return false
	}
	effects, traps := tc.fc.addrRisk(lhs)
	if effects || rhs == nil {
		return effects
	}
	reff, rtraps := tc.fc.risk(rhs)
	return reff || (traps && rtraps)
}

func (tc *tapeCompiler) get(lv tlval) int32 {
	r := tc.ta.alloc(lv.kind)
	tc.getInto(lv, r)
	return r
}

// getInto loads the lvalue into register dst.
func (tc *tapeCompiler) getInto(lv tlval, dst int32) {
	ops := &lvalOps[lv.kind]
	switch {
	case lv.pinned:
		tc.emit(tinstr{op: ops.ldInd, a: dst, b: lv.slot})
	case lv.e != nil:
		p := tc.addr(lv.e)
		tc.emit(tinstr{op: ops.ldInd, a: dst, b: p})
		tc.ta.popP()
	case lv.global:
		tc.emit(tinstr{op: ops.ldG, a: dst, b: lv.slot})
	default:
		tc.emit(tinstr{op: ops.mov, a: dst, b: lv.slot})
	}
}

func (tc *tapeCompiler) set(lv tlval, src int32) {
	ops := &lvalOps[lv.kind]
	switch {
	case lv.pinned:
		tc.emit(tinstr{op: ops.stInd, a: lv.slot, b: src})
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

// unpin frees a pinned lvalue's address register once the value v of
// kind is final; a pointer value moves down into it. It returns the
// register now holding v.
func (tc *tapeCompiler) unpin(lv tlval, v int32) int32 {
	if !lv.pinned {
		return v
	}
	if lv.kind == tkP {
		tc.emit(tinstr{op: tMovP, a: lv.slot, b: v})
		v = lv.slot
	}
	tc.ta.popP()
	return v
}

// assign compiles an assignment, storing once, and returns the register
// holding the stored value — the value of the assignment expression —
// of the left side's kind. A compound assignment evaluates the right
// side, then loads the current value, like the oracle.
func (tc *tapeCompiler) assign(x *ast.AssignExpr) int32 {
	fc := tc.fc
	tl := fc.typeOf(x.LHS)
	kind := kindOf(tl)
	lv := tc.lval(x.LHS, kind, tc.pinned(x.LHS, x.RHS))
	var v int32
	if bin, ok := x.Op.AssignBinOp(); ok {
		v = tc.ta.alloc(kind)
		var op topcode
		switch kind {
		case tkF:
			r := tc.num(x.RHS)
			tc.getInto(lv, v)
			if op, ok = fltOps[bin]; !ok {
				fc.errorf(x, "unsupported compound float assignment %s", x.Op)
			}
			tc.emit(tinstr{op: op, a: v, b: v, c: r})
			tc.ta.popF()
		case tkP:
			r := tc.integer(x.RHS)
			tc.getInto(lv, v)
			switch bin {
			case token.ADD:
				op = tPtrAdd
			case token.SUB:
				op = tPtrSub
			default:
				fc.errorf(x, "unsupported compound pointer assignment %s", x.Op)
			}
			tc.emit(tinstr{op: op, a: v, b: v, c: r, aux: elemStride(tl.Elem)})
			tc.ta.popI()
		default:
			r := tc.integer(x.RHS)
			tc.getInto(lv, v)
			if op, ok = intOps[bin]; !ok {
				fc.errorf(x, "unsupported compound assignment %s", x.Op)
			}
			tc.emit(tinstr{op: op, a: v, b: v, c: r})
			tc.ta.popI()
		}
	} else {
		switch kind {
		case tkF:
			v = tc.num(x.RHS)
		case tkP:
			v = tc.ptrExpr(x.RHS)
		default:
			v = tc.integer(x.RHS)
		}
	}
	// C float (4 bytes) rounds every stored value through float32.
	if kind == tkF && tl.CSize == 4 {
		tc.emit(tinstr{op: tRoundF, a: v, b: v})
	}
	tc.set(lv, v)
	return tc.unpin(lv, v)
}

// incdec compiles ++/-- of an int or float lvalue and returns the
// register holding the old value (post) or the new one. A 4-byte float
// stores the new value rounded through float32, while a pre-increment
// yields it unrounded, as the oracle does.
func (tc *tapeCompiler) incdec(target ast.Expr, op token.Kind, post bool, kind int) int32 {
	f32 := kind == tkF && tc.fc.typeOf(target).CSize == 4
	lv := tc.lval(target, kind, tc.pinned(target, nil))
	v := tc.get(lv)
	delta := int64(1)
	if op == token.DEC {
		delta = -1
	}
	add, d := tAddF, int32(0)
	if kind == tkF {
		d = tc.loadConstF(float64(delta))
	} else {
		add, d = tAddI, tc.loadConstI(delta)
	}
	nv := v
	if post || f32 {
		nv = tc.ta.alloc(kind)
	}
	tc.emit(tinstr{op: add, a: nv, b: v, c: d})
	if f32 {
		if !post {
			tc.emit(tinstr{op: tMovF, a: v, b: nv})
		}
		tc.emit(tinstr{op: tRoundF, a: nv, b: nv})
	}
	tc.set(lv, nv)
	if nv != v {
		tc.ta.pop(kind) // nv
	}
	tc.ta.pop(kind) // d
	return tc.unpin(lv, v)
}

// effect compiles an expression statement for its side effects.
func (tc *tapeCompiler) effect(e ast.Expr) {
	switch x := e.(type) {
	case *ast.AssignExpr:
		tc.assign(x)
		tc.ta.pop(kindOf(tc.fc.typeOf(x.LHS)))
	case *ast.CallExpr:
		tc.callEffect(x)
	case *ast.ParenExpr:
		tc.effect(x.X)
	default:
		kind := kindOf(tc.fc.typeOf(e))
		switch kind {
		case tkF:
			tc.flt(e)
		case tkP:
			tc.ptrExpr(e)
		default:
			tc.intExpr(e)
		}
		tc.ta.pop(kind)
	}
}
