package comp

// The tape compiler walks the checked AST and emits tinstr words in one
// pass, choosing every superinstruction of tape.go as it emits — the
// scheme of Lua 5's code generator (Ierusalimschy, de Figueiredo and
// Celes, "The Implementation of Lua 5.0", 2005). It is total over what
// comp accepts: every statement and expression either becomes tape code
// or is a compile error.
//
// An expression compiles to an operand descriptor (opnd, Lua's expdesc)
// before anything materializes it: a read of a local is its frame slot,
// a constant is an immediate, a float product stays pending until an
// addition fuses it. The consumer picks the instruction form from the
// descriptors — immediate, compare-and-branch, indexed access, rounding
// load or store, multiply-add — and passes its destination down, so an
// assignment, a declaration or a ?: arm computes straight into its
// target slot. Conditions compile to jump lists threaded through the
// unpatched jumps' offsets.
//
// Operands evaluate in the interp oracle's order. A descriptor that
// names a frame or global slot is read by the instruction consuming it,
// later than the oracle reads it, so it is never held across a sibling
// that could write the slot: hold copies it into a temp first when the
// sibling has side effects (risk). An assignment's address follows its
// right side unless pinned — when the two could observe each other —
// so the indexed store reads base and index itself.
//
// Register discipline: temps stack upward from the locals. An emitter
// frees its operands' temps before it allocates its result, so the
// result lands at the lowest free temp; a statement frees every temp it
// used, and no temp lives across a statement boundary.

import (
	"math"
	"sync"

	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// Register kinds, in slotKind order.
const (
	tkI = iota
	tkF
	tkP
)

// tapeAlloc manages one function's temp register space: next is the
// next free register of each kind, from base (just past the locals) up,
// and high the high-water mark. No emitter overwrites a register below
// held in place: the locals and, while a leaf callee's expression
// compiles, the temps its parameters are bound to. The main tape and
// every nested parallel-body tape of the function share the registers;
// the marks extend cf.nI/nF/nP when compilation finishes, which makes
// worker clones privatize temps for free.
type tapeAlloc struct {
	base, next, high, held [3]int32
}

// alloc allocates a temp register of the kind.
func (ta *tapeAlloc) alloc(kind int) int32 {
	r := ta.next[kind]
	ta.next[kind]++
	ta.high[kind] = max(ta.high[kind], ta.next[kind])
	return r
}

// level returns the next free register of each kind.
func (ta *tapeAlloc) level() [3]int32 { return ta.next }

// restore frees every register allocated since level l.
func (ta *tapeAlloc) restore(l [3]int32) { ta.next = l }

// regSpan is the block of registers a site op reads: n[k] consecutive
// registers of kind k from first[k] — a call's or printf's arguments in
// order.
type regSpan struct{ first, n [3]int32 }

// span returns the registers allocated since level from.
func (ta *tapeAlloc) span(from [3]int32) regSpan {
	to := ta.next
	return regSpan{first: from, n: [3]int32{to[0] - from[0], to[1] - from[1], to[2] - from[2]}}
}

// tapeLoopCtx holds the jump lists of one open tape loop's breaks and
// continues, or a switch's breaks (its continues belong to the loop
// around it).
type tapeLoopCtx struct {
	breaks, conts int
	sw            bool
}

type tapeCompiler struct {
	fc    *funcCompiler
	tp    *tape
	ta    *tapeAlloc
	loops []tapeLoopCtx
	// label is the highest pc of this tape a jump lands on, or will once
	// a loop's back edge is patched; an in-place rounding emitted there
	// does not fold (roundTo).
	label int
	// buf is the emission buffer this nesting depth keeps between tapes.
	buf []tinstr
}

// tapeScratch is the working memory of one CompileProgram's tape
// builds, reused across tapes, functions and (through tapeScratchPool)
// compiles: a tapeCompiler with its emission buffer per tape nesting
// depth (a nested loop-body tape compiles while its parent is open),
// the register space of the function being compiled and the backing of
// the program's pools. Finished tapes and pools are copied out at exact
// size, so the Program never references the scratch.
type tapeScratch struct {
	tcs   []*tapeCompiler
	depth int
	ta    tapeAlloc
	pools *tapePools
	free  tapePools // emptied pool buffers and cleared dedup indexes
	tapes []*tape   // the program's finished tapes, in compile order
	lift  liftScratch
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
	sc := fc.scratch
	if sc.depth == len(sc.tcs) {
		sc.tcs = append(sc.tcs, &tapeCompiler{})
	}
	tc := sc.tcs[sc.depth]
	sc.depth++
	tp := &tape{code: tc.buf[:0], tapePools: sc.pools}
	tc.fc, tc.tp, tc.ta, tc.loops, tc.label = fc, tp, fc.talloc, tc.loops[:0], noJump
	tc.stmt(s)
	tc.buf, tp.code = tp.code[:0], clone(tp.code)
	tc.fc, tc.tp, tc.ta = nil, nil, nil
	sc.depth--
	sc.tapes = append(sc.tapes, tp)
	return tp
}

// compileTapeBody compiles the function body.
func (fc *funcCompiler) compileTapeBody() {
	sc := fc.scratch
	base := [3]int32{int32(fc.cf.nI), int32(fc.cf.nF), int32(fc.cf.nP)}
	sc.ta = tapeAlloc{base: base, next: base, high: base, held: base}
	fc.talloc = &sc.ta
	fc.cf.tape = fc.newTape(fc.cf.decl.Body)
	h := sc.ta.high
	fc.cf.nI, fc.cf.nF, fc.cf.nP = int(h[tkI]), int(h[tkF]), int(h[tkP])
	fc.prog.tapeTemps += int(h[0] - base[0] + h[1] - base[1] + h[2] - base[2])
	fc.talloc, fc.scratch = nil, nil
}

// loopBody compiles a loop body into a nested tape sharing the
// function's temp registers (all temps are dead at the region
// boundary, and worker clones copy the extended frame).
func (fc *funcCompiler) loopBody(s ast.Stmt) *tape {
	saved := fc.talloc.level()
	tp := fc.newTape(s)
	fc.talloc.restore(saved)
	return tp
}

// ----------------------------------------------------------------------------
// Emission primitives and jump lists

func (tc *tapeCompiler) emit(in tinstr) int {
	tc.tp.code = append(tc.tp.code, in)
	return len(tc.tp.code) - 1
}

func (tc *tapeCompiler) here() int { return len(tc.tp.code) }

// mark returns the current end of the tape as a label: the target of a
// backward jump patched once the code after it is emitted.
func (tc *tapeCompiler) mark() int {
	tc.label = tc.here()
	return tc.label
}

// noJump is the empty jump list. A list is the pc of its last jump; an
// unpatched jump's offset field holds the pc of the one before it.
const noJump = -1

// jump emits a jump (offset to be patched) and returns it as a list.
func (tc *tapeCompiler) jump(in tinstr) int {
	in.a = noJump
	return tc.emit(in)
}

// concat returns the union of two jump lists.
func (tc *tapeCompiler) concat(l1, l2 int) int {
	if l2 == noJump {
		return l1
	}
	pc := l2
	for tc.tp.code[pc].a != noJump {
		pc = int(tc.tp.code[pc].a)
	}
	tc.tp.code[pc].a = int32(l1)
	return l2
}

// patchTo aims every jump of list at target.
func (tc *tapeCompiler) patchTo(list, target int) {
	if list != noJump {
		tc.label = max(tc.label, target)
	}
	for pc := list; pc != noJump; {
		in := &tc.tp.code[pc]
		next := int(in.a)
		in.a = int32(target - pc)
		pc = next
	}
}

// patchHere aims every jump of list at the current end of the tape.
func (tc *tapeCompiler) patchHere(list int) { tc.patchTo(list, tc.here()) }

// pushLoop opens a loop's (or a switch's) break/continue context.
func (tc *tapeCompiler) pushLoop(sw bool) {
	tc.loops = append(tc.loops, tapeLoopCtx{breaks: noJump, conts: noJump, sw: sw})
}

// popLoop closes the innermost context and returns its jump lists.
func (tc *tapeCompiler) popLoop() tapeLoopCtx {
	ctx := tc.loops[len(tc.loops)-1]
	tc.loops = tc.loops[:len(tc.loops)-1]
	return ctx
}

// ----------------------------------------------------------------------------
// Statements

func (tc *tapeCompiler) stmt(s ast.Stmt) {
	lvl := tc.ta.level()
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
		skip := tc.jumpIf(x.Cond, false)
		tc.stmt(x.Then)
		if x.Else != nil {
			done := tc.jump(tinstr{op: tJmp})
			tc.patchHere(skip)
			tc.stmt(x.Else)
			skip = done
		}
		tc.patchHere(skip)
	case *ast.ForStmt:
		tc.seqFor(x)
	case *ast.WhileStmt:
		lcond := tc.mark()
		exit := tc.jumpIf(x.Cond, false)
		tc.pushLoop(false)
		tc.stmt(x.Body)
		ctx := tc.popLoop()
		tc.patchTo(tc.jump(tinstr{op: tJmp}), lcond)
		tc.patchHere(tc.concat(exit, ctx.breaks))
		tc.patchTo(ctx.conts, lcond)
	case *ast.DoStmt:
		lbody := tc.mark()
		tc.pushLoop(false)
		tc.stmt(x.Body)
		ctx := tc.popLoop()
		lcond := tc.mark()
		tc.patchTo(tc.jumpIf(x.Cond, true), lbody)
		tc.patchHere(ctx.breaks)
		tc.patchTo(ctx.conts, lcond)
	case *ast.ReturnStmt:
		tc.tapeReturn(x)
	case *ast.BreakStmt:
		if n := len(tc.loops); n > 0 {
			ctx := &tc.loops[n-1]
			ctx.breaks = tc.concat(ctx.breaks, tc.jump(tinstr{op: tJmp}))
		} else {
			tc.emit(tinstr{op: tBrk})
		}
	case *ast.ContinueStmt:
		i := len(tc.loops) - 1
		for i >= 0 && tc.loops[i].sw {
			i--
		}
		if i < 0 {
			tc.emit(tinstr{op: tCont})
			break
		}
		ctx := &tc.loops[i]
		ctx.conts = tc.concat(ctx.conts, tc.jump(tinstr{op: tJmp}))
	case *ast.SwitchStmt:
		tc.tapeSwitch(x)
	default:
		tc.fc.errorf(s, "unsupported statement %T", s)
	}
	tc.ta.restore(lvl)
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
		if sl.kind == slotPtr && (sym.IsArray() || sym.Type.Kind == types.Struct) {
			fc.errorf(d, "internal error: initializer of array or struct %s", d.Name)
		}
		tc.setLocal(int32(sl.idx), int(sl.kind), d.Init, sl.kind == slotFloat && sym.Type.CSize == 4)
	}
}

// setLocal compiles e into frame slot s — straight into it, unless e
// itself may write s before its last instruction — rounding through
// float32 when f32 is set.
func (tc *tapeCompiler) setLocal(s int32, kind int, e ast.Expr, f32 bool) {
	hint := s
	if hasSideEffects(tc.fc, e) {
		hint = -1
	}
	tc.toReg(tc.operand(e, kind, hint, f32), kind, s)
}

func (tc *tapeCompiler) tapeReturn(x *ast.ReturnStmt) {
	fc := tc.fc
	if x.X == nil {
		tc.emit(tinstr{op: tRet})
		return
	}
	kind := int(fc.cf.retKind)
	f32 := kind == tkF && fc.sig != nil && fc.sig.Ret.CSize == 4
	r := tc.toReg(tc.operand(x.X, kind, -1, f32), kind, -1)
	tc.emit(tinstr{op: [3]topcode{tRetI, tRetF, tRetP}[kind], a: r})
}

// seqFor compiles a sequential for loop as a rotated loop — entry
// test, body, post, bottom test jumping back. The condition compiles
// twice but evaluates once per round exactly as the top-test form does
// (entry + one per iteration), so side effects and traps keep their
// order, and the hot path pays one taken branch per iteration instead
// of two. A post of v++ and a bottom test v < K become one tIncJltII,
// v < r (r a register other than v) one tIncJltI.
//
// A canonical loop's body, once compiled, is offered to the lifter;
// when it lifts, the loop's code is cut back and becomes the kernel's
// launch, and the body's code moves to the nested tape the launch runs
// where the kernel stops.
func (tc *tapeCompiler) seqFor(x *ast.ForStmt) {
	cl, canon := tc.fc.canonical(x)
	start, label := tc.here(), tc.label
	if x.Init != nil {
		tc.stmt(x.Init)
	}
	exit := noJump
	if x.Cond != nil {
		exit = tc.jumpIf(x.Cond, false)
	}
	lbody := tc.mark()
	tc.pushLoop(false)
	tc.stmt(x.Body)
	ctx := tc.popLoop()
	if canon && ctx.breaks == noJump && ctx.conts == noJump {
		if k := tc.lift(tc.tp.code[lbody:], &cl); k != nil {
			body := &tape{code: clone(tc.tp.code[lbody:]), tapePools: tc.tp.tapePools}
			tc.fc.scratch.tapes = append(tc.fc.scratch.tapes, body)
			tc.tp.code, tc.label = tc.tp.code[:start], label
			tc.fc.prog.fusedKernels++
			tc.launchLoop(&cl, launch{body: body, k: k})
			return
		}
	}
	lpost := tc.mark()
	if x.Post != nil {
		tc.effect(x.Post)
	}
	n := tc.fc.prog.inlinedCalls // the condition's calls count once
	if x.Cond == nil {
		tc.patchTo(tc.jump(tinstr{op: tJmp}), lbody)
	} else if back := tc.jumpIf(x.Cond, true); !tc.incJlt(lpost, back, lbody) {
		tc.patchTo(back, lbody)
	}
	tc.fc.prog.inlinedCalls = n
	tc.patchHere(tc.concat(exit, ctx.breaks))
	tc.patchTo(ctx.conts, lpost)
}

// incJlt fuses a loop tail that compiled to [tAddII v,v,1 at lpost]
// [tJltII v < K, or tJltI v < r, the jump list back] into one tIncJltII
// or tIncJltI to lbody.
func (tc *tapeCompiler) incJlt(lpost, back, lbody int) bool {
	code := tc.tp.code
	if back != lpost+1 || len(code) != lpost+2 {
		return false
	}
	add, j := code[lpost], code[back]
	if add.op != tAddII || add.a != add.b || add.aux != 1 || j.b != add.a {
		return false
	}
	in := tinstr{a: int32(lbody - lpost), b: add.a}
	switch {
	case j.op == tJltII && j.c == 0:
		in.op, in.aux = tIncJltII, j.aux
	case j.op == tJltI && j.aux == 0 && j.c != add.a:
		in.op, in.c = tIncJltI, j.c
	default:
		return false
	}
	code[lpost] = in
	tc.tp.code = code[:back]
	return true
}

// tapeSwitch compiles a switch into a compare chain over the tag
// (cases in source order, the first equal label wins, then default),
// followed by the case bodies in source order, so execution falls
// through from the selected case until a break.
func (tc *tapeCompiler) tapeSwitch(x *ast.SwitchStmt) {
	tag := tc.toReg(tc.intOp(x.Tag, -1), tkI, -1)
	jumps := make([]int, len(x.Cases))
	deflt := -1
	for i, c := range x.Cases {
		if c.Value == nil {
			if deflt < 0 {
				deflt = i
			}
			continue
		}
		v, _ := sema.ConstInt(c.Value) // sema.Check refuses a label that is not
		jumps[i] = tc.jump(tinstr{op: tJeqII, b: tag, aux: v})
	}
	miss := tc.jump(tinstr{op: tJmp})
	tc.pushLoop(true)
	for i, c := range x.Cases {
		switch {
		case i == deflt:
			tc.patchHere(miss)
		case c.Value != nil:
			tc.patchHere(jumps[i])
		}
		tc.stmtList(c.Body)
	}
	ctx := tc.popLoop()
	if deflt < 0 {
		tc.patchHere(miss)
	}
	tc.patchHere(ctx.breaks)
}

// ----------------------------------------------------------------------------
// Operand descriptors

// okind says where an operand descriptor's value is.
type okind uint8

const (
	oReg  okind = iota // in register r: a frame slot or a temp
	oImm               // the constant i (int) or f (float)
	oGlob              // in global pointer slot r
	oMul               // the float product F[r] * F[r2], or F[r] * f when cst
)

// opnd is an operand descriptor: an expression's value before its
// consumer decides where it goes and which instruction reads it.
type opnd struct {
	k     okind
	cst   bool
	r, r2 int32
	i     int64
	f     float64
}

func reg(r int32) opnd           { return opnd{r: r} }
func immI(v int64) opnd          { return opnd{k: oImm, i: v} }
func immF(v float64) opnd        { return opnd{k: oImm, f: v} }
func (o opnd) isImm() bool       { return o.k == oImm }
func f32Round(v float64) float64 { return float64(float32(v)) }

// local reports whether register r of the kind is a frame slot (a
// local or parameter) or a held temp rather than a temp of its own.
func (tc *tapeCompiler) local(kind int, r int32) bool { return r < tc.ta.held[kind] }

// hold prepares o to be held while next evaluates: a descriptor that
// reads a frame or global slot at its consumer moves into a temp when
// next has side effects, which could write that slot.
func (tc *tapeCompiler) hold(o *opnd, kind int, next ast.Expr) {
	deferred := o.k == oGlob || (o.k == oReg && tc.local(kind, o.r)) ||
		(o.k == oMul && (tc.local(tkF, o.r) || !o.cst && tc.local(tkF, o.r2)))
	if deferred && hasSideEffects(tc.fc, next) {
		*o = reg(tc.toReg(*o, kind, tc.ta.alloc(kind)))
	}
}

// dest frees the temps allocated since lvl and returns the register a
// result goes to: hint when set, else the lowest free temp.
func (tc *tapeCompiler) dest(lvl [3]int32, kind int, hint int32) int32 {
	tc.ta.restore(lvl)
	if hint >= 0 {
		return hint
	}
	return tc.ta.alloc(kind)
}

// toReg materializes o into a register of the kind and returns it:
// hint when set, else o's own register or the lowest free temp.
func (tc *tapeCompiler) toReg(o opnd, kind int, hint int32) int32 {
	d := hint
	switch o.k {
	case oReg:
		if d < 0 {
			return o.r
		}
		if d != o.r {
			tc.emit(tinstr{op: [3]topcode{tMovI, tMovF, tMovP}[kind], a: d, b: o.r})
		}
	case oImm:
		if d < 0 {
			d = tc.ta.alloc(kind)
		}
		if kind == tkI {
			tc.emit(tinstr{op: tConstI, a: d, b: tc.tp.constIdxI(o.i)})
		} else {
			tc.emit(tinstr{op: tConstF, a: d, b: tc.tp.constIdxF(o.f)})
		}
	case oGlob:
		if d < 0 {
			d = tc.ta.alloc(tkP)
		}
		tc.emit(tinstr{op: tLdGP, a: d, b: o.r})
	case oMul:
		if d < 0 && !tc.local(tkF, o.r) {
			d = o.r // the product overwrites its own factor temp
		} else if d < 0 {
			d = tc.ta.alloc(tkF)
		}
		if o.cst {
			tc.emit(tinstr{op: tMulFC, a: d, b: o.r, c: tc.tp.constIdxF(o.f)})
		} else {
			tc.emit(tinstr{op: tMulF, a: d, b: o.r, c: o.r2})
		}
	}
	return d
}

// operand compiles e as a value of the register kind; f32 rounds a
// float value through float32, as a C conversion to float does.
func (tc *tapeCompiler) operand(e ast.Expr, kind int, hint int32, f32 bool) opnd {
	switch kind {
	case tkF:
		return tc.fltOp(e, hint, f32)
	case tkP:
		return tc.ptrOp(e, hint)
	}
	return tc.intOp(e, hint)
}

// ----------------------------------------------------------------------------
// Integer expressions. A value an emitter computes lands in hint when
// hint >= 0.

// intOp compiles an integer expression; a float one truncates like C.
func (tc *tapeCompiler) intOp(e ast.Expr, hint int32) opnd {
	switch tc.fc.typeOf(e).Kind {
	case types.Float:
		lvl := tc.ta.level()
		o := tc.fltOp(e, -1, false)
		if o.isImm() {
			return immI(int64(o.f))
		}
		r := tc.toReg(o, tkF, -1)
		d := tc.dest(lvl, tkI, hint)
		tc.emit(tinstr{op: tF2I, a: d, b: r})
		return reg(d)
	case types.Ptr:
		tc.fc.errorf(e, "internal error: pointer used in integer context")
	}
	return tc.intVal(e, hint)
}

func (tc *tapeCompiler) intVal(e ast.Expr, hint int32) opnd {
	fc := tc.fc
	lvl := tc.ta.level()
	switch x := e.(type) {
	case *ast.IntLit:
		return immI(x.Value)
	case *ast.CharLit:
		return immI(x.Value)
	case *ast.SizeofExpr:
		return immI(fc.sizeofValue(x))
	case *ast.Ident:
		if o, ok := fc.param(x); ok {
			return o
		}
		sl, global := fc.slotOf(fc.symOf(x), x)
		if !global {
			return reg(int32(sl.idx))
		}
		d := tc.dest(lvl, tkI, hint)
		tc.emit(tinstr{op: tLdGI, a: d, b: int32(sl.idx)})
		return reg(d)
	case *ast.ParenExpr:
		return tc.intVal(x.X, hint)
	case *ast.BinaryExpr:
		return tc.intBinary(x, hint)
	case *ast.UnaryExpr:
		return tc.intUnary(x, hint)
	case *ast.PostfixExpr:
		return tc.incdec(x.X, x.Op, true, tkI, hint, true)
	case *ast.AssignExpr:
		return tc.assign(x, hint, true)
	case *ast.CondExpr:
		if _, _, ok := tc.fc.clampRange(x, nil); ok {
			return tc.clampOp(x, lvl, hint)
		}
		return tc.cond(x, tkI, hint, false)
	case *ast.IndexExpr, *ast.MemberExpr:
		return reg(tc.load(tc.address(e), tkI, lvl, hint, false))
	case *ast.CastExpr:
		if t := fc.typeOf(x); t.Kind != types.Int {
			fc.errorf(e, "unsupported cast to %s in integer context", t)
		}
		return tc.intOp(x.X, hint)
	case *ast.CallExpr:
		return tc.callInt(x, hint)
	case *ast.StringLit:
		fc.errorf(e, "string literal in integer context")
	}
	fc.errorf(e, "unsupported integer expression %T", e)
	return opnd{}
}

// intOps holds each integer operator's reg-reg opcode and its immediate
// forms b op K (right) and K op c (left); 0 where there is none.
var intOps = map[token.Kind][3]topcode{
	token.ADD: {tAddI, tAddII, tAddII}, token.SUB: {tSubI, tAddII, tRsbII},
	token.MUL: {tMulI, tMulII, tMulII}, token.QUO: {tDivI, tDivII, 0},
	token.REM: {tRemI, tRemII, 0}, token.AND: {tAndI, tAndII, tAndII},
	token.OR: {tOrI, tOrII, tOrII}, token.XOR: {tXorI, tXorII, tXorII},
	token.SHL: {tShlI, tShlII, 0}, token.SHR: {tShrI, tShrII, 0},
	token.EQL: {tEqI, tEqII, tEqII}, token.NEQ: {tNeI, tNeII, tNeII},
	token.LSS: {tLtI, tLtII, tGtII}, token.LEQ: {tLeI, tLeII, tGeII},
	token.GTR: {tGtI, tGtII, tLtII}, token.GEQ: {tGeI, tGeII, tLeII},
}

// evalI folds an integer operator exactly as the dispatch loop computes
// it; a division by zero does not fold (it traps at run time).
func evalI(op token.Kind, a, b int64) (int64, bool) {
	switch op {
	case token.ADD:
		return a + b, true
	case token.SUB:
		return a - b, true
	case token.MUL:
		return a * b, true
	case token.QUO, token.REM:
		if b == 0 {
			return 0, false
		}
		if op == token.QUO {
			return a / b, true
		}
		return a % b, true
	case token.AND:
		return a & b, true
	case token.OR:
		return a | b, true
	case token.XOR:
		return a ^ b, true
	case token.SHL:
		return a << uint(b), true
	case token.SHR:
		return a >> uint(b), true
	}
	return b2i(cmpTrue(op, a < b, a == b, a > b)), true
}

// cmpTrue evaluates comparison op from the operands' order.
func cmpTrue(op token.Kind, lt, eq, gt bool) bool {
	switch op {
	case token.EQL:
		return eq
	case token.NEQ:
		return !eq
	case token.LSS:
		return lt
	case token.LEQ:
		return lt || eq
	case token.GTR:
		return gt
	}
	return gt || eq
}

func (tc *tapeCompiler) intBinary(x *ast.BinaryExpr, hint int32) opnd {
	fc := tc.fc
	switch x.Op {
	case token.LAND, token.LOR:
		// The result is 1 unless the condition jumps out false.
		lvl := tc.ta.level()
		f := tc.jumpIf(x, false)
		d := tc.dest(lvl, tkI, hint)
		tc.emit(tinstr{op: tConstI, a: d, b: tc.tp.constIdxI(1)})
		done := tc.jump(tinstr{op: tJmp})
		tc.patchHere(f)
		tc.emit(tinstr{op: tConstI, a: d, b: tc.tp.constIdxI(0)})
		tc.patchHere(done)
		return reg(d)
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return tc.compare(x, hint)
	}
	lvl := tc.ta.level()
	tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
	if tl.IsPtr() || tr.IsPtr() {
		if x.Op != token.SUB || !tl.IsPtr() || !tr.IsPtr() {
			fc.errorf(x, "invalid pointer arithmetic in integer context")
		}
		a, b := tc.ptrPair(x)
		d := tc.dest(lvl, tkI, hint)
		tc.emit(tinstr{op: tPtrDiff, a: d, b: a, c: b, aux: int64(tl.Elem.Cells())})
		return reg(d)
	}
	l := tc.intOp(x.X, -1)
	tc.hold(&l, tkI, x.Y)
	return tc.arithI(x, x.Op, l, tc.intOp(x.Y, -1), lvl, hint)
}

// arithI emits l op r, choosing the immediate form for a constant
// operand and folding two constants.
func (tc *tapeCompiler) arithI(n ast.Node, op token.Kind, l, r opnd, lvl [3]int32, hint int32) opnd {
	ops, ok := intOps[op]
	if !ok {
		tc.fc.errorf(n, "unsupported integer operator %s", op)
	}
	if l.isImm() && r.isImm() {
		if v, ok := evalI(op, l.i, r.i); ok {
			tc.ta.restore(lvl)
			return immI(v)
		}
	}
	in := tinstr{op: ops[0]}
	switch {
	case r.isImm() && (r.i != 0 || (op != token.QUO && op != token.REM)):
		in.op, in.b, in.aux = ops[1], tc.toReg(l, tkI, -1), r.i
		if op == token.SUB {
			in.aux = -r.i // b - K == b + (-K) in two's complement
		}
	case l.isImm() && ops[2] != 0:
		in.op, in.b, in.aux = ops[2], tc.toReg(r, tkI, -1), l.i
	default:
		in.b = tc.toReg(l, tkI, -1)
		in.c = tc.toReg(r, tkI, -1)
	}
	in.a = tc.dest(lvl, tkI, hint)
	tc.emit(in)
	return reg(in.a)
}

// compare compiles a comparison of arithmetic or pointer operands as a
// 0/1 value; one pointer operand makes it a pointer comparison (ptrPair).
func (tc *tapeCompiler) compare(x *ast.BinaryExpr, hint int32) opnd {
	fc := tc.fc
	lvl := tc.ta.level()
	tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
	ci := int32(x.Op - token.EQL)
	switch {
	case tl.IsPtr() || tr.IsPtr():
		a, b := tc.ptrPair(x)
		d := tc.dest(lvl, tkI, hint)
		tc.emit(tinstr{op: tPtrEq + topcode(ci), a: d, b: a, c: b})
		return reg(d)
	case tl.Kind == types.Float || tr.Kind == types.Float:
		l := tc.fltOp(x.X, -1, false)
		tc.hold(&l, tkF, x.Y)
		r := tc.fltOp(x.Y, -1, false)
		if l.isImm() && r.isImm() {
			tc.ta.restore(lvl)
			return immI(b2i(cmpTrue(x.Op, l.f < r.f, l.f == r.f, l.f > r.f)))
		}
		ci, b, c, cst := tc.fltCmp(ci, l, r)
		op := tEqF + topcode(ci)
		if cst {
			op = tEqFC + topcode(ci)
		}
		d := tc.dest(lvl, tkI, hint)
		tc.emit(tinstr{op: op, a: d, b: b, c: c})
		return reg(d)
	}
	l := tc.intOp(x.X, -1)
	tc.hold(&l, tkI, x.Y)
	return tc.arithI(x, x.Op, l, tc.intOp(x.Y, -1), lvl, hint)
}

// mirrored is the comparison (EQL..GEQ order) with its operands swapped.
var mirrored = [6]int32{0, 1, 4, 5, 2, 3}

// fltCmp places a float comparison's operands for an instruction: a
// constant goes right, the comparison mirrored (exact, NaN included),
// into the pool; a pending product materializes.
func (tc *tapeCompiler) fltCmp(ci int32, l, r opnd) (int32, int32, int32, bool) {
	if l.isImm() {
		l, r, ci = r, l, mirrored[ci]
	}
	b := tc.toReg(l, tkF, -1)
	if r.isImm() {
		return ci, b, tc.tp.constIdxF(r.f), true
	}
	return ci, b, tc.toReg(r, tkF, -1), false
}

func (tc *tapeCompiler) intUnary(x *ast.UnaryExpr, hint int32) opnd {
	lvl := tc.ta.level()
	var in tinstr
	switch x.Op {
	case token.SUB, token.TILDE:
		o := tc.intOp(x.X, -1)
		switch {
		case o.isImm() && x.Op == token.SUB:
			return immI(-o.i)
		case o.isImm():
			return immI(^o.i)
		case x.Op == token.SUB:
			in.op = tNegI
		default:
			in.op = tCmplI
		}
		in.b = tc.toReg(o, tkI, -1)
	case token.NOT:
		switch kindOf(tc.fc.typeOf(x.X)) {
		case tkF:
			o := tc.fltOp(x.X, -1, false)
			if o.isImm() {
				return immI(b2i(o.f == 0))
			}
			in = tinstr{op: tEqFC, b: tc.toReg(o, tkF, -1), c: tc.tp.constIdxF(0)}
		case tkP:
			p := tc.toReg(tc.ptrOp(x.X, -1), tkP, -1)
			t := tc.dest(lvl, tkI, -1)
			tc.emit(tinstr{op: tTstP, a: t, b: p})
			in = tinstr{op: tNotI, b: t}
		default:
			o := tc.intOp(x.X, -1)
			if o.isImm() {
				return immI(b2i(o.i == 0))
			}
			in = tinstr{op: tNotI, b: tc.toReg(o, tkI, -1)}
		}
	case token.MUL:
		return reg(tc.load(tc.address(x), tkI, lvl, hint, false))
	case token.INC, token.DEC:
		return tc.incdec(x.X, x.Op, false, tkI, hint, true)
	default:
		tc.fc.errorf(x, "unsupported unary operator %s in integer context", x.Op)
	}
	in.a = tc.dest(lvl, tkI, hint)
	tc.emit(in)
	return reg(in.a)
}

// cond compiles c ? a : b, each arm straight into the result register.
func (tc *tapeCompiler) cond(x *ast.CondExpr, kind int, hint int32, f32 bool) opnd {
	d := hint
	if d < 0 {
		d = tc.ta.alloc(kind)
	}
	skip := tc.jumpIf(x.Cond, false)
	lvl := tc.ta.level()
	tc.toReg(tc.operand(x.Then, kind, d, f32), kind, d)
	tc.ta.restore(lvl)
	done := tc.jump(tinstr{op: tJmp})
	tc.patchHere(skip)
	tc.toReg(tc.operand(x.Else, kind, d, f32), kind, d)
	tc.ta.restore(lvl)
	tc.patchHere(done)
	return reg(d)
}

// clampLevel reads one level of a ?: clamp of an int v against an
// integer constant K: v < K ? K : rest (also K > v ? K : rest) is
// max(rest, K), and v > K ? K : rest (also K < v ? K : rest) is
// min(rest, K), an upper bound.
func (fc *funcCompiler) clampLevel(x *ast.CondExpr) (v, rest ast.Expr, k int64, upper, ok bool) {
	cond, isBin := ast.Unparen(x.Cond).(*ast.BinaryExpr)
	if !isBin || (cond.Op != token.LSS && cond.Op != token.GTR) {
		return nil, nil, 0, false, false
	}
	v, upper = cond.X, cond.Op == token.GTR
	if k, ok = sema.ConstInt(cond.Y); !ok {
		v, upper = cond.Y, !upper
		k, ok = sema.ConstInt(cond.X)
	}
	t, isT := sema.ConstInt(x.Then)
	return v, x.Else, k, upper, ok && isT && t == k && fc.typeOf(v).Kind == types.Int
}

// clampRange reports whether e is a ?: clamp of an effect-free int v
// (nil: the v of e's outer level), its levels' rest v itself or the
// next level, and the range [lo, hi] it leaves. C tests the outer level
// first, so a level is its max or min only when its K lies inside the
// range the levels within it leave; otherwise the ?: keeps its branches.
func (fc *funcCompiler) clampRange(e, v ast.Expr) (lo, hi int64, ok bool) {
	x, isCond := ast.Unparen(e).(*ast.CondExpr)
	if !isCond {
		return math.MinInt64, math.MaxInt64, sameValue(fc, e, v) && !hasSideEffects(fc, e)
	}
	u, rest, k, upper, ok := fc.clampLevel(x)
	if v == nil {
		v = u
	}
	if !ok || !sameValue(fc, u, v) {
		return 0, 0, false
	}
	switch lo, hi, ok = fc.clampRange(rest, v); {
	case !ok || k < lo || k > hi:
		return 0, 0, false
	case upper:
		return lo, k, true
	}
	return k, hi, true
}

// clampOp compiles the clamp e: its v once, then a tMaxII or tMinII per
// level, innermost first.
func (tc *tapeCompiler) clampOp(e ast.Expr, lvl [3]int32, hint int32) opnd {
	x, isCond := ast.Unparen(e).(*ast.CondExpr)
	if !isCond {
		return tc.intOp(e, hint)
	}
	_, rest, k, upper, _ := tc.fc.clampLevel(x)
	in := tinstr{op: tMaxII, b: tc.toReg(tc.clampOp(rest, tc.ta.level(), -1), tkI, -1), aux: k}
	if upper {
		in.op = tMinII
	}
	in.a = tc.dest(lvl, tkI, hint)
	tc.emit(in)
	return reg(in.a)
}

// sameValue reports whether two effect-free expressions are the same
// syntax over the same symbols, so they evaluate to one value.
func sameValue(fc *funcCompiler, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && fc.prog.info.Ref[x] == fc.prog.info.Ref[y] && fc.prog.info.Ref[x] != nil
	case *ast.IntLit:
		y, ok := b.(*ast.IntLit)
		return ok && x.Value == y.Value
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && sameValue(fc, x.X, y.X) && sameValue(fc, x.Index, y.Index)
	case *ast.BinaryExpr:
		y, ok := b.(*ast.BinaryExpr)
		return ok && x.Op == y.Op && sameValue(fc, x.X, y.X) && sameValue(fc, x.Y, y.Y)
	case *ast.UnaryExpr:
		y, ok := b.(*ast.UnaryExpr)
		return ok && x.Op == y.Op && sameValue(fc, x.X, y.X)
	}
	return false
}

// ----------------------------------------------------------------------------
// Float expressions

// fltOp compiles an arithmetic expression as a float, converting an
// integer one; f32 rounds the value through float32.
func (tc *tapeCompiler) fltOp(e ast.Expr, hint int32, f32 bool) opnd {
	if tc.fc.typeOf(e).Kind == types.Float {
		return tc.fltVal(e, hint, f32)
	}
	lvl := tc.ta.level()
	o := tc.intOp(e, -1)
	if o.isImm() {
		return tc.round(immF(float64(o.i)), hint, f32)
	}
	r := tc.toReg(o, tkI, -1)
	d := tc.dest(lvl, tkF, hint)
	tc.emit(tinstr{op: tI2F, a: d, b: r})
	return tc.round(reg(d), hint, f32)
}

// round rounds o through float32 when f32 is set: a constant folds, a
// temp rounds in place.
func (tc *tapeCompiler) round(o opnd, hint int32, f32 bool) opnd {
	if !f32 {
		return o
	}
	if o.isImm() {
		return immF(f32Round(o.f))
	}
	r := tc.toReg(o, tkF, -1)
	d := hint
	if d < 0 {
		d = r
		if tc.local(tkF, r) {
			d = tc.ta.alloc(tkF)
		}
	}
	tc.roundTo(d, r)
	return reg(d)
}

// roundTo emits F[d] = float64(float32(F[r])). Rounding in place folds
// into the instruction just emitted when that one wrote F[r] and has a
// rounded form — unless a jump lands on the rounding, which must then
// run on its own: `if (c) d = d * 2.0; d = (float)d;` on a double d
// emits the product, the label, and a rounding of d in place.
func (tc *tapeCompiler) roundTo(d, r int32) {
	code := tc.tp.code
	if n := len(code); d == r && n > 0 && tc.label < n {
		if last := &code[n-1]; last.a == r && rounded[last.op] != 0 {
			last.op = rounded[last.op]
			return
		}
	}
	tc.emit(tinstr{op: tRoundF, a: d, b: r})
}

func (tc *tapeCompiler) fltVal(e ast.Expr, hint int32, f32 bool) opnd {
	fc := tc.fc
	lvl := tc.ta.level()
	switch x := e.(type) {
	case *ast.FloatLit:
		return tc.round(immF(x.Value), hint, f32)
	case *ast.Ident:
		if o, ok := fc.param(x); ok {
			return tc.round(o, hint, f32)
		}
		sl, global := fc.slotOf(fc.symOf(x), x)
		if !global {
			return tc.round(reg(int32(sl.idx)), hint, f32)
		}
		d := tc.dest(lvl, tkF, hint)
		tc.emit(tinstr{op: tLdGF, a: d, b: int32(sl.idx)})
		return tc.round(reg(d), hint, f32)
	case *ast.ParenExpr:
		return tc.fltVal(x.X, hint, f32)
	case *ast.BinaryExpr:
		l := tc.fltOp(x.X, -1, false)
		tc.hold(&l, tkF, x.Y)
		return tc.round(tc.arithF(x, x.Op, l, tc.fltOp(x.Y, -1, false), lvl, hint), hint, f32)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			o := tc.fltOp(x.X, -1, false)
			if o.isImm() {
				return tc.round(immF(-o.f), hint, f32)
			}
			r := tc.toReg(o, tkF, -1)
			d := tc.dest(lvl, tkF, hint)
			tc.emit(tinstr{op: tNegF, a: d, b: r})
			return tc.round(reg(d), hint, f32)
		case token.MUL:
			return reg(tc.load(tc.address(x), tkF, lvl, hint, f32))
		case token.INC, token.DEC:
			return tc.round(tc.incdec(x.X, x.Op, false, tkF, hint, true), hint, f32)
		}
		fc.errorf(x, "unsupported unary %s in float context", x.Op)
	case *ast.PostfixExpr:
		return tc.round(tc.incdec(x.X, x.Op, true, tkF, hint, true), hint, f32)
	case *ast.AssignExpr:
		return tc.round(tc.assign(x, hint, true), hint, f32)
	case *ast.CondExpr:
		return tc.cond(x, tkF, hint, f32)
	case *ast.IndexExpr, *ast.MemberExpr:
		return reg(tc.load(tc.address(e), tkF, lvl, hint, f32))
	case *ast.CastExpr:
		// A conversion to float rounds through float32 like C.
		return tc.fltOp(x.X, hint, f32 || fc.typeOf(x).CSize == 4)
	case *ast.CallExpr:
		return tc.round(tc.callFlt(x, hint), hint, f32)
	}
	fc.errorf(e, "unsupported float expression %T", e)
	return opnd{}
}

// fltOps holds each float operator's reg-reg opcode and its forms with
// a pooled constant right (b op K) and left (K op c).
var fltOps = map[token.Kind][3]topcode{
	token.ADD: {tAddF, tAddFC, tAddFC}, token.SUB: {tSubF, tSubFC, tRsbFC},
	token.MUL: {tMulF, tMulFC, tMulFC}, token.QUO: {tDivF, tDivFC, tRdivFC},
}

// arithF emits l op r. Two constants fold; a constant takes the pooled
// form (left of + and * it swaps right, exact in IEEE 754 unless NaN);
// a product stays pending, and an addition of a pending product is one
// multiply-add that keeps the product on its side and both roundings.
func (tc *tapeCompiler) arithF(n ast.Node, op token.Kind, l, r opnd, lvl [3]int32, hint int32) opnd {
	ops, ok := fltOps[op]
	if !ok {
		tc.fc.errorf(n, "unsupported float operator %s", op)
	}
	if l.isImm() && r.isImm() {
		tc.ta.restore(lvl)
		switch op {
		case token.ADD:
			return immF(l.f + r.f)
		case token.SUB:
			return immF(l.f - r.f)
		case token.MUL:
			return immF(l.f * r.f)
		}
		return immF(l.f / r.f)
	}
	commutes := op == token.ADD || op == token.MUL
	if l.isImm() && commutes && !math.IsNaN(l.f) {
		l, r = r, l
	}
	if op == token.MUL && !l.isImm() {
		p := opnd{k: oMul, r: tc.toReg(l, tkF, -1)}
		if r.isImm() {
			p.cst, p.f = true, r.f
		} else {
			p.r2 = tc.toReg(r, tkF, -1)
		}
		return p
	}
	in := tinstr{op: ops[0]}
	switch {
	case op == token.ADD && (l.k == oMul || r.k == oMul) && !r.isImm():
		m, sum := r, l
		in.op = tAddMulF
		if r.k != oMul {
			m, sum, in.op = l, r, tMulAddF
		}
		in.aux, in.b, in.c = int64(tc.toReg(sum, tkF, -1)), m.r, m.r2
		if m.cst {
			in.op++ // the FC form
			in.c = tc.tp.constIdxF(m.f)
		}
	case r.isImm():
		in.op, in.b, in.c = ops[1], tc.toReg(l, tkF, -1), tc.tp.constIdxF(r.f)
	case l.isImm() && !commutes:
		in.op, in.b, in.c = ops[2], tc.toReg(r, tkF, -1), tc.tp.constIdxF(l.f)
	default:
		in.b = tc.toReg(l, tkF, -1)
		in.c = tc.toReg(r, tkF, -1)
	}
	in.a = tc.dest(lvl, tkF, hint)
	tc.emit(in)
	return reg(in.a)
}

// ----------------------------------------------------------------------------
// Pointer expressions and addresses

func (tc *tapeCompiler) ptrOp(e ast.Expr, hint int32) opnd {
	fc := tc.fc
	lvl := tc.ta.level()
	if fc.typeOf(e).Kind == types.Int {
		// sema.Check converts an integer to a pointer only as the
		// null-pointer constant.
		if v, ok := sema.ConstInt(e); !ok || v != 0 {
			fc.errorf(e, "internal error: non-zero integer used as pointer")
		}
		d := tc.dest(lvl, tkP, hint)
		tc.emit(tinstr{op: tNullP, a: d})
		return reg(d)
	}
	switch x := e.(type) {
	case *ast.Ident:
		if o, ok := fc.param(x); ok {
			return o
		}
		sl, global := fc.slotOf(fc.symOf(x), x)
		if global {
			return opnd{k: oGlob, r: int32(sl.idx)}
		}
		return reg(int32(sl.idx))
	case *ast.ParenExpr:
		return tc.ptrOp(x.X, hint)
	case *ast.IndexExpr:
		if r, ok := tc.partialArrayIndex(x, hint); ok {
			return reg(r)
		}
		return reg(tc.load(tc.address(x), tkP, lvl, hint, false))
	case *ast.MemberExpr:
		// An array field decays to a pointer; a pointer field loads.
		a := tc.address(x)
		if _, fld := fc.fieldOf(x); fld.Count > 1 {
			return a.base
		}
		return reg(tc.load(a, tkP, lvl, hint, false))
	case *ast.CastExpr:
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok && call.Fun.Name == "malloc" {
			return reg(tc.malloc(x, call, hint))
		}
		switch inner := fc.typeOf(x.X); inner.Kind {
		case types.Ptr:
			return tc.ptrOp(x.X, hint)
		case types.Int:
			// null-pointer constants
			in := tinstr{op: tNullP}
			if o := tc.intOp(x.X, -1); !o.isImm() || o.i != 0 {
				in = tinstr{op: tIntToPtr, b: tc.toReg(o, tkI, -1)}
			}
			in.a = tc.dest(lvl, tkP, hint)
			tc.emit(in)
			return reg(in.a)
		default:
			fc.errorf(x, "unsupported pointer cast from %s", inner)
		}
	case *ast.BinaryExpr:
		tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
		switch {
		case tl.IsPtr() && tr.Kind == types.Int:
			p := tc.ptrOp(x.X, -1)
			tc.hold(&p, tkP, x.Y)
			return tc.ptrAdd(x.Op, p, tc.intOp(x.Y, -1), int64(tl.Elem.Cells()), lvl, hint)
		case tr.IsPtr() && tl.Kind == types.Int && x.Op == token.ADD:
			// i + p evaluates the pointer first
			p := tc.ptrOp(x.Y, -1)
			tc.hold(&p, tkP, x.X)
			return tc.ptrAdd(x.Op, p, tc.intOp(x.X, -1), int64(tr.Elem.Cells()), lvl, hint)
		}
		fc.errorf(x, "unsupported pointer arithmetic")
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return reg(tc.addrReg(tc.address(x.X), lvl, hint))
		case token.MUL:
			return reg(tc.load(tc.address(x), tkP, lvl, hint, false))
		}
		fc.errorf(x, "unsupported unary %s in pointer context", x.Op)
	case *ast.CondExpr:
		return tc.cond(x, tkP, hint, false)
	case *ast.AssignExpr:
		return tc.assign(x, hint, true)
	case *ast.CallExpr:
		return tc.callPtr(x, hint)
	case *ast.StringLit:
		return reg(tc.stringLit(x, hint))
	}
	fc.errorf(e, "unsupported pointer expression %T", e)
	return opnd{}
}

// ptrAdd emits the checked pointer arithmetic p ± i elements.
func (tc *tapeCompiler) ptrAdd(op token.Kind, p, i opnd, stride int64, lvl [3]int32, hint int32) opnd {
	in := tinstr{op: tPtrAdd, b: tc.toReg(p, tkP, -1), c: tc.toReg(i, tkI, -1), aux: stride}
	if op == token.SUB {
		in.op = tPtrSub
	}
	in.a = tc.dest(lvl, tkP, hint)
	tc.emit(in)
	return reg(in.a)
}

// ptrPair compiles both operands of a pointer comparison or difference
// into pointer registers. A non-pointer operand of a comparison is the
// null pointer, as on the interpreter (C allows only the constant 0
// there); it is evaluated for its effects alone.
func (tc *tapeCompiler) ptrPair(x *ast.BinaryExpr) (int32, int32) {
	l := tc.ptrSide(x.X)
	tc.hold(&l, tkP, x.Y)
	r := tc.ptrSide(x.Y)
	return tc.toReg(l, tkP, -1), tc.toReg(r, tkP, -1)
}

// ptrSide compiles one operand of ptrPair.
func (tc *tapeCompiler) ptrSide(e ast.Expr) opnd {
	switch t := tc.fc.typeOf(e); {
	case t.IsPtr():
		return tc.ptrOp(e, -1)
	case !t.IsArith():
		tc.fc.errorf(e, "pointer compared with %s", t)
	}
	lvl := tc.ta.level()
	tc.effect(e)
	d := tc.dest(lvl, tkP, -1)
	tc.emit(tinstr{op: tNullP, a: d})
	return reg(d)
}

// partialArrayIndex handles a[i] (or a[i][j]...) where a is a declared
// multi-dimensional array indexed with fewer subscripts than dimensions:
// the result is a row pointer into the flattened segment.
func (tc *tapeCompiler) partialArrayIndex(x *ast.IndexExpr, hint int32) (int32, bool) {
	subs, base := ast.IndexChain(x)
	id, ok := base.(*ast.Ident)
	if !ok {
		return 0, false
	}
	sym := tc.fc.prog.info.Ref[id]
	if sym == nil || !sym.IsArray() || len(subs) >= len(sym.Dims) {
		return 0, false
	}
	lvl := tc.ta.level()
	a := taddr{base: tc.ptrOp(id, -1), idx: tc.flatOffset(sym, subs), stride: int64(sym.ElemType().Cells())}
	for _, d := range sym.Dims[len(subs):] {
		a.stride *= int64(d)
	}
	return tc.addrReg(a, lvl, hint), true
}

// flatOffset emits the row-major offset of the subscripts over the
// leading dims of sym, evaluating them left to right.
func (tc *tapeCompiler) flatOffset(sym *sema.Symbol, subs []ast.Expr) int32 {
	lvl := tc.ta.level()
	o := tc.intOp(subs[0], -1)
	for i, s := range subs[1:] {
		o = tc.arithI(s, token.MUL, o, immI(int64(sym.Dims[i+1])), lvl, -1)
		o = tc.arithI(s, token.ADD, o, tc.intOp(s, -1), lvl, -1)
	}
	return tc.toReg(o, tkI, -1)
}

// taddr is the address of a memory cell: the pointer base plus, when
// idx >= 0, I[idx] elements of stride cells. A base in a frame or global
// slot is read by the access itself.
type taddr struct {
	base   opnd // oReg or oGlob
	idx    int32
	stride int64
}

// address compiles the address of an lvalue cell.
func (tc *tapeCompiler) address(e ast.Expr) taddr {
	fc := tc.fc
	switch x := e.(type) {
	case *ast.ParenExpr:
		return tc.address(x.X)
	case *ast.IndexExpr:
		subs, base := ast.IndexChain(x)
		if id, ok := base.(*ast.Ident); ok {
			if sym := fc.symOf(id); sym.IsArray() && len(subs) == len(sym.Dims) {
				// An array's own slot never changes: its base needs no hold.
				return taddr{base: tc.ptrOp(id, -1), idx: tc.flatOffset(sym, subs), stride: int64(sym.ElemType().Cells())}
			}
		}
		// General chain: the base as a pointer, plus the index.
		bt := fc.typeOf(x.X)
		if !bt.IsPtr() {
			fc.errorf(x, "indexing non-pointer")
		}
		b := tc.ptrOp(x.X, -1)
		tc.hold(&b, tkP, x.Index)
		return taddr{base: b, idx: tc.toReg(tc.intOp(x.Index, -1), tkI, -1), stride: int64(bt.Elem.Cells())}
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return taddr{base: tc.ptrOp(x.X, -1), idx: -1}
		}
	case *ast.MemberExpr:
		_, fld := fc.fieldOf(x)
		var b int32
		if x.Arrow {
			b = tc.toReg(tc.ptrOp(x.X, -1), tkP, -1)
		} else {
			// a value access: the struct lives in a segment
			b = tc.addrReg(tc.address(x.X), tc.ta.level(), -1)
		}
		d := tc.ta.alloc(tkP)
		tc.emit(tinstr{op: tPtrImm, a: d, b: b, aux: int64(fld.Offset)})
		return taddr{base: reg(d), idx: -1}
	case *ast.Ident: // an array or a struct: sema.Check refuses a scalar
		return taddr{base: tc.ptrOp(x, -1), idx: -1}
	}
	fc.errorf(e, "expression is not addressable")
	return taddr{}
}

// addrReg computes a's pointer into a register.
func (tc *tapeCompiler) addrReg(a taddr, lvl [3]int32, hint int32) int32 {
	if a.idx < 0 {
		return tc.toReg(a.base, tkP, hint)
	}
	in := tinstr{op: tPtrIdx, b: tc.toReg(a.base, tkP, -1), c: a.idx, aux: a.stride}
	if a.stride == 1 {
		in.op = tPtrOff
	}
	in.a = tc.dest(lvl, tkP, hint)
	tc.emit(in)
	return in.a
}

// fix computes a's pointer now when next, evaluated before the access,
// could write a slot the access would read.
func (tc *tapeCompiler) fix(a taddr, next ast.Expr) taddr {
	deferred := a.base.k == oGlob || tc.local(tkP, a.base.r) || (a.idx >= 0 && tc.local(tkI, a.idx))
	if !deferred || !hasSideEffects(tc.fc, next) {
		return a
	}
	p := tc.ta.alloc(tkP)
	return taddr{base: reg(tc.addrReg(a, tc.ta.level(), p)), idx: -1}
}

// Access opcodes per register kind: through a pointer register, indexed
// from a global base, indexed from a register base. Each float indexed
// form's float32-rounding twin is two opcodes on (tLdGIdxFR, ...).
var (
	ldOps = [3][3]topcode{{tLdInd, tLdGIdx, tLdIdx}, {tLdIndF, tLdGIdxF, tLdIdxF}, {tLdIndP, tLdGIdxP, tLdIdxP}}
	stOps = [3][3]topcode{{tStInd, tStGIdx, tStIdx}, {tStIndF, tStGIdxF, tStIdxF}, {tStIndP, tStGIdxP, tStIdxP}}
)

// access is the instruction reading or writing a's cell with ops; an
// indexed form computes Off + I[c]*stride exactly like Pointer.Add.
func (tc *tapeCompiler) access(a taddr, ops *[3]topcode) tinstr {
	switch {
	case a.idx < 0:
		return tinstr{op: ops[0], b: tc.toReg(a.base, tkP, -1)}
	case a.base.k == oGlob:
		return tinstr{op: ops[1], b: a.base.r, c: a.idx, aux: a.stride}
	}
	return tinstr{op: ops[2], b: a.base.r, c: a.idx, aux: a.stride}
}

// load loads a's cell into a register, rounding a float through
// float32 when f32 is set.
func (tc *tapeCompiler) load(a taddr, kind int, lvl [3]int32, hint int32, f32 bool) int32 {
	in := tc.access(a, &ldOps[kind])
	in.a = tc.dest(lvl, kind, hint)
	if f32 && in.op != tLdIndF {
		in.op += 2
		f32 = false
	}
	tc.emit(in)
	if f32 {
		tc.roundTo(in.a, in.a)
	}
	return in.a
}

// store stores register v to a's cell, rounding a float through float32
// when f32 is set (v itself is left as it is).
func (tc *tapeCompiler) store(a taddr, kind int, v int32, f32 bool) {
	in := tc.access(a, &stOps[kind])
	switch {
	case in.op != stOps[kind][0]:
		in.a = v
		if f32 {
			in.op += 2
		}
	case f32:
		t := tc.ta.alloc(tkF)
		tc.emit(tinstr{op: tRoundF, a: t, b: v})
		in.a, in.b = in.b, t
	default:
		in.a, in.b = in.b, v
	}
	tc.emit(in)
}

// ----------------------------------------------------------------------------
// Lvalues and assignment

// tlval is an assignment target: a frame slot, a global slot, or the
// memory cell at address a.
type tlval struct {
	kind        int
	slot        int32
	global, mem bool
	a           taddr
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

// lval resolves an lvalue, computing a memory cell's address now.
func (tc *tapeCompiler) lval(e ast.Expr, kind int) tlval {
	if x, ok := ast.Unparen(e).(*ast.Ident); ok {
		sl, global := tc.fc.slotOf(tc.fc.symOf(x), x)
		return tlval{kind: kind, slot: int32(sl.idx), global: global}
	}
	return tlval{kind: kind, mem: true, a: tc.address(e)}
}

// pinned reports whether the address of lvalue lhs must be computed
// before rhs (nil for ++/--), the oracle's order: when computing it has
// side effects, or when it and rhs could observe each other — rhs has
// side effects, or both can trap. Otherwise the address is computed
// after the right side, where the indexed store reads it.
func (tc *tapeCompiler) pinned(lhs, rhs ast.Expr) bool {
	if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return false
	}
	effects, traps := tc.fc.addrRisk(lhs)
	if effects || rhs == nil {
		return effects
	}
	reff, rtraps := tc.fc.risk(rhs)
	return reff || (traps && rtraps)
}

// get loads a global or memory lvalue into a fresh temp.
func (tc *tapeCompiler) get(lv tlval) int32 {
	if lv.mem {
		return tc.load(lv.a, lv.kind, tc.ta.level(), -1, false)
	}
	d := tc.ta.alloc(lv.kind)
	tc.emit(tinstr{op: [3]topcode{tLdGI, tLdGF, tLdGP}[lv.kind], a: d, b: lv.slot})
	return d
}

// set stores register v to a global or memory lvalue, rounding through
// float32 when f32 is set.
func (tc *tapeCompiler) set(lv tlval, v int32, f32 bool) {
	if lv.mem {
		tc.store(lv.a, lv.kind, v, f32)
		return
	}
	if f32 {
		t := tc.ta.alloc(tkF)
		tc.emit(tinstr{op: tRoundF, a: t, b: v})
		v = t
	}
	tc.emit(tinstr{op: [3]topcode{tStGI, tStGF, tStGP}[lv.kind], a: lv.slot, b: v})
}

// arith emits l op r in the kind's arithmetic (checked pointer
// arithmetic for pointers) and returns the result in a register.
func (tc *tapeCompiler) arith(kind int, n ast.Node, op token.Kind, l, r opnd, stride int64, hint int32) int32 {
	lvl := tc.ta.level()
	var v opnd
	switch {
	case kind == tkF:
		v = tc.arithF(n, op, l, r, lvl, hint)
	case kind == tkI:
		v = tc.arithI(n, op, l, r, lvl, hint)
	case op == token.ADD || op == token.SUB:
		v = tc.ptrAdd(op, l, r, stride, lvl, hint)
	default:
		tc.fc.errorf(n, "unsupported compound pointer assignment %s", op)
	}
	return tc.toReg(v, kind, hint)
}

// assign compiles an assignment, storing once, and returns the stored
// value — the value of the assignment expression. A compound assignment
// evaluates the right side, then loads the current value, like the
// oracle; a local's is read by the operation itself, which writes the
// local directly.
func (tc *tapeCompiler) assign(x *ast.AssignExpr, hint int32, value bool) opnd {
	tl := tc.fc.typeOf(x.LHS)
	kind := kindOf(tl)
	f32 := kind == tkF && tl.CSize == 4
	bin, compound := x.Op.AssignBinOp()
	lvl := tc.ta.level()
	_, named := ast.Unparen(x.LHS).(*ast.Ident)
	pin := tc.pinned(x.LHS, x.RHS)
	var lv tlval
	if named || pin {
		lv = tc.lval(x.LHS, kind)
		if pin {
			lv.a = tc.fix(lv.a, x.RHS)
		}
	}
	// late: a memory cell's address follows the right side.
	late := !named && !pin
	local := named && !lv.global
	if !compound {
		if local {
			tc.setLocal(lv.slot, kind, x.RHS, f32)
			tc.ta.restore(lvl)
			return reg(lv.slot)
		}
		// A memory store rounds itself unless the value is wanted.
		v := tc.toReg(tc.operand(x.RHS, kind, hint, f32 && (value || lv.global)), kind, hint)
		if late {
			lv = tc.lval(x.LHS, kind)
		}
		tc.set(lv, v, f32 && lv.mem && !value)
		return reg(v)
	}
	rk := kind
	if kind == tkP {
		rk = tkI
	}
	r := tc.operand(x.RHS, rk, -1, false)
	if late {
		lv = tc.lval(x.LHS, kind)
	}
	if local {
		v := tc.arith(kind, x, bin, reg(lv.slot), r, int64(tl.Elem.Cells()), lv.slot)
		if f32 {
			tc.roundTo(v, v)
		}
		tc.ta.restore(lvl)
		return reg(v)
	}
	v := tc.arith(kind, x, bin, reg(tc.get(lv)), r, int64(tl.Elem.Cells()), hint)
	if f32 && value {
		v = tc.toReg(tc.round(reg(v), hint, true), tkF, hint)
	}
	tc.set(lv, v, f32 && !value)
	return reg(v)
}

// incdec compiles ++/-- of an int or float lvalue; with value set it
// returns the old value (post) or the new one. A 4-byte float stores the
// new value rounded through float32, while a pre-increment yields it
// unrounded, as the oracle does. The address is computed once.
func (tc *tapeCompiler) incdec(target ast.Expr, op token.Kind, post bool, kind int, hint int32, value bool) opnd {
	f32 := kind == tkF && tc.fc.typeOf(target).CSize == 4
	delta := opnd{k: oImm, i: 1, f: 1}
	if op == token.DEC {
		delta.i, delta.f = -1, -1
	}
	lv := tc.lval(target, kind)
	newTemp := func() int32 {
		if hint >= 0 {
			return hint
		}
		return tc.ta.alloc(kind)
	}
	if !lv.mem && !lv.global {
		res, nv := reg(lv.slot), lv.slot
		switch {
		case value && post:
			res = reg(tc.toReg(res, kind, newTemp()))
		case value && f32:
			nv = newTemp()
			res = reg(nv)
		}
		tc.arith(kind, target, token.ADD, reg(lv.slot), delta, 0, nv)
		if f32 {
			tc.roundTo(lv.slot, nv)
		}
		return res
	}
	cur := tc.get(lv)
	nv := cur
	if value && post {
		nv = tc.ta.alloc(kind)
	}
	tc.arith(kind, target, token.ADD, reg(cur), delta, 0, nv)
	tc.set(lv, nv, f32)
	if post {
		return reg(cur)
	}
	return reg(nv)
}

// effect compiles an expression statement for its side effects.
func (tc *tapeCompiler) effect(e ast.Expr) {
	switch x := e.(type) {
	case *ast.AssignExpr:
		tc.assign(x, -1, false)
		return
	case *ast.CallExpr:
		tc.callEffect(x)
		return
	case *ast.ParenExpr:
		tc.effect(x.X)
		return
	case *ast.CondExpr:
		// A ?: whose value nothing reads is a branch between its arms'
		// effects, whatever their type.
		skip := tc.jumpIf(x.Cond, false)
		tc.effect(x.Then)
		done := tc.jump(tinstr{op: tJmp})
		tc.patchHere(skip)
		tc.effect(x.Else)
		tc.patchHere(done)
		return
	}
	t := tc.fc.typeOf(e)
	if t.Kind == types.Struct {
		// A struct value is its cells: evaluating it computes its address
		// and reads its first cell, which traps where the interpreter's
		// read does.
		tc.load(tc.address(e), tkI, tc.ta.level(), -1, false)
		return
	}
	kind := kindOf(t)
	switch x := e.(type) {
	case *ast.PostfixExpr:
		if kind != tkP {
			tc.incdec(x.X, x.Op, true, kind, -1, false)
			return
		}
	case *ast.UnaryExpr:
		if kind != tkP && (x.Op == token.INC || x.Op == token.DEC) {
			tc.incdec(x.X, x.Op, false, kind, -1, false)
			return
		}
	}
	tc.operand(e, kind, -1, false)
}

// ----------------------------------------------------------------------------
// Conditions

// jumpIf compiles e as a condition: code that jumps when e's truth
// equals sense and falls through otherwise. It returns the jump list,
// noJump when e never jumps. Comparisons are one fused compare-and-
// branch, && and || chain their operands' lists, a constant condition
// is a tJmp or nothing.
func (tc *tapeCompiler) jumpIf(e ast.Expr, sense bool) int {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return tc.jumpIf(x.X, sense)
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			return tc.jumpIf(x.X, !sense)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR:
			if (x.Op == token.LAND) != sense {
				// Either operand decides: a && b is false, a || b true.
				l := tc.jumpIf(x.X, sense)
				return tc.concat(l, tc.jumpIf(x.Y, sense))
			}
			skip := tc.jumpIf(x.X, !sense)
			j := tc.jumpIf(x.Y, sense)
			tc.patchHere(skip)
			return j
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return tc.cmpJump(x, sense)
		}
	}
	lvl := tc.ta.level()
	var j int
	switch kindOf(tc.fc.typeOf(e)) {
	case tkF:
		o := tc.fltOp(e, -1, false)
		if o.isImm() {
			j = tc.constJump(o.f != 0, sense)
			break
		}
		in := tinstr{op: tJzF, b: tc.toReg(o, tkF, -1)}
		if sense {
			in.op = tJnzF
		}
		j = tc.jump(in)
	case tkP:
		in := tinstr{op: tJzP, b: tc.toReg(tc.ptrOp(e, -1), tkP, -1)}
		if sense {
			in.op = tJnzP
		}
		j = tc.jump(in)
	default:
		j = tc.jumpIfValue(tc.intOp(e, -1), sense)
	}
	tc.ta.restore(lvl)
	return j
}

// constJump is the jump list of a condition known to be truth.
func (tc *tapeCompiler) constJump(truth, sense bool) int {
	if truth != sense {
		return noJump
	}
	return tc.jump(tinstr{op: tJmp})
}

// intJumps are the int compare-and-branch forms of each comparison
// (EQL..GEQ order) and whether they negate it: the tape has eq, lt and
// le. The immediate forms follow three opcodes on.
var intJumps = [6]struct {
	op   topcode
	flip bool
}{{tJeqI, false}, {tJeqI, true}, {tJltI, false}, {tJleI, false}, {tJleI, true}, {tJltI, true}}

// cmpJump compiles a comparison as a condition.
func (tc *tapeCompiler) cmpJump(x *ast.BinaryExpr, sense bool) int {
	fc := tc.fc
	lvl := tc.ta.level()
	tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
	var j int
	switch {
	case tl.IsPtr() || tr.IsPtr():
		j = tc.jumpIfValue(tc.compare(x, -1), sense)
	case tl.Kind == types.Float || tr.Kind == types.Float:
		l := tc.fltOp(x.X, -1, false)
		tc.hold(&l, tkF, x.Y)
		j = tc.cmpJumpOps(x.Op, l, tc.fltOp(x.Y, -1, false), sense, true)
	default:
		l := tc.intOp(x.X, -1)
		tc.hold(&l, tkI, x.Y)
		j = tc.cmpJumpOps(x.Op, l, tc.intOp(x.Y, -1), sense, false)
	}
	tc.ta.restore(lvl)
	return j
}

// cmpJumpOps emits the compare-and-branch of l op r, int or float.
func (tc *tapeCompiler) cmpJumpOps(op token.Kind, l, r opnd, sense, float bool) int {
	ci := int32(op - token.EQL)
	var in tinstr
	switch {
	case float && l.isImm() && r.isImm():
		return tc.constJump(cmpTrue(op, l.f < r.f, l.f == r.f, l.f > r.f), sense)
	case float:
		// Float predicates are never negated away (NaN): the flag picks
		// the branch sense.
		ci, b, c, cst := tc.fltCmp(ci, l, r)
		in = tinstr{op: tJeqF + topcode(ci), b: b, c: c, aux: b2i(!sense)}
		if cst {
			in.op += tJeqFC - tJeqF
		}
	case l.isImm() && r.isImm():
		v, _ := evalI(op, l.i, r.i)
		return tc.constJump(v != 0, sense)
	default:
		if l.isImm() {
			l, r, ci = r, l, mirrored[ci]
		}
		j := intJumps[ci]
		neg := b2i(sense == j.flip)
		in = tinstr{op: j.op, b: tc.toReg(l, tkI, -1), aux: neg}
		if r.isImm() {
			in.op, in.c, in.aux = j.op+3, int32(neg), r.i
		} else {
			in.c = tc.toReg(r, tkI, -1)
		}
	}
	return tc.jump(in)
}

// jumpIfValue branches on an int value.
func (tc *tapeCompiler) jumpIfValue(o opnd, sense bool) int {
	if o.isImm() {
		return tc.constJump(o.i != 0, sense)
	}
	in := tinstr{op: tJz, b: tc.toReg(o, tkI, -1)}
	if sense {
		in.op = tJnz
	}
	return tc.jump(in)
}
