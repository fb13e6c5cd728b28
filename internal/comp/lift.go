package comp

// The lifter, the one front door of kernel fusion, reads a canonical
// loop's compiled body tape back as a kernel — a recorder over bytecode
// (LuaJIT's SSA IR) feeding vectorized interpretation (strip.go). The C
// rules the tape compiler encodes (evaluation order, float32 rounding
// points, integer division, clamps) are thus encoded once.
//
// Lifting is symbolic execution of the body's code: each instruction
// becomes value-numbered nodes (lnode) over its operand registers' values
// (a rounded …R op is the op and an opRound); registers the body never
// writes and global slots (a lifted body stores only array cells) hold
// launch invariants; an indexed load whose index is coef·iter + an
// invariant is a strided operand, one whose index is a load — through
// the tMaxII/tMinII of a ?: clamp — a gathered load. A forward branch
// over arms that only write registers is if-converted (Allen, Kennedy,
// Porterfield & Warren, "Conversion of control dependence to data
// dependence", POPL 1983): where the arms join, each register they wrote
// holds the select c ? then : else over the branch's 0/1 compare. A
// scalar local the body declares is dead after the loop, so it is a
// temp, once the body has written it. The sink classifies the body: a
// store at an affine index is a map; acc = acc + v into a local (or, for
// floats, a cell at an invariant index) a sum; a load, update by an
// invariant and store through one loaded index a scatter; a select of a
// unit-stride load and the local's value on entry under a strict compare
// of the two a min/max fold. Anything else — a call, printf, a store to
// a global scalar or through a pointer, a store, load or trapping
// integer division in an arm, a nested branch, a local of the function
// left behind, a body local read before the body writes it (a value
// carried from the last iteration), a load or integer division whose
// value no sink reads (the kernel would not check it) — keeps the loop
// on the tape. The varying nodes lower to the strip program, the
// invariant ones to the launch program prepFrame runs, and the loop
// keeps its dispatch body for where a kernel stops.

import (
	"math"

	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// Lifter-only node codes, after the strip codes of kernel.go: launch
// invariant leaves, the conversion of an int to float, and the max and
// min against a constant a ?: clamp level compiles to.
const (
	opReg   = opSel + 1 + iota // register r on entry to the body
	opGlob                     // global slot r
	opConst                    // the constant c (a float's bits)
	opI2F                      // float64(a)
	opMax                      // max(a, b), b a constant
	opMin                      // min(a, b), b a constant
)

// lnode is one value of a lifted body, of register kind kind. A load
// reads the cell of base node b at index node a times the element
// stride c; a gather is a load whose index is itself a load; a select
// is a where the compare node r holds, b where it does not.
type lnode struct {
	op, kind uint8
	a, b     int8
	r        int32
	c        int64
}

// lreg is the node register r of the kind holds at the current point.
type lreg struct {
	kind uint8
	r    int32
	n    int8
}

// lifter is the working state of one lift, on the compile's scratch: a
// body that does not lift costs no allocation.
type lifter struct {
	fc    *funcCompiler
	temps [3]int32 // the first temp register of each kind
	iter  int32
	nodes []lnode
	regs  []lreg // every register the body writes, with its last value
	// locals are the scalar locals the body declares.
	locals []lreg
	// st is the body's one store: base, index and value nodes, element
	// stride, its float32 rounding, and the load of the cell it writes.
	st struct {
		ok, float, f32 bool
		base, idx, val int8
		aux            int64
		cell           lnode
	}
	// br is the open branch: its compare node, whether the arm that
	// falls through runs where it holds, the pc the arms join at and
	// that of the else arm (-1 for none), and the registers on entry to
	// it, at the end of the first arm and where they join.
	br struct {
		open, flag    bool
		cond          int8
		end, els      int
		pre, thn, out []lreg
	}
	bad bool

	// After the walk: inv marks each node invariant, and kid maps a
	// varying node to its strip node, an invariant one to its launch
	// slot (-1 until assigned).
	inv []bool
	kid []int8
	k   fusedKernel
}

// liftScratch backs a lifter's slices.
type liftScratch struct {
	l     lifter
	nodes [maxNodes]lnode
	inv   [maxNodes]bool
	kid   [maxNodes]int8
	kn    [maxNodes]knode
	loads [maxLoads]kAccess
	invs  [maxInvs]lnode
}

// maxBody bounds the instructions of a body the lifter reads.
const maxBody = 4 * maxNodes

// lift reads code, the body of the canonical loop cl, as a kernel: nil
// when the body does not lift or the bounds could change under it.
func (tc *tapeCompiler) lift(code []tinstr, cl *canonicalLoop) *fusedKernel {
	if len(code) > maxBody {
		return nil
	}
	ls := &tc.fc.scratch.lift
	l := &ls.l
	br := l.br
	*l = lifter{fc: tc.fc, temps: tc.ta.base, iter: int32(cl.iterSlot),
		nodes: ls.nodes[:0], regs: l.regs[:0], locals: l.locals[:0], inv: ls.inv[:0], kid: ls.kid[:0],
		k: fusedKernel{nodes: ls.kn[:0], loads: ls.loads[:0], invs: ls.invs[:0]}}
	l.br.pre, l.br.thn, l.br.out = br.pre[:0], br.thn[:0], br.out[:0]
	ast.Walk(cl.body, func(n ast.Node) bool {
		if d, ok := n.(*ast.VarDecl); ok {
			if sym := tc.fc.declSym[d]; sym != nil && !sym.IsArray() && sym.Type.Kind != types.Struct {
				sl := tc.fc.slots[sym]
				l.locals = append(l.locals, lreg{kind: uint8(sl.kind), r: int32(sl.idx)})
			}
		}
		_, expr := n.(ast.Expr)
		return !expr
	})
	for pc := 0; pc <= len(code) && !l.bad; pc++ {
		if l.br.open && pc == l.br.end {
			l.join()
		}
		if pc < len(code) {
			l.step(tc.tp.tapePools, code, pc)
		}
	}
	if l.bad || l.br.open {
		return nil
	}
	for _, nd := range l.nodes {
		l.inv, l.kid = append(l.inv, l.invariant(nd)), append(l.kid, -1)
	}
	if !l.kernel() || !tc.fc.boundsFixed(cl, &l.k) {
		return nil
	}
	k := l.k
	k.loads, k.invs = clone(k.loads), clone(k.invs)
	if !k.emit() {
		return nil
	}
	return &k
}

// node adds nd, or finds the equal node it already has, and returns its
// id; past maxNodes, or for a new value that can trap in an arm, the
// lift fails.
func (l *lifter) node(nd lnode) int8 {
	for id, x := range l.nodes {
		if x == nd {
			return int8(id)
		}
	}
	if len(l.nodes) == maxNodes || l.br.open && l.traps(nd) {
		l.bad = true
		return 0
	}
	l.nodes = append(l.nodes, nd)
	if len(l.inv) > 0 { // built after the walk
		l.inv, l.kid = append(l.inv, l.invariant(nd)), append(l.kid, -1)
	}
	return int8(len(l.nodes) - 1)
}

// traps reports whether node nd can trap: a load, or an integer
// division or remainder by other than a nonzero constant.
func (l *lifter) traps(nd lnode) bool {
	switch {
	case nd.op == opLoad || nd.op == opGather:
		return true
	case nd.kind == tkI && (nd.op == opQuo || nd.op == opRem):
		d := l.nodes[nd.b]
		return d.op != opConst || d.c == 0
	}
	return false
}

func (l *lifter) op(code, kind uint8, a, b int8) int8 {
	return l.node(lnode{op: code, kind: kind, a: a, b: b})
}

// leaf is the node of a leaf: register or global slot r, or constant c.
func (l *lifter) leaf(code, kind uint8, r int32, c int64) int8 {
	return l.node(lnode{op: code, kind: kind, a: -1, b: -1, r: r, c: c})
}

// invariant reports whether nd is computed at launch: a leaf the body
// never writes, or an op over such values — a pointer load included,
// since a lifted body stores only int and float cells.
func (l *lifter) invariant(nd lnode) bool {
	switch nd.op {
	case opConst, opGlob:
		return true
	case opReg:
		return findReg(l.regs, nd.kind, nd.r) < 0
	case opLoad:
		return nd.kind == tkP && l.inv[nd.a] && l.inv[nd.b]
	case opGather, opIter, opMax, opMin, opLt, opLe, opEq, opSel:
		return false
	}
	return l.inv[nd.a] && (nd.b < 0 || l.inv[nd.b])
}

// findReg is register r's index in regs, -1 when regs does not hold it.
func findReg(regs []lreg, kind uint8, r int32) int {
	for i, x := range regs {
		if x.kind == kind && x.r == r {
			return i
		}
	}
	return -1
}

// get is the node of the value in register r of the kind.
func (l *lifter) get(kind uint8, r int32) int8 {
	return l.value(l.regs, kind, r)
}

// value is the node register r of the kind holds in regs: its value on
// entry to the body when regs does not hold it. A body local has none.
func (l *lifter) value(regs []lreg, kind uint8, r int32) int8 {
	switch i := findReg(regs, kind, r); {
	case i >= 0:
		return regs[i].n
	case kind == tkI && r == l.iter:
		return l.node(lnode{op: opIter, a: -1, b: -1})
	case findReg(l.locals, kind, r) >= 0:
		l.bad = true
	}
	return l.leaf(opReg, kind, r, 0)
}

// set records that register r of the kind now holds node n; a lifted
// body never writes the iterator.
func (l *lifter) set(kind uint8, r int32, n int8) {
	switch i := findReg(l.regs, kind, r); {
	case kind == tkI && r == l.iter:
		l.bad = true
	case i >= 0:
		l.regs[i].n = n
	default:
		l.regs = append(l.regs, lreg{kind, r, n})
	}
}

// Operand forms of the tape ops the lifter reads as one node.
const (
	fRR  = iota + 1 // op(b, c)
	fRK             // op(b, K): K is aux, or constF[c] for a float op
	fKR             // op(K, b)
	fR              // op(b)
	fMov            // b
	fK              // the pooled constant b
	fG              // global slot b
	fLd             // an indexed load, from a global base when op is 1
)

// liftOp is how the lifter reads a tape op: the node op, the kinds of
// the result and of the operands, and the operand form.
type liftOp struct{ op, kind, in, form uint8 }

var liftOps = [256]liftOp{
	tConstI: {form: fK}, tMovI: {form: fMov}, tLdGI: {form: fG},
	tConstF: {kind: tkF, form: fK}, tMovF: {kind: tkF, in: tkF, form: fMov}, tLdGF: {kind: tkF, form: fG},
	tMovP: {kind: tkP, in: tkP, form: fMov}, tLdGP: {kind: tkP, form: fG},
	tAddI: {opAdd, tkI, tkI, fRR}, tSubI: {opSub, tkI, tkI, fRR}, tMulI: {opMul, tkI, tkI, fRR},
	tDivI: {opQuo, tkI, tkI, fRR}, tRemI: {opRem, tkI, tkI, fRR}, tAndI: {opAnd, tkI, tkI, fRR},
	tOrI: {opOr, tkI, tkI, fRR}, tXorI: {opXor, tkI, tkI, fRR}, tShlI: {opShl, tkI, tkI, fRR},
	tShrI: {opShr, tkI, tkI, fRR}, tAddII: {opAdd, tkI, tkI, fRK}, tMulII: {opMul, tkI, tkI, fRK},
	tDivII: {opQuo, tkI, tkI, fRK}, tRemII: {opRem, tkI, tkI, fRK}, tAndII: {opAnd, tkI, tkI, fRK},
	tOrII: {opOr, tkI, tkI, fRK}, tXorII: {opXor, tkI, tkI, fRK}, tShlII: {opShl, tkI, tkI, fRK},
	tShrII: {opShr, tkI, tkI, fRK}, tRsbII: {opSub, tkI, tkI, fKR}, tNegI: {opNeg, tkI, tkI, fR},
	tCmplI: {opNot, tkI, tkI, fR}, tMaxII: {opMax, tkI, tkI, fRK}, tMinII: {opMin, tkI, tkI, fRK},
	tAddF: {opAdd, tkF, tkF, fRR}, tSubF: {opSub, tkF, tkF, fRR}, tMulF: {opMul, tkF, tkF, fRR},
	tDivF: {opQuo, tkF, tkF, fRR}, tAddFC: {opAdd, tkF, tkF, fRK}, tSubFC: {opSub, tkF, tkF, fRK},
	tMulFC: {opMul, tkF, tkF, fRK}, tDivFC: {opQuo, tkF, tkF, fRK}, tRsbFC: {opSub, tkF, tkF, fKR},
	tRdivFC: {opQuo, tkF, tkF, fKR}, tNegF: {opNeg, tkF, tkF, fR}, tRoundF: {opRound, tkF, tkF, fR},
	tI2F:     {opI2F, tkF, tkI, fR},
	tMulAddF: {opMul, tkF, tkF, fRR}, tMulAddFC: {opMul, tkF, tkF, fRK},
	tAddMulF: {opMul, tkF, tkF, fRR}, tAddMulFC: {opMul, tkF, tkF, fRK},
	tLdIdx: {kind: tkI, form: fLd}, tLdIdxF: {kind: tkF, form: fLd}, tLdIdxP: {kind: tkP, form: fLd},
	tLdGIdx: {1, tkI, 0, fLd}, tLdGIdxF: {1, tkF, 0, fLd}, tLdGIdxP: {1, tkP, 0, fLd},
}

// unrounded maps each rounded …R op, indexed accesses included, back to
// the op it rounds the result of.
var unrounded = func() (u [256]topcode) {
	for op, r := range rounded {
		if r != 0 {
			u[r] = topcode(op)
		}
	}
	u[tLdGIdxFR], u[tLdIdxFR], u[tStGIdxFR], u[tStIdxFR] = tLdGIdxF, tLdIdxF, tStGIdxF, tStIdxF
	return u
}()

// step reads instruction pc of the body; an instruction outside the
// lifted set fails the lift.
func (l *lifter) step(pl *tapePools, code []tinstr, pc int) {
	in := code[pc]
	op, round := in.op, false
	if u := unrounded[op]; u != 0 {
		op, round = u, true
	}
	d := liftOps[op]
	var v int8
	switch d.form {
	case fRR:
		v = l.op(d.op, d.kind, l.get(d.in, in.b), l.get(d.in, in.c))
	case fRK, fKR:
		x, y := l.get(d.in, in.b), int8(0)
		if d.in == tkF {
			y = l.leaf(opConst, tkF, 0, int64(math.Float64bits(pl.constF[in.c])))
		} else {
			y = l.leaf(opConst, tkI, 0, in.aux)
		}
		if d.form == fKR {
			x, y = y, x
		}
		v = l.op(d.op, d.kind, x, y)
	case fR:
		v = l.op(d.op, d.kind, l.get(d.in, in.b), -1)
	case fMov:
		v = l.get(d.in, in.b)
	case fK:
		if d.kind == tkF {
			v = l.leaf(opConst, tkF, 0, int64(math.Float64bits(pl.constF[in.b])))
		} else {
			v = l.leaf(opConst, tkI, 0, pl.constI[in.b])
		}
	case fG:
		v = l.leaf(opGlob, d.kind, in.b, 0)
	case fLd:
		idx := l.get(tkI, in.c)
		nd := lnode{op: opLoad, kind: d.kind, a: idx, b: l.base(in.b, d.op == 1), c: in.aux}
		if l.indexLoad(idx) >= 0 && d.kind != tkP {
			nd.op = opGather
		}
		v = l.node(nd)
	default:
		switch {
		case op == tStGIdx || op == tStIdx || op == tStGIdxF || op == tStIdxF:
			l.store(in, op, round)
		case jumpOps[op].code != 0:
			l.branch(pl, code, in, pc)
		case op == tJmp && l.br.open && pc == l.br.els-1:
			// The first arm ends: the else arm starts from the
			// registers on entry to the branch.
			l.br.thn = append(l.br.thn[:0], l.regs...)
			l.regs = append(l.regs[:0], l.br.pre...)
		default:
			l.bad = true
		}
		return
	}
	switch op { // a multiply-add: the product, then the sum
	case tMulAddF, tMulAddFC:
		v = l.op(opAdd, tkF, v, l.get(tkF, int32(in.aux)))
	case tAddMulF, tAddMulFC:
		v = l.op(opAdd, tkF, l.get(tkF, int32(in.aux)), v)
	}
	if round {
		v = l.op(opRound, tkF, v, -1)
	}
	l.set(d.kind, in.a, v)
}

// base is the node of an indexed access's base: global pointer slot b,
// or pointer register b.
func (l *lifter) base(b int32, glob bool) int8 {
	if glob {
		return l.leaf(opGlob, tkP, b, 0)
	}
	return l.get(tkP, b)
}

// indexLoad is the int load under a chain of clamps from n, -1 when
// there is none.
func (l *lifter) indexLoad(n int8) int8 {
	for l.clamp(n) {
		n = l.nodes[n].a
	}
	if nd := l.nodes[n]; nd.op == opLoad && nd.kind == tkI {
		return n
	}
	return -1
}

// clamp reports whether node n is a ?: clamp level.
func (l *lifter) clamp(n int8) bool {
	return l.nodes[n].op == opMax || l.nodes[n].op == opMin
}

// store records the body's one store, outside the arms of a branch.
func (l *lifter) store(in tinstr, op topcode, f32 bool) {
	st := &l.st
	if st.ok || l.br.open {
		l.bad = true
		return
	}
	st.ok, st.f32, st.float = true, f32, op == tStGIdxF || op == tStIdxF
	st.idx, st.aux, st.val = l.get(tkI, in.c), in.aux, l.get(uint8(b2i(st.float)), in.a)
	st.base = l.base(in.b, op == tStGIdx || op == tStGIdxF)
}

// jumpOp reads a conditional jump, which jumps iff its predicate !=
// its flag (tape.go), as the compare node code over operands of the
// kind: b, and the register c (form fRR), the immediate or pooled
// constant (fRK) or zero (fR), in swapped order with swap. With not
// the predicate is the compare's negation.
type jumpOp struct {
	code, kind, form uint8
	swap, not        bool
}

var jumpOps = [256]jumpOp{
	tJz: {opEq, tkI, fR, false, false}, tJnz: {opEq, tkI, fR, false, true},
	tJzF: {opEq, tkF, fR, false, false}, tJnzF: {opEq, tkF, fR, false, true},
	tJeqI: {opEq, tkI, fRR, false, false}, tJltI: {opLt, tkI, fRR, false, false}, tJleI: {opLe, tkI, fRR, false, false},
	tJeqII: {opEq, tkI, fRK, false, false}, tJltII: {opLt, tkI, fRK, false, false}, tJleII: {opLe, tkI, fRK, false, false},
	tJeqF: {opEq, tkF, fRR, false, false}, tJneF: {opEq, tkF, fRR, false, true},
	tJltF: {opLt, tkF, fRR, false, false}, tJleF: {opLe, tkF, fRR, false, false},
	tJgtF: {opLt, tkF, fRR, true, false}, tJgeF: {opLe, tkF, fRR, true, false},
	tJeqFC: {opEq, tkF, fRK, false, false}, tJneFC: {opEq, tkF, fRK, false, true},
	tJltFC: {opLt, tkF, fRK, false, false}, tJleFC: {opLe, tkF, fRK, false, false},
	tJgtFC: {opLt, tkF, fRK, true, false}, tJgeFC: {opLe, tkF, fRK, true, false},
}

// branch opens the forward conditional jump at pc. Its first arm runs
// up to the jump's target; when that arm ends in a forward jump, an
// else arm (empty for a ?: whose else is the value on entry) runs from
// the target to where that jump lands. The arms join at
// the end of the last one. A jump that leaves the body, or one inside
// an arm, fails the lift.
func (l *lifter) branch(pl *tapePools, code []tinstr, in tinstr, pc int) {
	d, end := jumpOps[in.op], pc+int(in.a)
	if l.br.open || end <= pc+1 || end > len(code) {
		l.bad = true
		return
	}
	x, y, flag := l.get(d.kind, in.b), int8(0), in.aux != 0
	switch {
	case d.form == fRR:
		y = l.get(d.kind, in.c)
	case d.form == fRK && d.kind == tkF:
		y = l.leaf(opConst, tkF, 0, int64(math.Float64bits(pl.constF[in.c])))
	case d.form == fRK:
		y, flag = l.leaf(opConst, tkI, 0, in.aux), in.c != 0
	default:
		y, flag = l.leaf(opConst, d.kind, 0, 0), false
	}
	if d.swap {
		x, y = y, x
	}
	// The first arm runs where the compare equals flag.
	code0, flag := d.code, flag != d.not
	if d.kind == tkI && !flag && code0 != opEq {
		// Exact for integers: !(x < y) is y <= x, !(x <= y) is y < x.
		code0, x, y, flag = opLt+opLe-code0, y, x, true
	}
	br := &l.br
	br.cond, br.flag = l.op(code0, d.kind, x, y), flag
	br.open, br.end, br.els = true, end, -1
	if j := code[end-1]; j.op == tJmp && j.a > 0 && end-1+int(j.a) <= len(code) {
		br.els, br.end = end, end-1+int(j.a)
	}
	br.pre = append(br.pre[:0], l.regs...)
}

// join closes the branch: each register an arm wrote holds the select,
// over the branch's compare, of its values at the ends of the two paths.
func (l *lifter) join() {
	br := &l.br
	br.open = false
	first, second := l.regs, br.pre // an if's arm, and the jump over it
	if br.els >= 0 {
		first, second = br.thn, l.regs
	}
	out := br.out[:0]
	for _, regs := range [2][]lreg{first, second} {
		for _, x := range regs {
			if findReg(out, x.kind, x.r) >= 0 {
				continue
			}
			t, f := l.value(first, x.kind, x.r), l.value(second, x.kind, x.r)
			if !br.flag {
				t, f = f, t
			}
			if t != f {
				t = l.node(lnode{op: opSel, kind: x.kind, a: t, b: f, r: int32(br.cond)})
			}
			out = append(out, lreg{x.kind, x.r, t})
		}
	}
	l.regs, br.out = append(l.regs[:0], out...), out
}

// ----------------------------------------------------------------------------
// The kernel

// kernel classifies the lifted body by its sink and builds the kernel
// into l.k; false when the body is none of the sinks.
func (l *lifter) kernel() bool {
	var acc lreg
	locals := 0
	for _, x := range l.regs {
		if x.r < l.temps[x.kind] && findReg(l.locals, x.kind, x.r) < 0 {
			acc, locals = x, locals+1
		}
	}
	l.k.acc = slot{slotKind(acc.kind), int(acc.r)}
	root := int8(-1)
	switch {
	case l.st.ok && locals == 0:
		l.k.acc = slot{slotPtr, -1}
		root = l.storeSink()
	case l.st.ok || locals != 1 || acc.kind == tkP:
	case l.nodes[acc.n].op == opSel:
		root = l.minMax(acc)
	default:
		root = l.sum(acc)
	}
	return root >= 0 && !l.bad && !l.dropsTrap()
}

// dropsTrap reports whether the kernel leaves out a value that can trap
// that the sink does not read: the launch would not check it, and the
// loop would complete where the dispatch body traps. A load of the
// stored cell, and the index load under a gathered load, are checked as
// the store and the gather.
func (l *lifter) dropsTrap() bool {
	for n, nd := range l.nodes {
		drop := l.kid[n] < 0 && !(l.st.ok && nd == l.st.cell) && l.traps(nd)
		for g, x := range l.nodes {
			drop = drop && !(x.op == opGather && l.kid[g] >= 0 && l.indexLoad(x.a) == int8(n))
		}
		if drop {
			return true
		}
	}
	return false
}

// storeSink classifies the store: a scatter through a loaded index, a
// float sum into a cell at an invariant index, or a map — at stride 0
// a pure gather only.
func (l *lifter) storeSink() int8 {
	k, st := &l.k, &l.st
	k.f32, k.float = st.f32, st.float
	if st.f32 && l.nodes[st.val].op == opRound {
		st.val = l.nodes[st.val].a // the store rounds again
	}
	st.cell = lnode{op: opLoad, kind: uint8(b2i(st.float)), a: st.idx, b: st.base, c: st.aux}
	if il := l.indexLoad(st.idx); il >= 0 {
		st.cell.op = opGather
		return l.scatter(il)
	}
	a, ok := l.access(st.cell)
	if !ok {
		return -1
	}
	k.store = a
	if a.stride == 0 {
		if v, isSum := l.addend(st.val, st.cell); isSum && st.float {
			k.cell, k.sink, k.round = true, sinkSum, l.binary32(v)
			return l.strip(v)
		}
		if l.nodes[st.val].op != opGather {
			return -1
		}
	}
	k.sink = sinkStore
	return l.strip(st.val)
}

// scatter is the sink gat[il] op= u: the stored value is the op of the
// gathered cell g the store writes and an invariant u.
func (l *lifter) scatter(il int8) int8 {
	k, st, g := &l.k, &l.st, l.st.cell
	v := l.nodes[st.val]
	if st.idx != il || st.aux != 1 || v.op >= opRound || v.b < 0 || scatterOps[v.op] == 0 ||
		(st.float && v.op > opMul) || !l.inv[st.base] {
		return -1
	}
	u := v.b
	switch {
	case l.nodes[v.a] == g:
	case l.nodes[v.b] == g && v.op != opSub:
		u = v.a
	default:
		return -1
	}
	if !l.inv[u] || l.nodes[u].kind != g.kind {
		return -1
	}
	k.sink, k.op, k.float = sinkScatter, scatterOps[v.op], false
	k.gathered, k.gat = true, kGather{base: l.invSlot(st.base), lo: math.MinInt64, hi: math.MaxInt64, float: st.float}
	k.upd = l.invSlot(u)
	if b := l.nodes[st.base]; b.op == opReg {
		k.acc.idx = int(b.r)
	}
	return l.strip(il)
}

// scatterOps is the scatter operator of each node op.
var scatterOps = [opRound]token.Kind{opAdd: token.ADD, opSub: token.SUB, opMul: token.MUL,
	opAnd: token.AND, opOr: token.OR, opXor: token.XOR}

// addend returns v when node s is x + v or v + x.
func (l *lifter) addend(s int8, x lnode) (int8, bool) {
	switch nd := l.nodes[s]; {
	case nd.op != opAdd:
	case l.nodes[nd.a] == x:
		return nd.b, true
	case l.nodes[nd.b] == x:
		return nd.a, true
	}
	return 0, false
}

// sum is the sink acc = acc + v into a local int no store narrows or a
// local float, whose partial sums round through float32 when the sum
// does. The fold adds in iteration order, so it is the dispatch loop's
// sum bit for bit on every backend.
func (l *lifter) sum(acc lreg) int8 {
	k, s := &l.k, acc.n
	k.float, k.sink = acc.kind == tkF, sinkSum
	if sym := l.fc.localSym(slot{slotInt, int(acc.r)}); acc.kind == tkI && (sym == nil || sym.Type.CSize < 4) {
		return -1
	}
	if k.float && l.nodes[s].op == opRound {
		k.f32, s = true, l.nodes[s].a
	}
	if v, ok := l.addend(s, lnode{op: opReg, kind: acc.kind, a: -1, b: -1, r: acc.r}); ok {
		k.round = k.float && l.binary32(v)
		return l.strip(v)
	}
	return -1
}

// binary32 reports whether every value of float node n is a binary32
// one: a rounding through float32, or a negation or select of such
// values.
func (l *lifter) binary32(n int8) bool {
	switch nd := l.nodes[n]; nd.op {
	case opRound:
		return true
	case opNeg:
		return l.binary32(nd.a)
	case opSel:
		return l.binary32(nd.a) && l.binary32(nd.b)
	}
	return false
}

// minMax is the fold: the accumulator's value is the select, under a
// strict compare of a unit-stride load v with the value on entry, of v
// where the compare holds and the value on entry elsewhere — for a
// 4-byte float, v rounded through float32, and the entry value rounded
// or not.
func (l *lifter) minMax(acc lreg) int8 {
	k, sel := &l.k, l.nodes[acc.n]
	entry, c, v := l.leaf(opReg, acc.kind, acc.r, 0), l.nodes[sel.r], sel.a
	if nd := l.nodes[v]; nd.op == opRound {
		k.f32, v = true, nd.a
	}
	switch {
	case c.op != opLt:
		return -1
	case c.a == v && c.b == entry:
		k.sink = sinkMin
	case c.a == entry && c.b == v:
		k.sink = sinkMax
	default:
		return -1
	}
	// The rounding of the accumulator on the else path is the identity:
	// a 4-byte float local holds float32 values.
	if sel.b != entry && !(k.f32 && l.nodes[sel.b] == lnode{op: opRound, kind: tkF, a: entry, b: -1}) {
		return -1
	}
	nd := l.nodes[v]
	if a, ok := l.access(nd); !ok || a.stride != 1 || nd.kind != acc.kind {
		return -1
	}
	k.float = nd.kind == tkF
	return l.strip(v)
}

// access reads load node nd as a strided operand: an invariant base,
// and the index coef·iter + inv with a constant coef ≥ 0.
func (l *lifter) access(nd lnode) (kAccess, bool) {
	if nd.op != opLoad || nd.kind == tkP || !l.inv[nd.b] {
		return kAccess{}, false
	}
	coef, inv, ok := l.affine(nd.a)
	if !ok || coef < 0 {
		return kAccess{}, false
	}
	a := kAccess{base: l.invSlot(nd.b), off: -1, scale: nd.c, stride: coef * nd.c, float: nd.kind == tkF}
	if inv >= 0 {
		a.off = l.invSlot(inv)
	}
	return a, !l.bad
}

// affine decomposes int node n as coef·iter + inv, inv an invariant
// node (-1 for none): sums, differences, negations and constant
// multiples of the iterator and invariants.
func (l *lifter) affine(n int8) (coef int64, inv int8, ok bool) {
	nd := l.nodes[n]
	switch {
	case nd.kind != tkI || l.bad:
	case l.inv[n]:
		return 0, n, true
	case nd.op == opIter:
		return 1, -1, true
	case nd.op == opAdd || nd.op == opSub:
		ca, ia, oka := l.affine(nd.a)
		cb, ib, okb := l.affine(nd.b)
		if !oka || !okb {
			break
		}
		if nd.op == opSub {
			cb, ib = -cb, l.scale(ib, -1)
		}
		if ia >= 0 && ib >= 0 {
			ib = l.op(opAdd, tkI, ia, ib)
		} else if ib < 0 {
			ib = ia
		}
		return ca + cb, ib, true
	case nd.op == opMul:
		x, c := nd.a, l.nodes[nd.b]
		if c.op != opConst {
			x, c = nd.b, l.nodes[nd.a]
		}
		if cx, ix, okx := l.affine(x); okx && c.op == opConst {
			return cx * c.c, l.scale(ix, c.c), true
		}
	case nd.op == opNeg:
		if c, i, okx := l.affine(nd.a); okx {
			return -c, l.scale(i, -1), true
		}
	}
	return 0, -1, false
}

// scale is the invariant node c·n, -1 for none.
func (l *lifter) scale(n int8, c int64) int8 {
	switch {
	case n < 0:
		return -1
	case c == -1:
		return l.op(opNeg, tkI, n, -1)
	}
	return l.op(opMul, tkI, n, l.leaf(opConst, tkI, 0, c))
}

// strip maps node n into the kernel's strip nodes and returns its id,
// -1 when n cannot run there: a varying node must be of the kernel's
// element kind, an int one in a float kernel the iterator converted.
func (l *lifter) strip(n int8) int8 {
	if l.kid[n] >= 0 && !l.inv[n] {
		return l.kid[n]
	}
	k, nd := &l.k, l.nodes[n]
	kn := knode{code: nd.op, a: -1, b: -1}
	switch {
	case nd.kind != uint8(b2i(k.float)):
		return -1
	case l.inv[n]:
		kn = knode{code: opInv, a: l.invSlot(n), b: -1}
	case nd.op == opIter:
	case nd.op == opI2F && l.nodes[nd.a].op == opIter:
		kn.code = opIterF
	case nd.op == opLoad:
		kn.a = l.loadSlot(nd)
	case nd.op == opGather:
		kn.a = l.gather(nd)
	case nd.op == opRound && l.nodes[nd.a].op == opI2F:
		return -1 // a (float) conversion of the iterator stays on the tape
	case nd.op == opRound && l.binary32(nd.a):
		return l.strip(nd.a) // the identity on binary32 values
	case nd.op >= opAdd && nd.op <= opSel:
		if kn.a = l.strip(nd.a); nd.b >= 0 && kn.a >= 0 {
			kn.b = l.strip(nd.b)
		}
		if nd.op == opSel && kn.b >= 0 {
			kn.c = l.strip(int8(nd.r))
		}
		if kn.a < 0 || (nd.b >= 0 && kn.b < 0) || kn.c < 0 {
			return -1
		}
	default:
		return -1
	}
	if l.bad || kn.a < 0 && kn.code != opIter && kn.code != opIterF {
		return -1
	}
	id := int8(len(k.nodes))
	for i, x := range k.nodes {
		if x == kn {
			id = int8(i)
		}
	}
	if id == int8(len(k.nodes)) {
		k.nodes = append(k.nodes, kn)
	}
	if !l.inv[n] {
		l.kid[n] = id
	}
	return id
}

// loadSlot is load node nd's operand slot, -1 when it has none.
func (l *lifter) loadSlot(nd lnode) int8 {
	a, ok := l.access(nd)
	if !ok {
		return -1
	}
	for i, x := range l.k.loads {
		if x == a {
			return int8(i)
		}
	}
	if len(l.k.loads) == maxLoads {
		return -1
	}
	l.k.loads = append(l.k.loads, a)
	return int8(len(l.k.loads) - 1)
}

// gather registers the kernel's one gathered array (a second one does
// not lift) and returns the operand slot of its index load.
func (l *lifter) gather(nd lnode) int8 {
	if nd.c != 1 || !l.inv[nd.b] {
		return -1
	}
	g := kGather{base: l.invSlot(nd.b), float: nd.kind == tkF}
	if g.lo, g.hi = l.clampRange(nd.a); l.k.gathered && l.k.gat != g {
		return -1
	}
	l.k.gathered, l.k.gat = true, g
	return l.loadSlot(l.nodes[l.indexLoad(nd.a)])
}

// clampRange is the range [lo, hi] the clamps from node n leave. Clamps
// compose from the innermost out: min(max(x, lo), hi) followed by
// max(·, K) is min(max(x, max(lo, K)), max(hi, K)), and followed by
// min(·, K) it is min(max(x, min(lo, K)), min(hi, K)).
func (l *lifter) clampRange(n int8) (lo, hi int64) {
	if !l.clamp(n) {
		return math.MinInt64, math.MaxInt64
	}
	nd := l.nodes[n]
	lo, hi = l.clampRange(nd.a)
	k := l.nodes[nd.b].c
	if nd.op == opMax {
		return max(lo, k), max(hi, k)
	}
	return min(lo, k), min(hi, k)
}

// invSlot is the launch slot of invariant node n, its operands' slots
// assigned first; past maxInvs the lift fails.
func (l *lifter) invSlot(n int8) int8 {
	if l.kid[n] >= 0 {
		return l.kid[n]
	}
	nd := l.nodes[n]
	iv := nd
	if nd.a >= 0 {
		iv.a = l.invSlot(nd.a)
	}
	if nd.b >= 0 {
		iv.b = l.invSlot(nd.b)
	}
	if len(l.k.invs) == maxInvs || l.bad {
		l.bad = true
		return 0
	}
	l.k.invs = append(l.k.invs, iv)
	l.kid[n] = int8(len(l.k.invs) - 1)
	return l.kid[n]
}

// localSym is the local whose frame slot sl is, nil for none.
func (fc *funcCompiler) localSym(sl slot) *sema.Symbol {
	for _, sym := range fc.prog.info.FuncLocals[fc.cf.name] {
		if fc.slots[sym] == sl {
			return sym
		}
	}
	return nil
}

// boundsFixed reports whether cl's bounds, evaluated once per launch,
// are what the dispatch loop reads at every iteration: loop-invariant,
// effect-free and free of memory reads, so evaluating them once cannot
// be observed even when a fused store aliases other arrays. Scalars
// other than the iterator and the accumulator, the one local a lifted
// body may write, qualify; array loads and calls do not.
func (fc *funcCompiler) boundsFixed(cl *canonicalLoop, k *fusedKernel) bool {
	acc, ok := fc.localSym(k.acc), true
	hoistable := func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			sym := fc.prog.info.Ref[x]
			if sym == nil || sym == cl.iterSym || sym == acc || sym.IsArray() ||
				sym.Type == nil || sym.Type.Kind == types.Ptr || sym.Type.Kind == types.Struct {
				ok = false
			}
		case *ast.IntLit, *ast.FloatLit, *ast.CharLit, *ast.ParenExpr, *ast.SizeofExpr, *ast.TypeExpr:
		case *ast.CastExpr:
			// An arithmetic conversion computes on its operand alone.
			if t := x.Checked(); t == nil || !t.IsArith() {
				ok = false
			}
		case *ast.BinaryExpr:
			if x.Op < token.ADD || x.Op > token.SHR { // arithmetic and bitwise ops
				ok = false
			}
		case *ast.UnaryExpr:
			if x.Op != token.SUB && x.Op != token.TILDE {
				ok = false
			}
		default:
			ok = false
		}
		return ok
	}
	ast.Walk(cl.lowerX, hoistable)
	ast.Walk(cl.upperX, hoistable)
	return ok
}
