package comp

// Kernel fusion: canonical innermost loops whose body is one
// fusible statement — an element-wise affine array store (copy, fill,
// scale, axpy-style triads, stencil reads, compound assigns, gathers,
// general int/float maps), a sum, dot or min/max fold into an
// accumulator, or a histogram scatter — compile into a single Go kernel
// that walks the raw memory segments instead of dispatching tape
// instructions per iteration per operand.
//
// The fused-kernel contract (see README "Kernel fusion"):
//
//  1. one hoisted range check per affine operand per kernel launch —
//     the mem.Segment Float/IntRange API validates [lo,hi) once and
//     hands back the raw cell slice, replacing the per-access bounds
//     checks of the dispatch loop; a data-dependent cell (a gathered
//     load, a scatter target) is compared per element;
//  2. every iteration reads and writes the cells the dispatch loop's
//     ascending iterations would, with the values it would find there, so
//     aliasing between operands (in-place stencils, overlapping
//     copies) behaves identically: the single-pass loops below run
//     ascending, the strip evaluator bounds its strips by the distance
//     rule (strip.go, hazard below);
//  3. float arithmetic is float64 with one float32 rounding at the
//     store exactly when the stored C type is 4 bytes — bit-identical
//     to the dispatch loop and the interp oracle;
//  4. operands are live views of guest memory, so a kernel caches
//     across iterations only values no operand can read: a fold's
//     accumulator cell and a scatter's target are stores to the
//     distance rule, so one that an operand can read (x[3] += x[k], a
//     histogram whose target is its own index array) runs element by
//     element, written through every iteration;
//  5. a kernel never traps: where the dispatch loop would (a null or
//     freed base, an operand or accumulator cell off its array, a zero
//     divisor, a gathered index or scatter target outside its array),
//     it stops and returns the first iteration it did not complete,
//     and the loop's dispatch body runs the rest (the bail-out rule,
//     strip.go) — the trap and the cells before it are the dispatch
//     loop's own.
//
// Recognition (match.go) classifies the statement by its sink and
// compiles the value the sink consumes to a small value-numbered node
// array over operand loads, at most one gathered load, hoisted
// invariants and the iterator. strip.go lowers the nodes to a register
// program and runs it a strip of elements at a time into the sink; two
// float shapes (scale, triad) keep a single-pass loop in front of it.
// Either way the launch state is a kframe on the Go stack, filled from
// the registers the launch's tape code computed (kernelOperands): a
// launch allocates nothing.

import (
	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// Node opcodes. A kernel's expression is a value-numbered node array
// over leaves — the ops up to opGather — and operators; float and int
// kernels share the arithmetic opcodes, and the lowered strip program
// reuses every one of them.
const (
	opLoad   uint8 = iota // loads[a] at the current iteration
	opInv                 // invariant a (invF/invI)
	opIter                // the iterator value (int kernel)
	opIterF               // float64(iterator) (float kernel)
	opGather              // the kernel's gathered load, its index cell loads[a]
	opAdd
	opSub
	opMul
	opQuo
	opRem // int only
	opAnd // int only
	opOr  // int only
	opXor // int only
	opShl // int only
	opShr // int only
	opNeg
	opNot   // int only (~)
	opRound // float only: round through float32, a C conversion to float
)

// knode is one node of a kernel's expression: an operator over the
// nodes a and b (b < 0 for a unary one), or a leaf whose a indexes the
// loads or the invariants.
type knode struct {
	code uint8
	a, b int8
}

// Sinks: what a kernel does with the value its program computes.
const (
	sinkStore   uint8 = iota // store[i] = v
	sinkSum                  // acc += v, in ascending order
	sinkMin                  // if (v < acc) acc = v
	sinkMax                  // if (v > acc) acc = v
	sinkScatter              // gat[v] op= the kernel's one invariant
)

// fusedKernel is a recognized kernel: the sink and its target, the
// operands, and the expression the sink consumes — first as nodes, then
// lowered to the register program the strip evaluator runs.
type fusedKernel struct {
	store kAccess // sinkStore
	// acc is the frame slot of a fold's accumulator, or cellX its
	// iterator-invariant memory cell, whose address the launch computes
	// into register cell. inv is the first register of the invariants.
	acc   int
	cellX ast.Expr
	cell  int32
	inv   int32
	// gat is the data-dependent array: the source of the opGather load,
	// or the scatter target, which op updates.
	gat kGather
	op  token.Kind

	loads []kAccess
	// invX are the invariants the launch evaluates into consecutive
	// registers from inv — float ones when floatInvs — a nil entry is
	// the constant 1 of a scatter's ++/--. loadX holds the syntax node
	// each load was built from: a node met again — inlining substitutes
	// one argument node for every read of its parameter — is the same
	// operand, and likewise for invX. gatX is the node the classifier
	// matched as the gathered load.
	invX  []ast.Expr
	loadX []ast.Expr
	gatX  ast.Expr
	// nodes is the expression, its root last, in the compile's scratch
	// buffer; ops counts the nodes asked for, repeats included.
	nodes []knode
	ops   int

	prog []stripOp
	regs int     // columns the program uses
	res  operand // where the program leaves its result
	// mul: a sum's root product is folded from its operands res and
	// res2, rounded through float32 first with round (otherwise res2 is
	// res).
	res2       operand
	mul, round bool
	sink       uint8
	f32        bool // the sink rounds through float32: its C type is 4 bytes
	float      bool // element kind of the program (and of every load)
}

// maxTapeDepth bounds the depth of the evaluation stack a postfix walk
// of the expression needs: how many operands an operator's subtrees
// may leave pending.
const maxTapeDepth = 16

// node adds nd — entered with depth values pending — to the
// expression, or finds the equal node it already has: identical
// subtrees (the argument an inlined square(x) duplicates) are one node,
// computed once per strip. It returns -1 when the expression outgrows
// what a lowering looks at (the loop then stays on the dispatch path).
func (fc *funcCompiler) node(k *fusedKernel, nd knode, depth int) int8 {
	if k.nodes == nil {
		k.nodes = fc.scratch.nodes[:0]
	}
	if k.ops++; k.ops > maxNodes || depth >= maxTapeDepth {
		return -1
	}
	for id, x := range k.nodes {
		if x == nd {
			return int8(id)
		}
	}
	k.nodes = append(k.nodes, nd)
	return int8(len(k.nodes) - 1)
}

// tapeOp maps a binary operator token to its opcode for the element
// kind.
func tapeOp(op token.Kind, float bool) (uint8, bool) {
	switch op {
	case token.ADD:
		return opAdd, true
	case token.SUB:
		return opSub, true
	case token.MUL:
		return opMul, true
	case token.QUO:
		return opQuo, true
	}
	if float {
		return 0, false
	}
	switch op {
	case token.REM:
		return opRem, true
	case token.AND:
		return opAnd, true
	case token.OR:
		return opOr, true
	case token.XOR:
		return opXor, true
	case token.SHL:
		return opShl, true
	case token.SHR:
		return opShr, true
	}
	return 0, false
}

// buildTape compiles e, entered with depth values pending, into nodes
// of the kernel's element kind and returns its node, -1 when the loop
// does not fuse. Whole loop-invariant subexpressions hoist into one
// evaluation per launch; affine array accesses become raw-slice loads;
// the iterator itself is a leaf; a conversion between float types is
// the identity or one rounding op (inlined pure calls leave those
// behind); the node the classifier matched as the kernel's gather is
// the gathered load. Anything else (calls, other gathers, int/float
// casts, mixed-kind subtrees that vary with the iterator) rejects the
// loop.
func (fc *funcCompiler) buildTape(k *fusedKernel, e ast.Expr, iter *sema.Symbol, depth int) int8 {
	e = ast.Unparen(e)
	if fc.hoistable(e, iter) {
		// Invariant leaf: any effect-free scalar expression, evaluated
		// once per launch (converted to float in a float kernel, as the
		// dispatch loop converts it).
		t := e.Checked()
		if t == nil || (t.Kind != types.Int && t.Kind != types.Float) {
			return -1
		}
		if !k.float && t.Kind != types.Int {
			return -1
		}
		j := indexOfExpr(k.invX, e)
		if j < 0 {
			j = len(k.invX)
			k.invX = append(k.invX, e)
		}
		return fc.node(k, knode{code: opInv, a: int8(j), b: -1}, depth)
	}
	switch x := e.(type) {
	case *ast.Ident:
		if fc.prog.info.Ref[x] != iter {
			return -1
		}
		if k.float {
			return fc.node(k, knode{code: opIterF, a: -1, b: -1}, depth)
		}
		return fc.node(k, knode{code: opIter, a: -1, b: -1}, depth)
	case *ast.IndexExpr:
		if e == k.gatX {
			k.loads, k.loadX = append(k.loads, k.gat.idx), append(k.loadX, nil)
			return fc.node(k, knode{code: opGather, a: int8(len(k.loads) - 1), b: -1}, depth)
		}
		j := indexOfExpr(k.loadX, e)
		if j < 0 {
			acc, ok := fc.matchKAccess(x, iter)
			if !ok || acc.float != k.float {
				return -1
			}
			j = len(k.loads)
			k.loads, k.loadX = append(k.loads, acc), append(k.loadX, e)
		}
		return fc.node(k, knode{code: opLoad, a: int8(j), b: -1}, depth)
	case *ast.BinaryExpr:
		op, ok := tapeOp(x.Op, k.float)
		if !ok {
			return -1
		}
		// The node's own C type must match the kernel's kind: an
		// int-typed subtree that varies with the iterator (e.g. i/2
		// stored to a float array) computes in integer arithmetic in the
		// dispatch loop — evaluating it with float ops would diverge.
		t := e.Checked()
		if t == nil || (k.float && t.Kind != types.Float) || (!k.float && t.Kind != types.Int) {
			return -1
		}
		if k.float {
			// Both operand subtrees must be float-typed or reduce to
			// invariant/iterator leaves the float kernel can represent.
			if !fc.floatTapeOperand(x.X, iter) || !fc.floatTapeOperand(x.Y, iter) {
				return -1
			}
		}
		return fc.binary(k, op, fc.buildTape(k, x.X, iter, depth), x.Y, iter, depth)
	case *ast.CastExpr:
		t, in := x.Checked(), x.X.Checked()
		if t == nil || in == nil || t.Kind != in.Kind || !t.IsArith() || (t.Kind == types.Float) != k.float {
			return -1
		}
		a := fc.buildTape(k, x.X, iter, depth)
		if a < 0 || !k.float || t.CSize != 4 || fc.f32Exact(x.X) {
			return a
		}
		return fc.node(k, knode{code: opRound, a: a, b: -1}, depth)
	case *ast.UnaryExpr:
		if x.Op != token.SUB && (x.Op != token.TILDE || k.float) {
			return -1
		}
		code := opNeg
		if x.Op == token.TILDE {
			code = opNot
		}
		if a := fc.buildTape(k, x.X, iter, depth); a >= 0 {
			return fc.node(k, knode{code: code, a: a, b: -1}, depth)
		}
	}
	return -1
}

// binary builds the operator node a op y, a the node of its left
// operand, or -1 when either operand does not fuse.
func (fc *funcCompiler) binary(k *fusedKernel, op uint8, a int8, y ast.Expr, iter *sema.Symbol, depth int) int8 {
	if a < 0 {
		return -1
	}
	b := fc.buildTape(k, y, iter, depth+1)
	if b < 0 {
		return -1
	}
	return fc.node(k, knode{code: op, a: a, b: b}, depth)
}

// indexOfExpr finds the very node e among xs, -1 when it is new.
func indexOfExpr(xs []ast.Expr, e ast.Expr) int {
	for i, x := range xs {
		if x == e {
			return i
		}
	}
	return -1
}

// floatTapeOperand reports whether e can be a float-kernel subtree: a
// float-typed expression, or an int-typed leaf the kernel converts (the
// iterator, or an invariant expression).
func (fc *funcCompiler) floatTapeOperand(e ast.Expr, iter *sema.Symbol) bool {
	e = ast.Unparen(e)
	t := e.Checked()
	if t == nil {
		return false
	}
	if t.Kind == types.Float {
		return true
	}
	if t.Kind != types.Int {
		return false
	}
	if id, ok := e.(*ast.Ident); ok && fc.prog.info.Ref[id] == iter {
		return true
	}
	return fc.hoistable(e, iter)
}

// ----------------------------------------------------------------------------
// Launch

// kframe is the per-launch state of a kernel after hoisting. It
// lives on the launching goroutine's stack: the operand arrays are
// fixed-size, so a launch allocates nothing.
type kframe struct {
	n     int
	lo    int64
	strip int // elements per strip, see hazard
	dst   kslice
	f32   bool
	// accI or accF is the fold's accumulator, gat the data-dependent
	// array's base.
	accI  *int64
	accF  *float64
	gat   mem.Pointer
	loads [maxLoads]kslice
	invF  [maxInvs]float64
	invI  [maxInvs]int64
}

// floatInvs reports whether the invariants are float: those of a float
// program, and a float scatter's update.
func (k *fusedKernel) floatInvs() bool {
	return k.float || (k.sink == sinkScatter && k.gat.float)
}

// kernelOperands emits the launch-time evaluation of k's operands —
// in order the store, the accumulator cell, the gathered or scattered
// array, the loads, the invariants — and records the registers they
// land in. The launch keeps them allocated until its tStmt.
func (tc *tapeCompiler) kernelOperands(k *fusedKernel) {
	if k.sink == sinkStore {
		tc.accessOperands(&k.store)
	}
	if k.cellX != nil {
		k.cell = tc.addrReg(tc.address(k.cellX), tc.ta.level(), -1)
	}
	if k.gat.baseX != nil {
		k.gat.base = tc.baseOperand(k.gat.baseX)
	}
	for i := range k.loads {
		tc.accessOperands(&k.loads[i])
	}
	kind := tkI
	if k.floatInvs() {
		kind = tkF
	}
	k.inv = tc.ta.level()[kind]
	for _, x := range k.invX {
		if x == nil {
			tc.toReg(immI(1), tkI, tc.ta.alloc(tkI))
			continue
		}
		tc.argInto(x, kind, false)
	}
}

// accessOperands emits an operand's base and invariant offset.
func (tc *tapeCompiler) accessOperands(a *kAccess) {
	a.base = tc.baseOperand(a.baseX)
	off := immI(0)
	lvl := tc.ta.level()
	for i, t := range a.offX {
		tl := tc.ta.level()
		o := tc.intOp(t.x, -1)
		if t.c != 1 {
			o = tc.arithI(t.x, token.MUL, o, immI(t.c), tl, -1)
		}
		if i > 0 {
			o = tc.arithI(t.x, token.ADD, off, o, lvl, -1)
		}
		off = o
	}
	a.off = -1
	if len(a.offX) > 0 {
		a.off = tc.toReg(off, tkI, -1)
	}
}

// baseOperand is the register of a kernel's base pointer: a local's own
// slot — which a reduction worker's clone privatizes — or a temp the
// expression is evaluated into.
func (tc *tapeCompiler) baseOperand(x ast.Expr) int32 {
	return tc.toReg(tc.ptrOp(x, -1), tkP, -1)
}

// strideAny is the stride of a data-dependent operand: it meets no
// affine stride, so any overlap with it runs element by element.
const strideAny = -1

// prepFrame reads everything loop-invariant from the launch registers:
// the sink's target and the operand ranges (one check each), the strip
// length their overlap allows, invariant scalars, the sink's rounding
// mode. It reports false when the launch cannot start — a base is null
// or freed, an operand or the accumulator cell lies outside its array —
// and then the dispatch body runs the whole range.
func (k *fusedKernel) prepFrame(fr *kframe, e *env, lo, hi int64) bool {
	fr.n, fr.lo, fr.strip, fr.f32 = int(hi-lo+1), lo, stripLen, k.f32
	var st kspan
	ss := k.store.stride
	switch {
	case k.sink == sinkStore:
		st = k.store.span(e, lo, hi)
		if !k.store.cells(st, &fr.dst) {
			return false
		}
	case k.cellX != nil:
		// The accumulator cell is a store of stride 0, at every element.
		p := e.P[k.cell]
		if p.IsNull() {
			return false
		}
		cell, err := p.Seg.FloatRange(int64(p.Off), int64(p.Off)+1)
		if err != nil {
			return false
		}
		st, ss = kspan{p.Seg, int64(p.Off), int64(p.Off)}, 0
		fr.accF = &cell[0]
	case k.float:
		fr.accF = &e.F[k.acc]
	case k.sink != sinkScatter:
		fr.accI = &e.I[k.acc]
	}
	if k.gat.baseX != nil {
		// The array is a scatter's store, or a gathered load against the
		// store (against itself, the scatter's is the same walk); its
		// cells are compared element by element.
		if fr.gat = e.P[k.gat.base]; fr.gat.IsNull() {
			return false
		}
		all := kspan{fr.gat.Seg, 0, int64(fr.gat.Seg.Len()) - 1}
		if k.sink == sinkScatter {
			st, ss = all, strideAny
		}
		fr.strip = hazard(st, ss, all, strideAny)
	}
	for i := range k.loads {
		ld := k.loads[i].span(e, lo, hi)
		if !k.loads[i].cells(ld, &fr.loads[i]) {
			return false
		}
		fr.strip = min(fr.strip, hazard(st, ss, ld, k.loads[i].stride))
	}
	if k.floatInvs() {
		copy(fr.invF[:], e.F[k.inv:int(k.inv)+len(k.invX)])
	} else {
		copy(fr.invI[:], e.I[k.inv:int(k.inv)+len(k.invX)])
	}
	return true
}

// hazard is the distance rule of the strip evaluator: the longest strip
// in which no element loads (through ld, at stride ls) a cell that an
// earlier element of the same strip stores (through st, at stride ss).
// Equal strides meet at one fixed distance — none when the load runs
// ahead of the store, on the very same walk, or between its cells;
// operands of unequal stride that overlap at all run element by
// element, and so does a store of stride 0, which every element
// stores again.
func hazard(st kspan, ss int64, ld kspan, ls int64) int {
	if st.seg != ld.seg || ld.last < st.first || st.last < ld.first {
		return stripLen
	}
	if ss != ls || ss == 0 {
		return 1
	}
	d := st.first - ld.first
	if d <= 0 || d%ss != 0 || d/ss >= stripLen {
		return stripLen
	}
	return int(d / ss)
}

// ----------------------------------------------------------------------------
// Shapes
//
// Two float shapes keep a specialized single-pass loop in front of the
// strip evaluator, because there a pass per op costs what the whole
// loop does: the store rounds through float32, and that rounding is as
// expensive as the arithmetic it follows (see CHANGES.md, PR 22, for
// the numbers that kept these and retired the fill, copy and stencil
// loops and the integer twins of these two).

// scaled matches node id against a * X[i] in either operand order and
// returns the load and the invariant.
func (k *fusedKernel) scaled(id int8) (ld, inv int8, ok bool) {
	nd := k.nodes[id]
	if nd.code != opMul {
		return 0, 0, false
	}
	x, y := k.nodes[nd.a], k.nodes[nd.b]
	if x.code == opLoad {
		x, y = y, x
	}
	return y.a, x.a, x.code == opInv && y.code == opLoad
}

// emitScale handles the float Y[i] = a * X[i] (either operand order).
func emitScale(k *fusedKernel) kernRun {
	x, inv, ok := k.scaled(int8(len(k.nodes) - 1))
	if !k.float || !ok {
		return nil
	}
	return func(e *env, lo, hi int64) int64 {
		var fr kframe
		if !k.prepFrame(&fr, e, lo, hi) {
			return lo
		}
		a := fr.invF[inv]
		dst, ds := fr.dst.f, fr.dst.stride
		src, ss := fr.loads[x].f, fr.loads[x].stride
		if fr.f32 {
			for t, c, s := 0, 0, 0; t < fr.n; t, c, s = t+1, c+ds, s+ss {
				dst[c] = float64(float32(a * src[s]))
			}
			return hi + 1
		}
		for t, c, s := 0, 0, 0; t < fr.n; t, c, s = t+1, c+ds, s+ss {
			dst[c] = a * src[s]
		}
		return hi + 1
	}
}

// emitTriad handles the float axpy family Y[i] = a*X[i] + Z[i] in its
// add-commuted operand orders (float addition and multiplication are
// exactly commutative, so one loop serves all of them). Compound
// Y[i] += a*X[i] desugars to the Z=Y instance.
func emitTriad(k *fusedKernel) kernRun {
	root := k.nodes[len(k.nodes)-1]
	if !k.float || root.code != opAdd {
		return nil
	}
	p, q := root.a, root.b
	if k.nodes[p].code == opLoad {
		p, q = q, p
	}
	x, inv, ok := k.scaled(p)
	if !ok || k.nodes[q].code != opLoad {
		return nil
	}
	z := k.nodes[q].a
	return func(e *env, lo, hi int64) int64 {
		var fr kframe
		if !k.prepFrame(&fr, e, lo, hi) {
			return lo
		}
		a := fr.invF[inv]
		dst, ds := fr.dst.f, fr.dst.stride
		xs, xss := fr.loads[x].f, fr.loads[x].stride
		zs, zss := fr.loads[z].f, fr.loads[z].stride
		if fr.f32 {
			for t, c, xi, zi := 0, 0, 0, 0; t < fr.n; t, c, xi, zi = t+1, c+ds, xi+xss, zi+zss {
				dst[c] = float64(float32(a*xs[xi] + zs[zi]))
			}
			return hi + 1
		}
		for t, c, xi, zi := 0, 0, 0, 0; t < fr.n; t, c, xi, zi = t+1, c+ds, xi+xss, zi+zss {
			dst[c] = a*xs[xi] + zs[zi]
		}
		return hi + 1
	}
}
