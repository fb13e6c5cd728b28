package comp

// Kernel fusion: canonical innermost loops whose body is one
// fusible statement — an element-wise affine array store (copy, fill,
// scale, axpy-style triads, stencil reads, compound assigns, gathers,
// general int/float maps), a sum, dot or min/max fold into an
// accumulator, or a histogram scatter — compile into a single Go kernel
// that walks the raw memory segments instead of dispatching one closure
// per iteration per operand.
//
// The fused-kernel contract (see README "Kernel fusion"):
//
//  1. one hoisted range check per affine operand per kernel launch —
//     the mem.Segment Float/IntRange API validates [lo,hi) once and
//     hands back the raw cell slice, replacing the per-access bounds
//     checks of the closure backend; a data-dependent cell (a gathered
//     load, a scatter target) is compared per element;
//  2. every iteration reads and writes the cells the closure backend's
//     ascending loop would, with the values it would find there, so
//     aliasing between operands (in-place stencils, overlapping
//     copies) behaves identically: the single-pass loops below run
//     ascending, the strip evaluator bounds its strips by the distance
//     rule (strip.go, hazard below);
//  3. float arithmetic is float64 with one float32 rounding at the
//     store exactly when the stored C type is 4 bytes — bit-identical
//     to the closure backend and the interp oracle;
//  4. operands are live views of guest memory, so a kernel caches
//     across iterations only values no operand can read: a fold's
//     accumulator cell and a scatter's target are stores to the
//     distance rule, so one that an operand can read (x[3] += x[k], a
//     histogram whose target is its own index array) runs element by
//     element, written through every iteration;
//  5. an integer division or modulo by zero, and a gathered load
//     outside its array, trap with the dispatch loop's message, after
//     exactly the cells the dispatch loop would have written (replay,
//     strip.go).
//
// Recognition (match.go) classifies the statement by its sink and
// compiles the value the sink consumes to a small postfix tape over
// operand loads, at most one gathered load, hoisted invariants and the
// iterator. strip.go lowers the tape to a register program and runs it
// a strip of elements at a time into the sink; two float shapes (scale,
// triad) keep a single-pass loop in front of it. Either way the launch
// state is a kframe on the Go stack: a launch allocates nothing.

import (
	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// tape opcodes. The tape is the postfix form of the loop body's
// right-hand side; float and int tapes share the arithmetic opcodes.
const (
	opLoad   uint8 = iota // push loads[arg] at the current iteration
	opInv                 // push invariant arg (invF/invI)
	opIter                // push the iterator value (int tape)
	opIterF               // push float64(iterator) (float tape)
	opGather              // push the kernel's gathered load, its index cell loads[arg]
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

type kOp struct {
	code uint8
	arg  int
}

// Sinks: what a kernel does with the value its program computes.
const (
	sinkStore   uint8 = iota // store[i] = v
	sinkSum                  // acc += v, in ascending order
	sinkMin                  // if (v < acc) acc = v
	sinkMax                  // if (v > acc) acc = v
	sinkScatter              // gat[v] op= the kernel's one invariant
)

// fusedKernel is a recognized tape kernel: the sink and its target, the
// operands, and the tape — first in postfix form, then lowered to the
// register program the strip evaluator runs.
type fusedKernel struct {
	store kAccess // sinkStore
	// acc is the frame slot of a fold's accumulator, or cell its
	// iterator-invariant memory cell.
	acc  int
	cell ptrFn
	// gat is the data-dependent array: the source of the opGather load,
	// or the scatter target, which op updates.
	gat kGather
	op  token.Kind

	loads []kAccess
	invF  []fltFn
	invI  []intFn
	// loadX and invX hold the syntax node each load and invariant was
	// built from: a node met again — inlining substitutes one argument
	// node for every read of its parameter — is the same operand. gatX
	// is the node the classifier matched as the gathered load.
	loadX []ast.Expr
	invX  []ast.Expr
	gatX  ast.Expr
	tape  []kOp

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

// maxTapeDepth bounds the evaluation stack a tape may need: the
// lowering's stack is that deep.
const maxTapeDepth = 16

// push appends a tape op; false when the tape outgrows what a lowering
// looks at (the loop then stays on the dispatch path).
func (k *fusedKernel) push(op kOp) bool {
	k.tape = append(k.tape, op)
	return len(k.tape) <= maxNodes
}

// tapeOp maps a binary operator token to its tape opcode for the
// element kind.
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

// buildTape compiles e into postfix tape ops of the kernel's element
// kind. Whole loop-invariant subexpressions hoist into one evaluation
// per launch; affine array accesses become raw-slice loads; the
// iterator itself is a leaf; a conversion between float types is the
// identity or one rounding op (inlined pure calls leave those behind);
// the node the classifier matched as the kernel's gather is the
// gathered load. Anything else (calls, other gathers, int/float casts,
// mixed-kind subtrees that vary with the iterator) rejects the loop.
func (fc *funcCompiler) buildTape(k *fusedKernel, e ast.Expr, iter *sema.Symbol) bool {
	e = stripParens(e)
	if fc.hoistable(e, iter) {
		// Invariant leaf: any effect-free scalar expression, evaluated
		// once per launch. fc.num converts invariant int subtrees in
		// float context exactly like the closure backend does.
		t := fc.exprType(e)
		if t == nil || (t.Kind != types.Int && t.Kind != types.Float) {
			return false
		}
		if !k.float && t.Kind != types.Int {
			return false
		}
		j := indexOfExpr(k.invX, e)
		if j < 0 {
			j = len(k.invX)
			k.invX = append(k.invX, e)
			if k.float {
				k.invF = append(k.invF, fc.num(e))
			} else {
				k.invI = append(k.invI, fc.integer(e))
			}
		}
		return k.push(kOp{code: opInv, arg: j})
	}
	switch x := e.(type) {
	case *ast.Ident:
		if fc.prog.info.Ref[x] != iter {
			return false
		}
		if k.float {
			return k.push(kOp{code: opIterF})
		}
		return k.push(kOp{code: opIter})
	case *ast.IndexExpr:
		if e == k.gatX {
			k.loads, k.loadX = append(k.loads, k.gat.idx), append(k.loadX, nil)
			return k.push(kOp{code: opGather, arg: len(k.loads) - 1})
		}
		j := indexOfExpr(k.loadX, e)
		if j < 0 {
			acc, ok := fc.matchKAccess(x, iter)
			if !ok || acc.float != k.float {
				return false
			}
			j = len(k.loads)
			k.loads, k.loadX = append(k.loads, acc), append(k.loadX, e)
		}
		return k.push(kOp{code: opLoad, arg: j})
	case *ast.BinaryExpr:
		op, ok := tapeOp(x.Op, k.float)
		if !ok {
			return false
		}
		// The node's own C type must match the tape kind: an int-typed
		// subtree that varies with the iterator (e.g. i/2 stored to a
		// float array) computes in integer arithmetic in the closure
		// backend — evaluating it with float ops would diverge.
		t := fc.exprType(e)
		if t == nil || (k.float && t.Kind != types.Float) || (!k.float && t.Kind != types.Int) {
			return false
		}
		if k.float {
			// Both operand subtrees must be float-typed or reduce to
			// invariant/iterator leaves the float tape can represent.
			if !fc.floatTapeOperand(x.X, iter) || !fc.floatTapeOperand(x.Y, iter) {
				return false
			}
		}
		return fc.buildTape(k, x.X, iter) && fc.buildTape(k, x.Y, iter) && k.push(kOp{code: op})
	case *ast.CastExpr:
		t, in := fc.exprType(x), fc.exprType(x.X)
		if t == nil || in == nil || t.Kind != in.Kind || !t.IsArith() || (t.Kind == types.Float) != k.float {
			return false
		}
		if !fc.buildTape(k, x.X, iter) {
			return false
		}
		if k.float && t.CSize == 4 && !fc.f32Exact(x.X) {
			return k.push(kOp{code: opRound})
		}
		return true
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			return fc.buildTape(k, x.X, iter) && k.push(kOp{code: opNeg})
		case token.TILDE:
			return !k.float && fc.buildTape(k, x.X, iter) && k.push(kOp{code: opNot})
		}
	}
	return false
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

// floatTapeOperand reports whether e can be a float-tape subtree: a
// float-typed expression, or an int-typed leaf the tape converts (the
// iterator, or an invariant expression routed through fc.num).
func (fc *funcCompiler) floatTapeOperand(e ast.Expr, iter *sema.Symbol) bool {
	e = stripParens(e)
	t := fc.exprType(e)
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

// kframe is the per-launch state of a tape kernel after hoisting. It
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

// strideAny is the stride of a data-dependent operand: it meets no
// affine stride, so any overlap with it runs element by element.
const strideAny = -1

// prepFrame hoists everything loop-invariant: the sink's target and the
// operand ranges (one check each), the strip length their overlap
// allows, invariant scalars, the sink's rounding mode.
func (k *fusedKernel) prepFrame(fr *kframe, e *env, lo, hi int64) {
	fr.n, fr.lo, fr.strip, fr.f32 = int(hi-lo+1), lo, stripLen, k.f32
	var st kspan
	ss := k.store.stride
	switch {
	case k.sink == sinkStore:
		st = k.store.span(e, lo, hi)
		k.store.cells(st, &fr.dst)
	case k.cell != nil:
		// The accumulator cell is a store of stride 0, at every element.
		p := k.cell(e)
		st, ss = kspan{p.Seg, int64(p.Off), int64(p.Off)}, 0
		cells := p.Seg.F
		fr.accF = &cells[p.Off] // the dispatch loop's access, and its trap
	case k.float:
		fr.accF = &e.F[k.acc]
	case k.sink != sinkScatter:
		fr.accI = &e.I[k.acc]
	}
	if k.gat.base != nil {
		// A null base faults here as on the dispatch loop's first access.
		// The array is a scatter's store, or a gathered load against the
		// store (against itself, the scatter's is the same walk).
		fr.gat = k.gat.base(e)
		all := kspan{fr.gat.Seg, 0, int64(fr.gat.Seg.Len()) - 1}
		if k.sink == sinkScatter {
			st, ss = all, strideAny
		}
		fr.strip = hazard(st, ss, all, strideAny)
	}
	for i := range k.loads {
		ld := k.loads[i].span(e, lo, hi)
		k.loads[i].cells(ld, &fr.loads[i])
		fr.strip = min(fr.strip, hazard(st, ss, ld, k.loads[i].stride))
	}
	for i, f := range k.invF {
		fr.invF[i] = f(e)
	}
	for i, f := range k.invI {
		fr.invI[i] = f(e)
	}
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
// Two float tapes keep a specialized single-pass loop in front of the
// strip evaluator, because there a pass per op costs what the whole
// loop does: the store rounds through float32, and that rounding is as
// expensive as the arithmetic it follows (see CHANGES.md, PR 22, for
// the numbers that kept these and retired the fill, copy and stencil
// loops and the integer twins of these two).

// tapeIs matches the kernel tape against an opcode signature.
func (k *fusedKernel) tapeIs(codes ...uint8) bool {
	if len(k.tape) != len(codes) {
		return false
	}
	for i, c := range codes {
		if k.tape[i].code != c {
			return false
		}
	}
	return true
}

// emitScale handles the float Y[i] = a * X[i] (either operand order).
func emitScale(k *fusedKernel) kernRun {
	if !k.float || (!k.tapeIs(opInv, opLoad, opMul) && !k.tapeIs(opLoad, opInv, opMul)) {
		return nil
	}
	return func(e *env, lo, hi int64) {
		var fr kframe
		k.prepFrame(&fr, e, lo, hi)
		a := fr.invF[0]
		dst, ds := fr.dst.f, fr.dst.stride
		src, ss := fr.loads[0].f, fr.loads[0].stride
		if fr.f32 {
			for t, c, s := 0, 0, 0; t < fr.n; t, c, s = t+1, c+ds, s+ss {
				dst[c] = float64(float32(a * src[s]))
			}
			return
		}
		for t, c, s := 0, 0, 0; t < fr.n; t, c, s = t+1, c+ds, s+ss {
			dst[c] = a * src[s]
		}
	}
}

// emitTriad handles the float axpy family Y[i] = a*X[i] + Z[i] in its
// add-commuted operand orders (float addition and multiplication are
// exactly commutative, so one loop serves all of them). Compound
// Y[i] += a*X[i] desugars to the Z=Y instance.
func emitTriad(k *fusedKernel) kernRun {
	var x, z int // tape positions of the scaled and the added load
	switch {
	case !k.float:
		return nil
	case k.tapeIs(opInv, opLoad, opMul, opLoad, opAdd):
		x, z = 1, 3
	case k.tapeIs(opLoad, opInv, opMul, opLoad, opAdd):
		x, z = 0, 3
	case k.tapeIs(opLoad, opInv, opLoad, opMul, opAdd):
		z, x = 0, 2
	case k.tapeIs(opLoad, opLoad, opInv, opMul, opAdd):
		z, x = 0, 1
	default:
		return nil
	}
	// One inlined argument read twice is one load: the indices come from
	// the tape, not from the positions.
	x, z = k.tape[x].arg, k.tape[z].arg
	return func(e *env, lo, hi int64) {
		var fr kframe
		k.prepFrame(&fr, e, lo, hi)
		a := fr.invF[0]
		dst, ds := fr.dst.f, fr.dst.stride
		xs, xss := fr.loads[x].f, fr.loads[x].stride
		zs, zss := fr.loads[z].f, fr.loads[z].stride
		if fr.f32 {
			for t, c, xi, zi := 0, 0, 0, 0; t < fr.n; t, c, xi, zi = t+1, c+ds, xi+xss, zi+zss {
				dst[c] = float64(float32(a*xs[xi] + zs[zi]))
			}
			return
		}
		for t, c, xi, zi := 0, 0, 0, 0; t < fr.n; t, c, xi, zi = t+1, c+ds, xi+xss, zi+zss {
			dst[c] = a*xs[xi] + zs[zi]
		}
	}
}
