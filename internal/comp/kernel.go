package comp

// Kernel fusion: canonical innermost loops whose body is one
// element-wise affine array statement — copy, fill, scale, axpy-style
// triads, stencil reads, compound assigns, general int/float maps —
// compile into a single Go kernel that walks the raw memory segments
// instead of dispatching one closure per iteration per operand.
//
// The fused-kernel contract (see README "Kernel fusion"):
//
//  1. one hoisted range check per operand per kernel launch — the
//     mem.Segment Float/IntRange API validates [lo,hi) once and hands
//     back the raw cell slice, replacing the per-access bounds checks
//     of the closure backend;
//  2. iterations execute in ascending order reading and writing
//     through the same cells as the closure backend, so aliasing
//     between operands (in-place stencils, overlapping copies)
//     behaves identically;
//  3. float arithmetic is float64 with one float32 rounding at the
//     store exactly when the stored C type is 4 bytes — bit-identical
//     to the closure backend and the interp oracle;
//  4. operands are live views of guest memory, so a kernel caches
//     across iterations only values no operand can read: a reduce
//     kernel whose memory-cell accumulator lies inside one of its own
//     operands (x[3] += x[k]) runs write-through — cell loaded and
//     stored every iteration — instead of accumulating in a local.
//
// Recognition (match.go) compiles the right-hand side of an element
// store to a small postfix tape over operand loads, hoisted invariants
// and the iterator; a shape table then replaces the common tapes (fill,
// copy, scale, triad) by specialized loops and everything else runs on
// the generic tape walker, still with raw-slice operands.

import (
	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// tape opcodes. The tape is the postfix form of the loop body's
// right-hand side; float and int tapes share the arithmetic opcodes.
const (
	opLoad  uint8 = iota // push loads[arg] at the current iteration
	opInv                // push invariant arg (invF/invI)
	opIter               // push the iterator value (int tape)
	opIterF              // push float64(iterator) (float tape)
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

// fusedKernel is a fully recognized fusible loop body before emission.
type fusedKernel struct {
	store kAccess
	loads []kAccess
	invF  []fltFn
	invI  []intFn
	tape  []kOp
	float bool // element kind of the store (and of every load)
	sp    int  // evaluation stack depth after the ops pushed so far
}

// maxTapeDepth bounds the fixed evaluation stack of the tape walker.
const maxTapeDepth = 16

// push appends a tape op and tracks the evaluation stack depth; false
// when the op overflows the walker's fixed stack (the loop then stays
// on the dispatch path).
func (k *fusedKernel) push(op kOp) bool {
	k.tape = append(k.tape, op)
	switch op.code {
	case opLoad, opInv, opIter, opIterF:
		k.sp++
	case opNeg, opNot, opRound:
		// unary: depth unchanged
	default:
		k.sp--
	}
	return k.sp <= maxTapeDepth
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
// identity or one rounding op (inlined pure calls leave those behind).
// Anything else (calls, gathers, int/float casts, mixed-kind subtrees
// that vary with the iterator) rejects the loop.
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
		if k.float {
			k.invF = append(k.invF, fc.num(e))
			return k.push(kOp{code: opInv, arg: len(k.invF) - 1})
		}
		if t.Kind != types.Int {
			return false
		}
		k.invI = append(k.invI, fc.integer(e))
		return k.push(kOp{code: opInv, arg: len(k.invI) - 1})
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
		acc, ok := fc.matchKAccess(x, iter)
		if !ok || acc.float != k.float {
			return false
		}
		k.loads = append(k.loads, acc)
		return k.push(kOp{code: opLoad, arg: len(k.loads) - 1})
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
// Emission

// kframe is the per-launch state of a fused kernel after hoisting.
type kframe struct {
	n     int
	dst   kslice
	f32   bool
	loads []kslice
	invF  []float64
	invI  []int64
	lo    int64
}

// prep hoists everything loop-invariant: operand ranges (one check
// each), invariant scalars, the store rounding mode.
func (k *fusedKernel) prepFrame(e *env, lo, hi int64) kframe {
	fr := kframe{n: int(hi - lo + 1), lo: lo, f32: k.store.f32}
	fr.dst = k.store.prep(e, lo, hi)
	fr.loads = make([]kslice, len(k.loads))
	for i := range k.loads {
		fr.loads[i] = k.loads[i].prep(e, lo, hi)
	}
	if len(k.invF) > 0 {
		fr.invF = make([]float64, len(k.invF))
		for i, f := range k.invF {
			fr.invF[i] = f(e)
		}
	}
	if len(k.invI) > 0 {
		fr.invI = make([]int64, len(k.invI))
		for i, f := range k.invI {
			fr.invI[i] = f(e)
		}
	}
	return fr
}

// emit selects the kernel body: a specialized loop for the common
// shapes, the generic tape walker otherwise.
func (k *fusedKernel) emit() kernRun {
	for _, shape := range kernelShapes {
		if r := shape(k); r != nil {
			return r
		}
	}
	if k.float {
		return k.genericFloat()
	}
	return k.genericInt()
}

// kernelShapes is the table-driven emitter, ordered most-specific
// first: each entry matches the kernel's tape and returns a specialized
// loop (nil = no match). The generic tape walker is the fallback and
// not listed.
var kernelShapes = []func(k *fusedKernel) kernRun{emitFill, emitCopy, emitScale, emitTriad, emitStencil3}

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

// emitFill handles Y[i] = inv.
func emitFill(k *fusedKernel) kernRun {
	if !k.tapeIs(opInv) {
		return nil
	}
	if k.float {
		return func(e *env, lo, hi int64) {
			if hi < lo {
				return
			}
			fr := k.prepFrame(e, lo, hi)
			v := fr.invF[0]
			if fr.f32 {
				v = float64(float32(v))
			}
			dst, ds := fr.dst.f, fr.dst.stride
			for t, c := 0, 0; t < fr.n; t, c = t+1, c+ds {
				dst[c] = v
			}
		}
	}
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		fr := k.prepFrame(e, lo, hi)
		v := fr.invI[0]
		dst, ds := fr.dst.i, fr.dst.stride
		for t, c := 0, 0; t < fr.n; t, c = t+1, c+ds {
			dst[c] = v
		}
	}
}

// emitCopy handles Y[i] = X[i] (same element kind; the explicit
// ascending loop keeps overlapping in-segment copies bit-identical to
// the closure backend, unlike a memmove).
func emitCopy(k *fusedKernel) kernRun {
	if !k.tapeIs(opLoad) {
		return nil
	}
	if k.float {
		return func(e *env, lo, hi int64) {
			if hi < lo {
				return
			}
			fr := k.prepFrame(e, lo, hi)
			dst, ds := fr.dst.f, fr.dst.stride
			src, ss := fr.loads[0].f, fr.loads[0].stride
			if fr.f32 {
				for t, c, s := 0, 0, 0; t < fr.n; t, c, s = t+1, c+ds, s+ss {
					dst[c] = float64(float32(src[s]))
				}
				return
			}
			for t, c, s := 0, 0, 0; t < fr.n; t, c, s = t+1, c+ds, s+ss {
				dst[c] = src[s]
			}
		}
	}
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		fr := k.prepFrame(e, lo, hi)
		dst, ds := fr.dst.i, fr.dst.stride
		src, ss := fr.loads[0].i, fr.loads[0].stride
		for t, c, s := 0, 0, 0; t < fr.n; t, c, s = t+1, c+ds, s+ss {
			dst[c] = src[s]
		}
	}
}

// emitScale handles Y[i] = a * X[i] (either operand order).
func emitScale(k *fusedKernel) kernRun {
	if !k.tapeIs(opInv, opLoad, opMul) && !k.tapeIs(opLoad, opInv, opMul) {
		return nil
	}
	if k.float {
		return func(e *env, lo, hi int64) {
			if hi < lo {
				return
			}
			fr := k.prepFrame(e, lo, hi)
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
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		fr := k.prepFrame(e, lo, hi)
		a := fr.invI[0]
		dst, ds := fr.dst.i, fr.dst.stride
		src, ss := fr.loads[0].i, fr.loads[0].stride
		for t, c, s := 0, 0, 0; t < fr.n; t, c, s = t+1, c+ds, s+ss {
			dst[c] = a * src[s]
		}
	}
}

// emitTriad handles the axpy family Y[i] = a*X[i] + Z[i] in its
// add-commuted operand orders (float addition and multiplication are
// exactly commutative, so one loop serves all of them). Compound
// Y[i] += a*X[i] desugars to the Z=Y instance.
func emitTriad(k *fusedKernel) kernRun {
	var x, z int // load indices of the scaled and added operands
	switch {
	case k.tapeIs(opInv, opLoad, opMul, opLoad, opAdd):
		x, z = 0, 1
	case k.tapeIs(opLoad, opInv, opMul, opLoad, opAdd):
		x, z = 0, 1
	case k.tapeIs(opLoad, opInv, opLoad, opMul, opAdd):
		z, x = 0, 1
	case k.tapeIs(opLoad, opLoad, opInv, opMul, opAdd):
		z, x = 0, 1
	default:
		return nil
	}
	if k.float {
		return func(e *env, lo, hi int64) {
			if hi < lo {
				return
			}
			fr := k.prepFrame(e, lo, hi)
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
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		fr := k.prepFrame(e, lo, hi)
		a := fr.invI[0]
		dst, ds := fr.dst.i, fr.dst.stride
		xs, xss := fr.loads[x].i, fr.loads[x].stride
		zs, zss := fr.loads[z].i, fr.loads[z].stride
		for t, c, xi, zi := 0, 0, 0, 0; t < fr.n; t, c, xi, zi = t+1, c+ds, xi+xss, zi+zss {
			dst[c] = a*xs[xi] + zs[zi]
		}
	}
}

// emitStencil3 handles the 3-point stencil family
// Y[i] = c * (A[i-1] + B[i] + C[i+1]): three loads summed
// left-associatively, optionally scaled by an invariant on either
// side. The edge handling hoists into the per-operand range checks
// (each shifted slice is validated once per launch), leaving a
// check-free interior walk with no tape interpretation. The scale
// multiplies in the matched operand order so NaN payload propagation
// stays bit-identical to the dispatch path.
func emitStencil3(k *fusedKernel) kernRun {
	scaled, invFirst := true, true
	switch {
	case k.tapeIs(opInv, opLoad, opLoad, opAdd, opLoad, opAdd, opMul):
	case k.tapeIs(opLoad, opLoad, opAdd, opLoad, opAdd, opInv, opMul):
		invFirst = false
	case k.tapeIs(opLoad, opLoad, opAdd, opLoad, opAdd):
		scaled = false
	default:
		return nil
	}
	if len(k.loads) != 3 {
		return nil
	}
	if k.float {
		return func(e *env, lo, hi int64) {
			if hi < lo {
				return
			}
			fr := k.prepFrame(e, lo, hi)
			a := 1.0
			if scaled {
				a = fr.invF[0]
			}
			dst, ds := fr.dst.f, fr.dst.stride
			xs, xss := fr.loads[0].f, fr.loads[0].stride
			ys, yss := fr.loads[1].f, fr.loads[1].stride
			zs, zss := fr.loads[2].f, fr.loads[2].stride
			for t, c, xi, yi, zi := 0, 0, 0, 0, 0; t < fr.n; t, c, xi, yi, zi = t+1, c+ds, xi+xss, yi+yss, zi+zss {
				v := xs[xi] + ys[yi] + zs[zi]
				switch {
				case scaled && invFirst:
					v = a * v
				case scaled:
					v = v * a
				}
				if fr.f32 {
					v = float64(float32(v))
				}
				dst[c] = v
			}
		}
	}
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		fr := k.prepFrame(e, lo, hi)
		a := int64(1)
		if scaled {
			a = fr.invI[0]
		}
		dst, ds := fr.dst.i, fr.dst.stride
		xs, xss := fr.loads[0].i, fr.loads[0].stride
		ys, yss := fr.loads[1].i, fr.loads[1].stride
		zs, zss := fr.loads[2].i, fr.loads[2].stride
		for t, c, xi, yi, zi := 0, 0, 0, 0, 0; t < fr.n; t, c, xi, yi, zi = t+1, c+ds, xi+xss, yi+yss, zi+zss {
			v := xs[xi] + ys[yi] + zs[zi]
			if scaled {
				v = a * v
			}
			dst[c] = v
		}
	}
}

// genericFloat is the tape walker for float kernels: a tight postfix
// evaluation over raw slices, no closure dispatch.
func (k *fusedKernel) genericFloat() kernRun {
	tape := k.tape
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		fr := k.prepFrame(e, lo, hi)
		cur := make([]int, len(fr.loads))
		var st [maxTapeDepth]float64
		dst, ds := fr.dst.f, fr.dst.stride
		di := 0
		for t := 0; t < fr.n; t++ {
			sp := 0
			for _, op := range tape {
				switch op.code {
				case opLoad:
					st[sp] = fr.loads[op.arg].f[cur[op.arg]]
					sp++
				case opInv:
					st[sp] = fr.invF[op.arg]
					sp++
				case opIterF:
					st[sp] = float64(fr.lo + int64(t))
					sp++
				case opAdd:
					sp--
					st[sp-1] += st[sp]
				case opSub:
					sp--
					st[sp-1] -= st[sp]
				case opMul:
					sp--
					st[sp-1] *= st[sp]
				case opQuo:
					sp--
					st[sp-1] /= st[sp]
				case opNeg:
					st[sp-1] = -st[sp-1]
				case opRound:
					st[sp-1] = float64(float32(st[sp-1]))
				}
			}
			v := st[0]
			if fr.f32 {
				v = float64(float32(v))
			}
			dst[di] = v
			di += ds
			for j := range cur {
				cur[j] += fr.loads[j].stride
			}
		}
	}
}

// genericInt is the tape walker for integer kernels. Division and
// modulo trap on zero divisors with the closure backend's messages.
func (k *fusedKernel) genericInt() kernRun {
	tape := k.tape
	return func(e *env, lo, hi int64) {
		if hi < lo {
			return
		}
		fr := k.prepFrame(e, lo, hi)
		cur := make([]int, len(fr.loads))
		var st [maxTapeDepth]int64
		dst, ds := fr.dst.i, fr.dst.stride
		di := 0
		for t := 0; t < fr.n; t++ {
			sp := 0
			for _, op := range tape {
				switch op.code {
				case opLoad:
					st[sp] = fr.loads[op.arg].i[cur[op.arg]]
					sp++
				case opInv:
					st[sp] = fr.invI[op.arg]
					sp++
				case opIter:
					st[sp] = fr.lo + int64(t)
					sp++
				case opAdd:
					sp--
					st[sp-1] += st[sp]
				case opSub:
					sp--
					st[sp-1] -= st[sp]
				case opMul:
					sp--
					st[sp-1] *= st[sp]
				case opQuo:
					sp--
					if st[sp] == 0 {
						rtPanic("integer division by zero")
					}
					st[sp-1] /= st[sp]
				case opRem:
					sp--
					if st[sp] == 0 {
						rtPanic("integer modulo by zero")
					}
					st[sp-1] %= st[sp]
				case opAnd:
					sp--
					st[sp-1] &= st[sp]
				case opOr:
					sp--
					st[sp-1] |= st[sp]
				case opXor:
					sp--
					st[sp-1] ^= st[sp]
				case opShl:
					sp--
					st[sp-1] <<= uint(st[sp])
				case opShr:
					sp--
					st[sp-1] >>= uint(st[sp])
				case opNeg:
					st[sp-1] = -st[sp-1]
				case opNot:
					st[sp-1] = ^st[sp-1]
				}
			}
			dst[di] = st[0]
			di += ds
			for j := range cur {
				cur[j] += fr.loads[j].stride
			}
		}
	}
}
