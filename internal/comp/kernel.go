package comp

// Kernel fusion: a canonical loop whose body tape the lifter (lift.go)
// reads as a kernel — an element-wise store (copy, fill, scale, triads,
// stencils, compound assigns, gathers, general int/float maps), a sum,
// dot or min/max fold into an accumulator, or a histogram scatter —
// runs as a Go kernel that walks the raw memory segments instead of
// dispatching tape instructions per iteration per operand.
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
//  3. float arithmetic is float64 with float32 roundings exactly where
//     the body's tape rounds — bit-identical to the dispatch loop and
//     the interp oracle;
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
// A kernel is a sink, strided operands, at most one gathered load, and
// value-numbered nodes over them, the iterator and launch invariants.
// strip.go lowers the nodes to a register program and runs it a strip
// of elements at a time into the sink; two float shapes (scale, triad)
// keep a single-pass loop in front of it. Either way the launch state
// is a kframe on the Go stack: prepFrame reads the bases and invariant
// registers the body reads, computes once the invariants the body
// would compute every iteration, and checks every operand's range — a
// launch allocates nothing, and its tape code is only the bounds.

import (
	"math"

	"purec/internal/mem"
	"purec/internal/token"
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
	sinkScatter              // gat[v] op= invariant upd
)

// fusedKernel is a lifted kernel: the sink and its target, the
// operands, the launch invariants and the expression the sink consumes
// — first as nodes, then lowered to the register program the strip
// evaluator runs.
type fusedKernel struct {
	// store is the stored array of a map, or with cell the memory cell
	// a float sum folds into (stride 0); acc is the frame slot a
	// register fold accumulates into, or the pointer slot a scatter's
	// target is read from ({slotPtr, -1} for none).
	store kAccess
	cell  bool
	acc   slot
	// gat is the data-dependent array (when gathered): the source of the
	// opGather load, or the scatter target, which op updates by the
	// invariant in slot upd.
	gat      kGather
	gathered bool
	op       token.Kind
	upd      int8
	// body is what a launch runs (the body… constants of strip.go), and
	// for the two float shapes sx, sa and sz name the X load, the
	// invariant a and the Z load of a*X[i] (+ Z[i]).
	body       uint8
	sx, sa, sz int8

	loads []kAccess
	// invs is the launch program: the invariants, each an lnode whose a
	// and b name the slots of earlier ones (a pointer load reads base
	// slot b at index slot a times c cells).
	invs []lnode
	// nodes is the expression, its root last, in the compile's scratch
	// buffer until the kernel is emitted.
	nodes []knode

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

// kAccess is one array operand of a fused kernel: the pointer in
// invariant slot base, and the cell off·scale + stride·iter from it,
// off an invariant slot (-1 for none) and scale the tape access's
// element stride.
type kAccess struct {
	base   int8
	off    int8
	scale  int64
	stride int64 // cells per iteration, 0 = invariant access
	float  bool
}

// kGather is the gathered array of a kernel: the pointer in invariant
// slot base, and the ?:-clamp of the indices it is read at (open sides
// are the int64 extremes).
type kGather struct {
	base   int8
	lo, hi int64
	float  bool
}

// kslice is one prepared operand: the checked raw cells plus the
// per-iteration stride within them.
type kslice struct {
	f      []float64
	i      []int64
	stride int
}

// kspan is the cell range [first, last] of seg one operand touches
// over a launch.
type kspan struct {
	seg         *mem.Segment
	first, last int64
}

// span locates the operand's cells for iterations [lo, hi]; a null
// base has no segment.
func (a *kAccess) span(fr *kframe, lo, hi int64) kspan {
	p := fr.invP[a.base]
	off := int64(p.Off)
	if a.off >= 0 {
		off += fr.invI[a.off] * a.scale
	}
	return kspan{seg: p.Seg, first: off + a.stride*lo, last: off + a.stride*hi}
}

// cells range-checks a located operand — the hoisted per-launch check —
// and hands its raw cells to the zeroed frame slot s. It reports false
// when the operand has no segment, a freed one, or runs off its array.
func (a *kAccess) cells(sp kspan, s *kslice) bool {
	if sp.seg == nil {
		return false
	}
	s.stride = int(a.stride)
	var err error
	if a.float {
		s.f, err = sp.seg.FloatRange(sp.first, sp.last+1)
	} else {
		s.i, err = sp.seg.IntRange(sp.first, sp.last+1)
	}
	return err == nil
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
	invP  [maxInvs]mem.Pointer
}

// invariants computes the launch invariants in slot order from the
// registers and global slots the body reads. An integer division by
// zero or a pointer load off its array among them makes it report
// false: the launch does not start, and the dispatch body raises the
// trap in iteration order.
func (k *fusedKernel) invariants(fr *kframe, e *env) bool {
	for s := range k.invs {
		iv := &k.invs[s]
		a, b := max(iv.a, 0), max(iv.b, 0)
		// The slot and its operands as one-cell columns of the strip ops.
		vi, xi, yi := fr.invI[s:s+1], fr.invI[a:a+1], fr.invI[b:b+1]
		vf, xf, yf := fr.invF[s:s+1], fr.invF[a:a+1], fr.invF[b:b+1]
		switch {
		case iv.op == opReg || iv.op == opGlob:
			I, F, P := e.I, e.F, e.P
			if iv.op == opGlob {
				I, F, P = e.p.gI, e.p.gF, e.p.gP
			}
			switch iv.kind {
			case tkI:
				vi[0] = I[iv.r]
			case tkF:
				vf[0] = F[iv.r]
			default:
				fr.invP[s] = P[iv.r]
			}
		case iv.op == opConst:
			vi[0], vf[0] = iv.c, math.Float64frombits(uint64(iv.c))
		case iv.op == opLoad: // a pointer cell
			p := fr.invP[b]
			if p.IsNull() {
				return false
			}
			cells, c := p.Seg.P, int64(p.Off)+xi[0]*iv.c
			if uint64(c) >= uint64(len(cells)) {
				return false
			}
			fr.invP[s] = cells[c]
		case iv.op == opI2F:
			vf[0] = float64(xi[0])
		case iv.op == opRound:
			vf[0] = float64(float32(xf[0]))
		case iv.op == opNeg && iv.kind == tkF:
			negStrip(vf, xf)
		case iv.op == opNeg:
			negStrip(vi, xi)
		case iv.op == opNot:
			vi[0] = ^xi[0]
		case iv.kind == tkF:
			arith(iv.op, formVV, vf, xf, yf, 0)
		case (iv.op == opQuo || iv.op == opRem) && yi[0] == 0:
			return false
		case iv.op <= opQuo:
			arith(iv.op, formVV, vi, xi, yi, 0)
		default:
			intStrip(iv.op, formVV, vi, xi, yi, 0)
		}
	}
	return true
}

// strideAny is the stride of a data-dependent operand: it meets no
// affine stride, so any overlap with it runs element by element.
const strideAny = -1

// prepFrame computes the launch invariants and reads everything else
// loop-invariant: the sink's target and the operand ranges (one check
// each), the strip length their overlap allows, the sink's rounding
// mode. It reports false when the launch cannot start — an invariant
// divides by zero, a base is null or freed, an operand or the
// accumulator cell lies outside its array — and then the dispatch body
// runs the whole range.
func (k *fusedKernel) prepFrame(fr *kframe, e *env, lo, hi int64) bool {
	fr.n, fr.lo, fr.strip, fr.f32 = int(hi-lo+1), lo, stripLen, k.f32
	if !k.invariants(fr, e) {
		return false
	}
	var st kspan
	ss := k.store.stride
	switch {
	case k.sink == sinkStore || k.cell:
		// An accumulator cell is a store of stride 0, at every element.
		st = k.store.span(fr, lo, hi)
		if !k.store.cells(st, &fr.dst) {
			return false
		}
		if k.cell {
			fr.accF = &fr.dst.f[0]
		}
	case k.float:
		fr.accF = &e.F[k.acc.idx]
	case k.sink != sinkScatter:
		fr.accI = &e.I[k.acc.idx]
	}
	if k.gathered {
		// The array is a scatter's store, or a gathered load against the
		// store (against itself, the scatter's is the same walk); its
		// cells are compared element by element.
		if fr.gat = fr.invP[k.gat.base]; fr.gat.IsNull() {
			return false
		}
		all := kspan{fr.gat.Seg, 0, int64(fr.gat.Seg.Len()) - 1}
		if k.sink == sinkScatter {
			st, ss = all, strideAny
		}
		fr.strip = hazard(st, ss, all, strideAny)
	}
	for i := range k.loads {
		ld := k.loads[i].span(fr, lo, hi)
		if !k.loads[i].cells(ld, &fr.loads[i]) {
			return false
		}
		fr.strip = min(fr.strip, hazard(st, ss, ld, k.loads[i].stride))
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

// shape matches a float map against the two shapes and sets the
// launch body and its operands. Float addition and multiplication are
// exactly commutative, so one loop serves every operand order; compound
// Y[i] += a*X[i] desugars to the Z=Y instance of the triad.
func (k *fusedKernel) shape() bool {
	if !k.float || k.sink != sinkStore {
		return false
	}
	root := int8(len(k.nodes) - 1)
	if x, a, ok := k.scaled(root); ok {
		k.body, k.sx, k.sa = bodyScale, x, a
		return true
	}
	nd := k.nodes[root]
	if nd.code != opAdd {
		return false
	}
	p, q := nd.a, nd.b
	if k.nodes[p].code == opLoad {
		p, q = q, p
	}
	x, a, ok := k.scaled(p)
	if !ok || k.nodes[q].code != opLoad {
		return false
	}
	k.body, k.sx, k.sa, k.sz = bodyTriad, x, a, k.nodes[q].a
	return true
}

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

// axpy runs the two shapes: the scale Y[i] = a*X[i] and the triad
// Y[i] = a*X[i] + Z[i].
func (k *fusedKernel) axpy(e *env, lo, hi int64) int64 {
	var fr kframe
	if !k.prepFrame(&fr, e, lo, hi) {
		return lo
	}
	a := fr.invF[k.sa]
	dst, ds := fr.dst.f, fr.dst.stride
	xs, xss := fr.loads[k.sx].f, fr.loads[k.sx].stride
	zs, zss := fr.loads[k.sz].f, fr.loads[k.sz].stride
	switch {
	case k.body == bodyScale && fr.f32:
		for t, c, xi := 0, 0, 0; t < fr.n; t, c, xi = t+1, c+ds, xi+xss {
			dst[c] = float64(float32(a * xs[xi]))
		}
	case k.body == bodyScale:
		for t, c, xi := 0, 0, 0; t < fr.n; t, c, xi = t+1, c+ds, xi+xss {
			dst[c] = a * xs[xi]
		}
	case fr.f32:
		for t, c, xi, zi := 0, 0, 0, 0; t < fr.n; t, c, xi, zi = t+1, c+ds, xi+xss, zi+zss {
			dst[c] = float64(float32(a*xs[xi] + zs[zi]))
		}
	default:
		for t, c, xi, zi := 0, 0, 0, 0; t < fr.n; t, c, xi, zi = t+1, c+ds, xi+xss, zi+zss {
			dst[c] = a*xs[xi] + zs[zi]
		}
	}
	return hi + 1
}
