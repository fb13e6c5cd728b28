package comp

//lint:file-rawmem the dispatch loop's indexed load/store opcodes rely on the
// Go runtime's slice bounds check, recovered by Process.CallInt into the same
// trap the mem accessors raise (see the tape contract below) — routing the
// hot path through mem would re-add the call overhead the tape exists to cut.

// Linearized bytecode: statement/expression trees flatten into a flat
// instruction array executed by one switch-dispatch loop, operands in
// fixed frame slots, immediates or the constant pools — no per-node
// closures and no interface calls on the hot path. The tape compiler
// (tapecompile.go) picks the superinstructions below as it emits, in
// one pass. The tape is the only statement engine.
//
// The tape contract is the interp oracle's, bit for bit:
//
//   - operands evaluate in the oracle's order, so side effects inside
//     subexpressions observe the same intermediate state;
//   - float arithmetic is float64, rounded through float32 at exactly
//     the oracle's store-rounding points (4-byte stores, declarations,
//     returns, casts): a rounding point is a tRoundF, or it is folded
//     into the op that produced the value (the …R forms below);
//   - traps reuse the same primitives (rtPanic messages, addScaled,
//     DiffChecked, raw Load/Store panics recovered by Process.CallInt),
//     so bounds, overflow, use-after-free poisoning and cross-segment
//     pointer diffs fail with the oracle's text.
//
// Temp registers extend the function frame beyond its locals, so worker
// clones privatize them for free and execution allocates nothing. Temps
// never live across a statement boundary, which lets nested tapes (the
// bodies of parallel regions run on the same environment) reuse the
// same register space.
//
// Calls, printf and malloc are ops whose out-of-line operand (a site in
// the program's pools) names the registers they read; tStmt launches a
// parallel region or a fused kernel over bounds and operands the tape
// computed into registers just before it.

import (
	"math"

	"purec/internal/mem"
)

// nullPtr is the null pointer constant stored by tNullP/tIntToPtr.
var nullPtr mem.Pointer

// topcode is a tape instruction opcode (the lifter maps it to kernel.go's).
type topcode uint8

const (
	tNop topcode = iota

	// Integer register ops: a = destination, b/c = operands.
	tConstI // I[a] = constI[b]
	tMovI   // I[a] = I[b]
	tAddI   // I[a] = I[b] + I[c]
	tSubI
	tMulI
	tDivI // traps "integer division by zero"
	tRemI // traps "integer modulo by zero"
	tAndI
	tOrI
	tXorI
	tShlI
	tShrI
	tNegI  // I[a] = -I[b]
	tCmplI // I[a] = ^I[b]
	tNotI  // I[a] = 1 if I[b] == 0 else 0
	tEqI   // I[a] = 1 if I[b] == I[c] else 0 (…tGeI likewise)
	tNeI
	tLtI
	tLeI
	tGtI
	tGeI

	// Float register ops.
	tConstF // F[a] = constF[b]
	tMovF
	tAddF
	tSubF
	tMulF
	tDivF
	tNegF
	tRoundF // F[a] = float64(float32(F[b])) — C float store rounding
	tI2F    // F[a] = float64(I[b])
	tF2I    // I[a] = int64(F[b]) — C truncation
	tTstF   // I[a] = 1 if F[b] != 0 else 0
	tEqF    // I[a] = 1 if F[b] == F[c] else 0 (…tGeF likewise)
	tNeF
	tLtF
	tLeF
	tGtF
	tGeF

	// Global slot access (globals live in Process storage).
	tLdGI // I[a] = gI[b]
	tStGI // gI[a] = I[b]
	tLdGF
	tStGF
	tLdGP
	tStGP

	// Pointer ops.
	tMovP
	tNullP    // P[a] = null
	tTstP     // I[a] = 1 if !P[b].IsNull() else 0
	tIntToPtr // P[a] = null when I[b] == 0, else traps (int→ptr cast)
	tPtrIdx   // P[a] = P[b].Add(I[c]*aux) — unchecked address arithmetic
	tPtrOff   // P[a] = P[b].Add(I[c])
	tPtrImm   // P[a] = P[b].Add(aux)
	tPtrAdd   // P[a] = addScaled(P[b], I[c], aux) — checked ptr value arith
	tPtrSub   // P[a] = addScaled(P[b], -I[c], aux)
	tPtrDiff  // I[a] = P[b].DiffChecked(P[c]) / aux
	tPtrEq    // I[a] = 1 if P[b] == P[c] else 0 (whole-Pointer equality)
	tPtrNe
	tPtrLt // I[a] = 1 if P[b].Off < P[c].Off else 0 (…tPtrGe likewise)
	tPtrLe
	tPtrGt
	tPtrGe

	// Memory access through a pointer register. Bounds and use-after-
	// free poisoning trap inside mem.
	tLdInd  // I[a] = P[b].LoadInt()
	tLdIndF // F[a] = P[b].LoadFloat()
	tLdIndP // P[a] = P[b].LoadPtr()
	tStInd  // P[a].StoreInt(I[b])
	tStIndF // P[a].StoreFloat(F[b])
	tStIndP // P[a].StorePtr(P[b])

	// Control flow: taken jumps do pc += a (relative, patched).
	tJmp
	tJz  // when I[b] == 0
	tJnz // when I[b] != 0
	tRet
	tRetI // retI = I[a]; return
	tRetF
	tRetP
	tBrk  // return ctrlBreak (break with no enclosing tape loop)
	tCont // return ctrlContinue

	// Builtins.
	tAbsI   // I[a] = |I[b]|
	tMinI   // I[a] = min(I[b], I[c])
	tMaxI   // I[a] = max(I[b], I[c])
	tFloorD // I[a] = floord(I[b], I[c]), traps on a zero divisor
	tCeilD  // I[a] = ceild(I[b], I[c])
	tRand   // I[a] = rand()
	tSrand  // srand(I[b])
	tMath1  // F[a] = mathFns[c].f1(F[b])
	tMath2  // F[a] = mathFns[aux].f2(F[b], F[c])
	tConstP // P[a] = constP[b] (a string literal)
	tMalloc // P[a] = mallocs[b] of I[c] bytes
	tFree   // free(P[b])

	// Site ops: b indexes a pool entry that names the registers read.
	tCall   // a = calls[b](args); a is the result register of its kind
	tPrintf // printfs[b](args)
	tStmt   // launches[b] over [I[a], I[c]]: a parallel region or kernel

	// ------------------------------------------------------------------
	// Fused superinstructions. Each one is semantically the exact
	// sequence of the plain ops above it stands for — same operand
	// values, same trap points, same float64 arithmetic and float32
	// rounding — without the intermediate temp registers.

	// Integer ops with an immediate operand in aux.
	tAddII // I[a] = I[b] + aux
	tRsbII // I[a] = aux - I[b]
	tMulII
	tDivII // I[a] = I[b] / aux — only emitted with aux != 0
	tRemII
	tAndII
	tOrII
	tXorII
	tShlII // I[a] = I[b] << uint(aux)
	tShrII
	tEqII // I[a] = 1 if I[b] == aux else 0 (…tGeII likewise)
	tNeII
	tLtII
	tLeII
	tGtII
	tGeII
	tMaxII // I[a] = max(I[b], aux) — a ?: clamp v < K ? K : v
	tMinII // I[a] = min(I[b], aux) — a ?: clamp v > K ? K : v

	// Float ops against a pooled constant: c indexes constF.
	tAddFC // F[a] = F[b] + constF[c]
	tSubFC
	tRsbFC // F[a] = constF[c] - F[b]
	tMulFC
	tDivFC
	tRdivFC // F[a] = constF[c] / F[b]
	tEqFC   // I[a] = 1 if F[b] == constF[c] else 0 (…tGeFC likewise)
	tNeFC
	tLtFC
	tLeFC
	tGtFC
	tGeFC

	// Fused multiply-add. The explicit float64 conversion around the
	// product pins the two separate roundings of the unfused ops — Go
	// may not contract the expression into an FMA.
	tMulAddF  // F[a] = float64(F[b]*F[c]) + F[aux]
	tMulAddFC // F[a] = float64(F[b]*constF[c]) + F[aux]
	tAddMulF  // F[a] = F[aux] + float64(F[b]*F[c])
	tAddMulFC // F[a] = F[aux] + float64(F[b]*constF[c])

	// Fused compare-and-branch: pc += a when the predicate (negated by
	// the flag) holds. Int predicates carry the negate flag in aux
	// (reg-reg) or c (immediate, aux = constant); float predicates are
	// never negated away (NaN), so all six exist and the flag picks the
	// jz/jnz sense exactly: jump iff pred != flag.
	tJeqI  // pred I[b] == I[c], negate in aux
	tJltI  // pred I[b] < I[c]
	tJleI  // pred I[b] <= I[c]
	tJeqII // pred I[b] == aux, negate in c
	tJltII
	tJleII
	tJeqF // pred F[b] == F[c], negate in aux
	tJneF
	tJltF
	tJleF
	tJgtF
	tJgeF
	tJeqFC // pred F[b] == constF[c], negate in aux
	tJneFC
	tJltFC
	tJleFC
	tJgtFC
	tJgeFC
	tJzF      // when F[b] == 0
	tJnzF     // when F[b] != 0
	tJzP      // when P[b].IsNull()
	tJnzP     // when !P[b].IsNull()
	tIncJltII // I[b]++; jump when I[b] < aux (rotated loop tail)
	tIncJltI  // I[b]++; jump when I[b] < I[c] (rotated loop tail)

	// Indexed memory superinstructions: base reload + index arithmetic +
	// access in one step. b = base (global P slot on the G forms, frame
	// P slot otherwise), c = index I slot, aux = element stride; a is the
	// loaded destination or stored value slot. The address is
	// Off + int(I[c]*aux) — exactly Pointer.Add — and the raw Seg access
	// panics identically to Load/Store on every bad pointer.
	tLdGIdx  // I[a] = gP[b].Seg.I[Off+I[c]*aux]
	tLdGIdxF // F[a] = gP[b].Seg.F[Off+I[c]*aux]
	tLdGIdxP
	tLdGIdxFR // tLdGIdxF then float32 store rounding
	tStGIdx   // gP[b].Seg.I[Off+I[c]*aux] = I[a]
	tStGIdxF
	tStGIdxP
	tStGIdxFR // stores float64(float32(F[a]))
	tLdIdx    // I[a] = P[b].Seg.I[Off+I[c]*aux]
	tLdIdxF
	tLdIdxP
	tLdIdxFR
	tStIdx // P[b].Seg.I[Off+I[c]*aux] = I[a]
	tStIdxF
	tStIdxP
	tStIdxFR

	// Rounded float ops: the op, then tRoundF on its destination —
	// F[a] = float64(float32(op)) — for a value rounded where it is
	// made. rounded maps each op to its form.
	tAddFR
	tSubFR
	tMulFR
	tDivFR
	tNegFR
	tI2FR
	tAddFCR
	tSubFCR
	tRsbFCR
	tMulFCR
	tDivFCR
	tRdivFCR
	tMulAddFR
	tMulAddFCR
	tAddMulFR
	tAddMulFCR
)

// rounded is the rounded form of each float op that writes F[a], 0 for
// every other op.
var rounded = [256]topcode{
	tAddF: tAddFR, tSubF: tSubFR, tMulF: tMulFR, tDivF: tDivFR,
	tNegF: tNegFR, tI2F: tI2FR,
	tAddFC: tAddFCR, tSubFC: tSubFCR, tRsbFC: tRsbFCR,
	tMulFC: tMulFCR, tDivFC: tDivFCR, tRdivFC: tRdivFCR,
	tMulAddF: tMulAddFR, tMulAddFC: tMulAddFCR,
	tAddMulF: tAddMulFR, tAddMulFC: tAddMulFCR,
}

// tinstr is one tape instruction word.
type tinstr struct {
	op      topcode
	a, b, c int32
	aux     int64
}

// tape is one compiled instruction sequence. The main body of a
// function compiles to one tape; each parallel-region body compiles to
// its own tape sharing the function's temp register space. All tapes
// of a program share one set of pools.
type tape struct {
	code []tinstr
	*tapePools
}

// tapePools are the constant and site pools shared by every tape of
// one program; instructions index them through b.
type tapePools struct {
	constI []int64
	constF []float64
	constP []mem.Pointer

	calls    []callSite
	printfs  []printfSite
	mallocs  []mallocSite
	launches []launch

	// constant dedup indexes, live only while the program compiles
	cI map[int64]int32
	cF map[uint64]int32
}

// constIdxI returns the pool index of v, adding it on first use.
func (p *tapePools) constIdxI(v int64) int32 {
	if idx, ok := p.cI[v]; ok {
		return idx
	}
	idx := int32(len(p.constI))
	p.constI = append(p.constI, v)
	p.cI[v] = idx
	return idx
}

// constIdxF is constIdxI for floats, keyed by bit pattern.
func (p *tapePools) constIdxF(v float64) int32 {
	bits := math.Float64bits(v)
	if idx, ok := p.cF[bits]; ok {
		return idx
	}
	idx := int32(len(p.constF))
	p.constF = append(p.constF, v)
	p.cF[bits] = idx
	return idx
}

// runMode says how tape.run treats the ctrl result an iteration leaves
// the tape with.
type runMode uint8

const (
	// runOnce executes the tape once and returns the result.
	runOnce runMode = iota
	// runRange is a launched loop run inline: break ends the range,
	// return propagates, continue goes on to the next iteration, and a
	// completed range leaves hi+1 in the iterator slot.
	runRange
	// runChunk is a worker's chunk of a parallel loop: every iteration
	// runs and ctrl results are dropped.
	runChunk
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// run executes the tape on an environment: once (runOnce), or once per
// value lo..hi of the iterator slot, so a parallel loop body pays the
// set-up once per range rather than once per iteration. Falling off the
// end of the code is normal completion (ctrlNext). The frame slices are
// hoisted into locals: an env's I/F/P headers never change after
// creation (calls and launches mutate elements in place, workers run on
// clones).
func (tp *tape) run(e *env, mode runMode, slot int, lo, hi int64) ctrl {
	code := tp.code
	I, F, P := e.I, e.F, e.P
	ci, cf := tp.constI, tp.constF
	for it := lo; it <= hi; it++ {
		if mode != runOnce {
			I[slot] = it
		}
		c := ctrlNext
	dispatch:
		for pc := 0; pc < len(code); {
			in := code[pc]
			switch in.op {
			case tNop:
			case tConstI:
				I[in.a] = ci[in.b]
			case tMovI:
				I[in.a] = I[in.b]
			case tAddI:
				I[in.a] = I[in.b] + I[in.c]
			case tSubI:
				I[in.a] = I[in.b] - I[in.c]
			case tMulI:
				I[in.a] = I[in.b] * I[in.c]
			case tDivI:
				d := I[in.c]
				if d == 0 {
					rtPanic("integer division by zero")
				}
				I[in.a] = I[in.b] / d
			case tRemI:
				d := I[in.c]
				if d == 0 {
					rtPanic("integer modulo by zero")
				}
				I[in.a] = I[in.b] % d
			case tAndI:
				I[in.a] = I[in.b] & I[in.c]
			case tOrI:
				I[in.a] = I[in.b] | I[in.c]
			case tXorI:
				I[in.a] = I[in.b] ^ I[in.c]
			case tShlI:
				I[in.a] = I[in.b] << uint(I[in.c])
			case tShrI:
				I[in.a] = I[in.b] >> uint(I[in.c])
			case tNegI:
				I[in.a] = -I[in.b]
			case tCmplI:
				I[in.a] = ^I[in.b]
			case tNotI:
				I[in.a] = b2i(I[in.b] == 0)
			case tEqI:
				I[in.a] = b2i(I[in.b] == I[in.c])
			case tNeI:
				I[in.a] = b2i(I[in.b] != I[in.c])
			case tLtI:
				I[in.a] = b2i(I[in.b] < I[in.c])
			case tLeI:
				I[in.a] = b2i(I[in.b] <= I[in.c])
			case tGtI:
				I[in.a] = b2i(I[in.b] > I[in.c])
			case tGeI:
				I[in.a] = b2i(I[in.b] >= I[in.c])

			case tAddII:
				I[in.a] = I[in.b] + in.aux
			case tRsbII:
				I[in.a] = in.aux - I[in.b]
			case tMulII:
				I[in.a] = I[in.b] * in.aux
			case tDivII:
				I[in.a] = I[in.b] / in.aux
			case tRemII:
				I[in.a] = I[in.b] % in.aux
			case tAndII:
				I[in.a] = I[in.b] & in.aux
			case tOrII:
				I[in.a] = I[in.b] | in.aux
			case tXorII:
				I[in.a] = I[in.b] ^ in.aux
			case tShlII:
				I[in.a] = I[in.b] << uint(in.aux)
			case tShrII:
				I[in.a] = I[in.b] >> uint(in.aux)
			case tEqII:
				I[in.a] = b2i(I[in.b] == in.aux)
			case tNeII:
				I[in.a] = b2i(I[in.b] != in.aux)
			case tLtII:
				I[in.a] = b2i(I[in.b] < in.aux)
			case tLeII:
				I[in.a] = b2i(I[in.b] <= in.aux)
			case tGtII:
				I[in.a] = b2i(I[in.b] > in.aux)
			case tGeII:
				I[in.a] = b2i(I[in.b] >= in.aux)
			case tMaxII:
				I[in.a] = max(I[in.b], in.aux)
			case tMinII:
				I[in.a] = min(I[in.b], in.aux)

			case tConstF:
				F[in.a] = cf[in.b]
			case tMovF:
				F[in.a] = F[in.b]
			case tAddF:
				F[in.a] = F[in.b] + F[in.c]
			case tSubF:
				F[in.a] = F[in.b] - F[in.c]
			case tMulF:
				F[in.a] = F[in.b] * F[in.c]
			case tDivF:
				F[in.a] = F[in.b] / F[in.c]
			case tNegF:
				F[in.a] = -F[in.b]
			case tRoundF:
				F[in.a] = float64(float32(F[in.b]))
			case tI2F:
				F[in.a] = float64(I[in.b])
			case tF2I:
				I[in.a] = int64(F[in.b])
			case tTstF:
				I[in.a] = b2i(F[in.b] != 0)
			case tEqF:
				I[in.a] = b2i(F[in.b] == F[in.c])
			case tNeF:
				I[in.a] = b2i(F[in.b] != F[in.c])
			case tLtF:
				I[in.a] = b2i(F[in.b] < F[in.c])
			case tLeF:
				I[in.a] = b2i(F[in.b] <= F[in.c])
			case tGtF:
				I[in.a] = b2i(F[in.b] > F[in.c])
			case tGeF:
				I[in.a] = b2i(F[in.b] >= F[in.c])

			case tAddFC:
				F[in.a] = F[in.b] + cf[in.c]
			case tSubFC:
				F[in.a] = F[in.b] - cf[in.c]
			case tRsbFC:
				F[in.a] = cf[in.c] - F[in.b]
			case tMulFC:
				F[in.a] = F[in.b] * cf[in.c]
			case tDivFC:
				F[in.a] = F[in.b] / cf[in.c]
			case tRdivFC:
				F[in.a] = cf[in.c] / F[in.b]
			case tEqFC:
				I[in.a] = b2i(F[in.b] == cf[in.c])
			case tNeFC:
				I[in.a] = b2i(F[in.b] != cf[in.c])
			case tLtFC:
				I[in.a] = b2i(F[in.b] < cf[in.c])
			case tLeFC:
				I[in.a] = b2i(F[in.b] <= cf[in.c])
			case tGtFC:
				I[in.a] = b2i(F[in.b] > cf[in.c])
			case tGeFC:
				I[in.a] = b2i(F[in.b] >= cf[in.c])

			case tMulAddF:
				F[in.a] = float64(F[in.b]*F[in.c]) + F[in.aux]
			case tMulAddFC:
				F[in.a] = float64(F[in.b]*cf[in.c]) + F[in.aux]
			case tAddMulF:
				F[in.a] = F[in.aux] + float64(F[in.b]*F[in.c])
			case tAddMulFC:
				F[in.a] = F[in.aux] + float64(F[in.b]*cf[in.c])

			case tAddFR:
				F[in.a] = float64(float32(F[in.b] + F[in.c]))
			case tSubFR:
				F[in.a] = float64(float32(F[in.b] - F[in.c]))
			case tMulFR:
				F[in.a] = float64(float32(F[in.b] * F[in.c]))
			case tDivFR:
				F[in.a] = float64(float32(F[in.b] / F[in.c]))
			case tNegFR:
				F[in.a] = float64(float32(-F[in.b]))
			case tI2FR:
				F[in.a] = float64(float32(float64(I[in.b])))
			case tAddFCR:
				F[in.a] = float64(float32(F[in.b] + cf[in.c]))
			case tSubFCR:
				F[in.a] = float64(float32(F[in.b] - cf[in.c]))
			case tRsbFCR:
				F[in.a] = float64(float32(cf[in.c] - F[in.b]))
			case tMulFCR:
				F[in.a] = float64(float32(F[in.b] * cf[in.c]))
			case tDivFCR:
				F[in.a] = float64(float32(F[in.b] / cf[in.c]))
			case tRdivFCR:
				F[in.a] = float64(float32(cf[in.c] / F[in.b]))
			case tMulAddFR:
				F[in.a] = float64(float32(float64(F[in.b]*F[in.c]) + F[in.aux]))
			case tMulAddFCR:
				F[in.a] = float64(float32(float64(F[in.b]*cf[in.c]) + F[in.aux]))
			case tAddMulFR:
				F[in.a] = float64(float32(F[in.aux] + float64(F[in.b]*F[in.c])))
			case tAddMulFCR:
				F[in.a] = float64(float32(F[in.aux] + float64(F[in.b]*cf[in.c])))

			case tLdGI:
				I[in.a] = e.p.gI[in.b]
			case tStGI:
				e.p.gI[in.a] = I[in.b]
			case tLdGF:
				F[in.a] = e.p.gF[in.b]
			case tStGF:
				e.p.gF[in.a] = F[in.b]
			case tLdGP:
				P[in.a] = e.p.gP[in.b]
			case tStGP:
				e.p.gP[in.a] = P[in.b]

			case tMovP:
				P[in.a] = P[in.b]
			case tNullP:
				P[in.a] = nullPtr
			case tTstP:
				I[in.a] = b2i(!P[in.b].IsNull())
			case tIntToPtr:
				if I[in.b] != 0 {
					rtPanic("cast of non-zero integer to pointer")
				}
				P[in.a] = nullPtr
			case tPtrIdx:
				P[in.a] = P[in.b].Add(I[in.c] * in.aux)
			case tPtrOff:
				P[in.a] = P[in.b].Add(I[in.c])
			case tPtrImm:
				P[in.a] = P[in.b].Add(in.aux)
			case tPtrAdd:
				P[in.a] = addScaled(P[in.b], I[in.c], in.aux)
			case tPtrSub:
				P[in.a] = addScaled(P[in.b], -I[in.c], in.aux)
			case tPtrDiff:
				d, err := P[in.b].DiffChecked(P[in.c])
				if err != nil {
					rtPanic("%v", err)
				}
				I[in.a] = d / in.aux
			case tPtrEq:
				I[in.a] = b2i(P[in.b] == P[in.c])
			case tPtrNe:
				I[in.a] = b2i(P[in.b] != P[in.c])
			case tPtrLt:
				I[in.a] = b2i(P[in.b].Off < P[in.c].Off)
			case tPtrLe:
				I[in.a] = b2i(P[in.b].Off <= P[in.c].Off)
			case tPtrGt:
				I[in.a] = b2i(P[in.b].Off > P[in.c].Off)
			case tPtrGe:
				I[in.a] = b2i(P[in.b].Off >= P[in.c].Off)

			case tLdInd:
				I[in.a] = P[in.b].LoadInt()
			case tLdIndF:
				F[in.a] = P[in.b].LoadFloat()
			case tLdIndP:
				P[in.a] = P[in.b].LoadPtr()
			case tStInd:
				P[in.a].StoreInt(I[in.b])
			case tStIndF:
				P[in.a].StoreFloat(F[in.b])
			case tStIndP:
				P[in.a].StorePtr(P[in.b])

			case tLdGIdx:
				p := e.p.gP[in.b]
				I[in.a] = p.Seg.I[p.Off+int(I[in.c]*in.aux)]
			case tLdGIdxF:
				p := e.p.gP[in.b]
				F[in.a] = p.Seg.F[p.Off+int(I[in.c]*in.aux)]
			case tLdGIdxP:
				p := e.p.gP[in.b]
				P[in.a] = p.Seg.P[p.Off+int(I[in.c]*in.aux)]
			case tLdGIdxFR:
				p := e.p.gP[in.b]
				F[in.a] = float64(float32(p.Seg.F[p.Off+int(I[in.c]*in.aux)]))
			case tStGIdx:
				p := e.p.gP[in.b]
				p.Seg.I[p.Off+int(I[in.c]*in.aux)] = I[in.a]
			case tStGIdxF:
				p := e.p.gP[in.b]
				p.Seg.F[p.Off+int(I[in.c]*in.aux)] = F[in.a]
			case tStGIdxP:
				p := e.p.gP[in.b]
				p.Seg.P[p.Off+int(I[in.c]*in.aux)] = P[in.a]
			case tStGIdxFR:
				p := e.p.gP[in.b]
				p.Seg.F[p.Off+int(I[in.c]*in.aux)] = float64(float32(F[in.a]))
			case tLdIdx:
				I[in.a] = P[in.b].Add(I[in.c] * in.aux).LoadInt()
			case tLdIdxF:
				F[in.a] = P[in.b].Add(I[in.c] * in.aux).LoadFloat()
			case tLdIdxP:
				p := P[in.b]
				P[in.a] = p.Seg.P[p.Off+int(I[in.c]*in.aux)]
			case tLdIdxFR:
				F[in.a] = float64(float32(P[in.b].Add(I[in.c] * in.aux).LoadFloat()))
			case tStIdx:
				P[in.b].Add(I[in.c] * in.aux).StoreInt(I[in.a])
			case tStIdxF:
				P[in.b].Add(I[in.c] * in.aux).StoreFloat(F[in.a])
			case tStIdxP:
				p := P[in.b]
				p.Seg.P[p.Off+int(I[in.c]*in.aux)] = P[in.a]
			case tStIdxFR:
				P[in.b].Add(I[in.c] * in.aux).StoreFloat(float64(float32(F[in.a])))

			case tJmp:
				pc += int(in.a)
				continue
			case tJz:
				if I[in.b] == 0 {
					pc += int(in.a)
					continue
				}
			case tJnz:
				if I[in.b] != 0 {
					pc += int(in.a)
					continue
				}
			case tJeqI:
				if (I[in.b] == I[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJltI:
				if (I[in.b] < I[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJleI:
				if (I[in.b] <= I[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJeqII:
				if (I[in.b] == in.aux) != (in.c != 0) {
					pc += int(in.a)
					continue
				}
			case tJltII:
				if (I[in.b] < in.aux) != (in.c != 0) {
					pc += int(in.a)
					continue
				}
			case tJleII:
				if (I[in.b] <= in.aux) != (in.c != 0) {
					pc += int(in.a)
					continue
				}
			case tJeqF:
				if (F[in.b] == F[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJneF:
				if (F[in.b] != F[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJltF:
				if (F[in.b] < F[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJleF:
				if (F[in.b] <= F[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJgtF:
				if (F[in.b] > F[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJgeF:
				if (F[in.b] >= F[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJeqFC:
				if (F[in.b] == cf[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJneFC:
				if (F[in.b] != cf[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJltFC:
				if (F[in.b] < cf[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJleFC:
				if (F[in.b] <= cf[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJgtFC:
				if (F[in.b] > cf[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJgeFC:
				if (F[in.b] >= cf[in.c]) != (in.aux != 0) {
					pc += int(in.a)
					continue
				}
			case tJzF:
				if F[in.b] == 0 {
					pc += int(in.a)
					continue
				}
			case tJnzF:
				if F[in.b] != 0 {
					pc += int(in.a)
					continue
				}
			case tJzP:
				if P[in.b].IsNull() {
					pc += int(in.a)
					continue
				}
			case tJnzP:
				if !P[in.b].IsNull() {
					pc += int(in.a)
					continue
				}
			case tIncJltII:
				v := I[in.b] + 1
				I[in.b] = v
				if v < in.aux {
					pc += int(in.a)
					continue
				}
			case tIncJltI:
				v := I[in.b] + 1
				I[in.b] = v
				if v < I[in.c] {
					pc += int(in.a)
					continue
				}
			case tRet:
				c = ctrlReturn
				break dispatch
			case tRetI:
				e.retI = I[in.a]
				c = ctrlReturn
				break dispatch
			case tRetF:
				e.retF = F[in.a]
				c = ctrlReturn
				break dispatch
			case tRetP:
				e.retP = P[in.a]
				c = ctrlReturn
				break dispatch
			case tBrk:
				c = ctrlBreak
				break dispatch
			case tCont:
				c = ctrlContinue
				break dispatch

			case tAbsI:
				v := I[in.b]
				if v < 0 {
					v = -v
				}
				I[in.a] = v
			case tMinI:
				I[in.a] = min(I[in.b], I[in.c])
			case tMaxI:
				I[in.a] = max(I[in.b], I[in.c])
			case tFloorD:
				I[in.a] = floorDiv(I[in.b], I[in.c])
			case tCeilD:
				I[in.a] = ceilDiv(I[in.b], I[in.c])
			case tRand:
				I[in.a] = e.p.nextRand()
			case tSrand:
				e.p.randState.Store(uint64(I[in.b]))
			case tMath1:
				F[in.a] = mathFns[in.c].f1(F[in.b])
			case tMath2:
				F[in.a] = mathFns[in.aux].f2(F[in.b], F[in.c])
			case tConstP:
				P[in.a] = tp.constP[in.b]
			case tMalloc:
				P[in.a] = tp.mallocs[in.b].alloc(e, I[in.c])
			case tFree:
				if err := e.p.heap.Free(P[in.b]); err != nil {
					rtPanic("%v", err)
				}
			case tCall:
				tp.calls[in.b].run(e, in.a)
			case tPrintf:
				tp.printfs[in.b].run(e)
			case tStmt:
				if tp.launches[in.b].run(e, I[in.a], I[in.c]) == ctrlReturn {
					c = ctrlReturn
					break dispatch
				}
			}
			pc++
		}
		switch {
		case mode == runOnce:
			return c
		case mode == runChunk || c == ctrlNext || c == ctrlContinue:
		case c == ctrlBreak:
			return ctrlNext
		default:
			return c
		}
	}
	if mode == runRange {
		I[slot] = hi + 1
	}
	return ctrlNext
}
