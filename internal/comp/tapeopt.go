package comp

// Peephole optimizer over finished tapes. The front end emits about one
// instruction per AST node, which keeps the translation auditable but
// pays switch dispatch for every temp-register move. The
// passes here fuse those sequences into the superinstructions declared
// in tape.go, cutting the dispatch count per source statement roughly
// in half to a third.
//
// Every rewrite preserves the tape contract exactly:
//
//   - liveness of temp registers is computed over the real control-flow
//     graph, and a write is only elided when the register is provably
//     dead (frame slots below the temp base — locals and parameters —
//     are always live);
//   - windows never cross a jump target (leader), a call or launch, or
//     an instruction that could observe or clobber the moved value, so
//     on every path the fused form reads the same values the expanded
//     form read;
//   - trapping instructions are never deleted, reordered relative to
//     other traps or stores, or given new operands: immediate division
//     folds only happen for nonzero constants, and the indexed memory
//     forms compute Off + int(idx*stride) exactly like Pointer.Add so
//     bad pointers panic with the identical runtime error;
//   - float arithmetic stays float64 with the same operation order:
//     constant operands fold only where IEEE 754 makes the swap exact
//     (never when the constant is NaN), and the multiply-add fusions
//     keep two roundings via an explicit float64 conversion.

import "math"

// optimize runs fusion passes to a fixpoint. Every successful rewrite
// nops at least one instruction and compaction removes the nops, so the
// loop strictly shrinks the tape and terminates. ta is the function's
// register space (its high-water marks bound the tape's temps); lv is
// the compile's reusable optimizer memory, which keeps no reference to
// tp afterwards.
func (tp *tape) optimize(lv *tlive, ta *tapeAlloc) {
	defer func() { lv.tp = nil }()
	max := [3]int32{tp.tmpI + int32(ta.maxI), tp.tmpF + int32(ta.maxF), tp.tmpP + int32(ta.maxP)}
	for {
		lv.compact(tp)
		if len(tp.code) == 0 {
			return
		}
		lv.analyze(tp, max)
		if !tp.peephole(lv) {
			return
		}
	}
}

// ----------------------------------------------------------------------------
// Instruction descriptors: which fields hold frame-slot reads/writes.

type tfield uint8

const (
	fA tfield = iota
	fB
	fC
	fAux
)

const (
	tfPure    = 1 << iota // no trap, no memory/global/control effect
	tfBarrier             // call or launch: unknown global/memory effects
	tfJump                // transfers control (incl. conditional)
	tfExit                // leaves the tape (no fallthrough successor)
	tfGWrite              // writes a global scalar/pointer slot
	tfSite                // reads the regSpan of its site (siteAccs)
)

// tdesc describes one opcode for the optimizer. rI/rF/rP list the
// instruction fields holding read slots of each kind; wI/wF/wP the
// field holding the written slot (or -1). accs flattens both for the
// liveness pass, writes first.
type tdesc struct {
	rI, rF, rP []tfield
	wI, wF, wP int8
	flags      uint8
	accs       []tacc
}

// tacc is one frame-slot access of an instruction.
type tacc struct {
	kind  uint8
	field tfield
	write bool
}

var tdescs [256]tdesc

func tdef(ops []topcode, d tdesc) {
	for _, op := range ops {
		tdescs[op] = d
	}
}

func init() {
	for i := range tdescs {
		tdescs[i] = tdesc{wI: -1, wF: -1, wP: -1}
	}
	w := func(f tfield) int8 { return int8(f) }
	no := int8(-1)

	tdef([]topcode{tNop}, tdesc{wI: no, wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tConstI}, tdesc{wI: w(fA), wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tMovI, tNegI, tCmplI, tNotI},
		tdesc{rI: []tfield{fB}, wI: w(fA), wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tAddI, tSubI, tMulI, tAndI, tOrI, tXorI, tShlI, tShrI,
		tEqI, tNeI, tLtI, tLeI, tGtI, tGeI},
		tdesc{rI: []tfield{fB, fC}, wI: w(fA), wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tDivI, tRemI},
		tdesc{rI: []tfield{fB, fC}, wI: w(fA), wF: no, wP: no})
	// tDivII/tRemII are pure: they are only created with aux != 0.
	tdef([]topcode{tAddII, tRsbII, tMulII, tDivII, tRemII, tAndII, tOrII,
		tXorII, tShlII, tShrII, tEqII, tNeII, tLtII, tLeII, tGtII, tGeII},
		tdesc{rI: []tfield{fB}, wI: w(fA), wF: no, wP: no, flags: tfPure})

	tdef([]topcode{tConstF}, tdesc{wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tMovF, tNegF, tRoundF},
		tdesc{rF: []tfield{fB}, wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tAddF, tSubF, tMulF, tDivF},
		tdesc{rF: []tfield{fB, fC}, wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tAddFC, tSubFC, tRsbFC, tMulFC, tDivFC, tRdivFC},
		tdesc{rF: []tfield{fB}, wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tMulAddF, tAddMulF},
		tdesc{rF: []tfield{fB, fC, fAux}, wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tMulAddFC, tAddMulFC},
		tdesc{rF: []tfield{fB, fAux}, wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tI2F}, tdesc{rI: []tfield{fB}, wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tF2I, tTstF}, tdesc{rF: []tfield{fB}, wI: w(fA), wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tEqF, tNeF, tLtF, tLeF, tGtF, tGeF},
		tdesc{rF: []tfield{fB, fC}, wI: w(fA), wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tEqFC, tNeFC, tLtFC, tLeFC, tGtFC, tGeFC},
		tdesc{rF: []tfield{fB}, wI: w(fA), wF: no, wP: no, flags: tfPure})

	tdef([]topcode{tLdGI}, tdesc{wI: w(fA), wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tLdGF}, tdesc{wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tLdGP}, tdesc{wI: no, wF: no, wP: w(fA), flags: tfPure})
	tdef([]topcode{tStGI}, tdesc{rI: []tfield{fB}, wI: no, wF: no, wP: no, flags: tfGWrite})
	tdef([]topcode{tStGF}, tdesc{rF: []tfield{fB}, wI: no, wF: no, wP: no, flags: tfGWrite})
	tdef([]topcode{tStGP}, tdesc{rP: []tfield{fB}, wI: no, wF: no, wP: no, flags: tfGWrite})

	tdef([]topcode{tMovP}, tdesc{rP: []tfield{fB}, wI: no, wF: no, wP: w(fA), flags: tfPure})
	tdef([]topcode{tNullP}, tdesc{wI: no, wF: no, wP: w(fA), flags: tfPure})
	tdef([]topcode{tTstP}, tdesc{rP: []tfield{fB}, wI: w(fA), wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tIntToPtr}, tdesc{rI: []tfield{fB}, wI: no, wF: no, wP: w(fA)})
	tdef([]topcode{tPtrIdx, tPtrOff},
		tdesc{rP: []tfield{fB}, rI: []tfield{fC}, wI: no, wF: no, wP: w(fA), flags: tfPure})
	tdef([]topcode{tPtrImm}, tdesc{rP: []tfield{fB}, wI: no, wF: no, wP: w(fA), flags: tfPure})
	tdef([]topcode{tPtrAdd, tPtrSub},
		tdesc{rP: []tfield{fB}, rI: []tfield{fC}, wI: no, wF: no, wP: w(fA)})
	tdef([]topcode{tPtrDiff}, tdesc{rP: []tfield{fB, fC}, wI: w(fA), wF: no, wP: no})
	tdef([]topcode{tPtrEq, tPtrNe, tPtrLt, tPtrLe, tPtrGt, tPtrGe},
		tdesc{rP: []tfield{fB, fC}, wI: w(fA), wF: no, wP: no, flags: tfPure})

	tdef([]topcode{tLdInd}, tdesc{rP: []tfield{fB}, wI: w(fA), wF: no, wP: no})
	tdef([]topcode{tLdIndF}, tdesc{rP: []tfield{fB}, wI: no, wF: w(fA), wP: no})
	tdef([]topcode{tLdIndP}, tdesc{rP: []tfield{fB}, wI: no, wF: no, wP: w(fA)})
	tdef([]topcode{tStInd}, tdesc{rP: []tfield{fA}, rI: []tfield{fB}, wI: no, wF: no, wP: no})
	tdef([]topcode{tStIndF}, tdesc{rP: []tfield{fA}, rF: []tfield{fB}, wI: no, wF: no, wP: no})
	tdef([]topcode{tStIndP}, tdesc{rP: []tfield{fA, fB}, wI: no, wF: no, wP: no})

	tdef([]topcode{tLdGIdx}, tdesc{rI: []tfield{fC}, wI: w(fA), wF: no, wP: no})
	tdef([]topcode{tLdGIdxF, tLdGIdxFR}, tdesc{rI: []tfield{fC}, wI: no, wF: w(fA), wP: no})
	tdef([]topcode{tLdGIdxP}, tdesc{rI: []tfield{fC}, wI: no, wF: no, wP: w(fA)})
	tdef([]topcode{tStGIdx}, tdesc{rI: []tfield{fA, fC}, wI: no, wF: no, wP: no})
	tdef([]topcode{tStGIdxF, tStGIdxFR},
		tdesc{rF: []tfield{fA}, rI: []tfield{fC}, wI: no, wF: no, wP: no})
	tdef([]topcode{tStGIdxP}, tdesc{rP: []tfield{fA}, rI: []tfield{fC}, wI: no, wF: no, wP: no})
	tdef([]topcode{tLdIdx}, tdesc{rP: []tfield{fB}, rI: []tfield{fC}, wI: w(fA), wF: no, wP: no})
	tdef([]topcode{tLdIdxF, tLdIdxFR}, tdesc{rP: []tfield{fB}, rI: []tfield{fC}, wI: no, wF: w(fA), wP: no})
	tdef([]topcode{tLdIdxP}, tdesc{rP: []tfield{fB}, rI: []tfield{fC}, wI: no, wF: no, wP: w(fA)})
	tdef([]topcode{tStIdx}, tdesc{rI: []tfield{fA, fC}, rP: []tfield{fB}, wI: no, wF: no, wP: no})
	tdef([]topcode{tStIdxF, tStIdxFR},
		tdesc{rF: []tfield{fA}, rI: []tfield{fC}, rP: []tfield{fB}, wI: no, wF: no, wP: no})
	tdef([]topcode{tStIdxP}, tdesc{rP: []tfield{fA, fB}, rI: []tfield{fC}, wI: no, wF: no, wP: no})

	tdef([]topcode{tJmp}, tdesc{wI: no, wF: no, wP: no, flags: tfJump | tfExit})
	tdef([]topcode{tJz, tJnz}, tdesc{rI: []tfield{fB}, wI: no, wF: no, wP: no, flags: tfJump})
	tdef([]topcode{tJeqI, tJltI, tJleI},
		tdesc{rI: []tfield{fB, fC}, wI: no, wF: no, wP: no, flags: tfJump})
	tdef([]topcode{tJeqII, tJltII, tJleII},
		tdesc{rI: []tfield{fB}, wI: no, wF: no, wP: no, flags: tfJump})
	tdef([]topcode{tJeqF, tJneF, tJltF, tJleF, tJgtF, tJgeF,
		tJeqFC, tJneFC, tJltFC, tJleFC, tJgtFC, tJgeFC, tJzF, tJnzF},
		tdesc{rF: []tfield{fB}, wI: no, wF: no, wP: no, flags: tfJump})
	tdef([]topcode{tJeqF, tJneF, tJltF, tJleF, tJgtF, tJgeF},
		tdesc{rF: []tfield{fB, fC}, wI: no, wF: no, wP: no, flags: tfJump})
	tdef([]topcode{tJzP, tJnzP}, tdesc{rP: []tfield{fB}, wI: no, wF: no, wP: no, flags: tfJump})
	tdef([]topcode{tIncJltII}, tdesc{rI: []tfield{fB}, wI: w(fB), wF: no, wP: no, flags: tfJump})
	tdef([]topcode{tRet, tBrk, tCont}, tdesc{wI: no, wF: no, wP: no, flags: tfExit})
	tdef([]topcode{tRetI}, tdesc{rI: []tfield{fA}, wI: no, wF: no, wP: no, flags: tfExit})
	tdef([]topcode{tRetF}, tdesc{rF: []tfield{fA}, wI: no, wF: no, wP: no, flags: tfExit})
	tdef([]topcode{tRetP}, tdesc{rP: []tfield{fA}, wI: no, wF: no, wP: no, flags: tfExit})

	tdef([]topcode{tAbsI}, tdesc{rI: []tfield{fB}, wI: w(fA), wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tMinI, tMaxI}, tdesc{rI: []tfield{fB, fC}, wI: w(fA), wF: no, wP: no, flags: tfPure})
	tdef([]topcode{tFloorD, tCeilD}, tdesc{rI: []tfield{fB, fC}, wI: w(fA), wF: no, wP: no})
	tdef([]topcode{tRand}, tdesc{wI: w(fA), wF: no, wP: no})
	tdef([]topcode{tSrand}, tdesc{rI: []tfield{fB}, wI: no, wF: no, wP: no})
	tdef([]topcode{tMath1}, tdesc{rF: []tfield{fB}, wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tMath2}, tdesc{rF: []tfield{fB, fC}, wI: no, wF: w(fA), wP: no, flags: tfPure})
	tdef([]topcode{tConstP}, tdesc{wI: no, wF: no, wP: w(fA), flags: tfPure})
	tdef([]topcode{tMalloc}, tdesc{rI: []tfield{fC}, wI: no, wF: no, wP: w(fA)})
	tdef([]topcode{tFree}, tdesc{rP: []tfield{fB}, wI: no, wF: no, wP: no, flags: tfBarrier})
	// Site ops read the registers their site names and run arbitrary
	// guest code; a call writes its result register (siteAccs).
	tdef([]topcode{tCall, tPrintf, tStmt}, tdesc{wI: no, wF: no, wP: no, flags: tfBarrier | tfSite})

	for i := range tdescs {
		d := &tdescs[i]
		for k := tkI; k <= tkP; k++ {
			if wf := d.writeField(k); wf >= 0 {
				d.accs = append(d.accs, tacc{kind: uint8(k), field: tfield(wf), write: true})
			}
		}
		for k := tkI; k <= tkP; k++ {
			for _, f := range d.reads(k) {
				d.accs = append(d.accs, tacc{kind: uint8(k), field: f})
			}
		}
	}
}

func tfieldVal(in *tinstr, f tfield) int32 {
	switch f {
	case fA:
		return in.a
	case fB:
		return in.b
	case fC:
		return in.c
	default:
		return int32(in.aux)
	}
}

func tfieldSet(in *tinstr, f tfield, v int32) {
	switch f {
	case fA:
		in.a = v
	case fB:
		in.b = v
	case fC:
		in.c = v
	default:
		in.aux = int64(v)
	}
}

// slot kind selectors for the generic helpers below
const (
	tkI = iota
	tkF
	tkP
)

func (d *tdesc) reads(kind int) []tfield {
	switch kind {
	case tkI:
		return d.rI
	case tkF:
		return d.rF
	default:
		return d.rP
	}
}

func (d *tdesc) writeField(kind int) int8 {
	switch kind {
	case tkI:
		return d.wI
	case tkF:
		return d.wF
	default:
		return d.wP
	}
}

func instrReads(in *tinstr, kind int, slot int32) bool {
	for _, f := range tdescs[in.op].reads(kind) {
		if tfieldVal(in, f) == slot {
			return true
		}
	}
	return false
}

func instrWrites(in *tinstr, kind int, slot int32) bool {
	wf := tdescs[in.op].writeField(kind)
	return wf >= 0 && tfieldVal(in, tfield(wf)) == slot
}

// substReads replaces every read of slot from with to. The write field
// is left alone.
func substReads(in *tinstr, kind int, from, to int32) {
	d := &tdescs[in.op]
	wf := d.writeField(kind)
	for _, f := range d.reads(kind) {
		if int8(f) != wf && tfieldVal(in, f) == from {
			tfieldSet(in, f, to)
		}
	}
}

// ----------------------------------------------------------------------------
// Control flow and liveness

// succs appends the successor pcs of the instruction at pc (an offset
// landing at len(code) is normal fall-off and not a successor).
func (tp *tape) succs(pc int, buf []int) []int {
	in := &tp.code[pc]
	flags := tdescs[in.op].flags
	if flags&tfExit == 0 {
		buf = tp.addSucc(buf, pc+1)
	}
	if flags&tfJump != 0 {
		buf = tp.addSucc(buf, pc+int(in.a))
	}
	return buf
}

func (tp *tape) addSucc(buf []int, t int) []int {
	if t >= 0 && t < len(tp.code) {
		buf = append(buf, t)
	}
	return buf
}

// leaders marks every jump target into lv.ld. Index len(code) is the
// implicit exit block.
func (lv *tlive) leaders(tp *tape) {
	n := len(tp.code)
	ld := resize(lv.ld, n+1)
	clear(ld)
	ld[0] = true
	mark := func(pc int, off int32) {
		if t := pc + int(off); t >= 0 && t <= n {
			ld[t] = true
		}
	}
	for pc := range tp.code {
		if in := &tp.code[pc]; tdescs[in.op].flags&tfJump != 0 {
			mark(pc, in.a)
		}
	}
	lv.ld = ld
}

// resize returns s with length n, reusing its backing array when it is
// large enough (the contents are unspecified).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// tlive holds the optimizer's view of one tape: the leaders and the
// live-in temp sets of every pc, pc-major in one flat bitset array (w
// words per pc; kind k's bit i = temp slot base+i sits in words
// off[k]..off[k+1]). It doubles as the compile's reusable working
// memory for analysis and compaction.
type tlive struct {
	tp    *tape
	ld    []bool
	in    []uint64
	w     int
	off   [4]int
	max   [3]int32 // one past the highest temp slot, per kind
	row   []uint64
	back  []int // targets of backward edges seen by the last pass
	newpc []int
}

// base returns the first temp slot of the kind.
func (tp *tape) base(kind int) int32 {
	switch kind {
	case tkI:
		return tp.tmpI
	case tkF:
		return tp.tmpF
	default:
		return tp.tmpP
	}
}

// liveOut reports whether the temp slot is live after pc. Slots below
// the temp base are always live; slots past every temp are dead.
func (lv *tlive) liveOut(pc int, kind int, slot int32) bool {
	base := lv.tp.base(kind)
	if slot < base {
		return true
	}
	if slot >= lv.max[kind] {
		return false
	}
	i := int(slot - base)
	word, bit := lv.off[kind]+i>>6, uint64(1)<<uint(i&63)
	var buf [3]int
	for _, s := range lv.tp.succs(pc, buf[:0]) {
		if lv.in[s*lv.w+word]&bit != 0 {
			return true
		}
	}
	return false
}

// analyze computes backward liveness of temp registers over the tape's
// control-flow graph; max bounds the temp slots of each kind. The
// passes run in reverse pc order, so one pass is exact unless a temp is
// live into the target of a backward edge; temps never live across a
// statement boundary and loops jump back only to statement starts, so
// the common case costs one pass and the standard fixpoint iteration
// covers the rest.
func (lv *tlive) analyze(tp *tape, max [3]int32) {
	lv.tp, lv.max = tp, max
	lv.leaders(tp)
	w := 0
	for k := tkI; k <= tkP; k++ {
		lv.off[k] = w
		w += int(max[k]-tp.base(k)+63) / 64
	}
	lv.off[3], lv.w = w, w
	lv.in = resize(lv.in, len(tp.code)*w)
	clear(lv.in)
	lv.row = resize(lv.row, w)
	for pass := 0; ; pass++ {
		if !lv.pass(tp) {
			return
		}
		if pass == 0 && !lv.liveAtBackTargets() {
			return
		}
	}
}

// pass runs one backward sweep, reporting whether any live-in set grew.
// It records the targets of backward edges in lv.back.
func (lv *tlive) pass(tp *tape) bool {
	changed := false
	w, row, n := lv.w, lv.row, len(tp.code)
	base := [3]int32{tp.tmpI, tp.tmpF, tp.tmpP}
	lv.back = lv.back[:0]
	var buf [3]int
	for pc := n - 1; pc >= 0; pc-- {
		in := &tp.code[pc]
		d := &tdescs[in.op]
		if d.flags&(tfJump|tfExit) == 0 {
			// Straight-line code, the common case: one successor.
			if pc+1 < n {
				copy(row, lv.in[(pc+1)*w:(pc+2)*w])
			} else {
				clear(row)
			}
		} else {
			clear(row)
			for _, s := range tp.succs(pc, buf[:0]) {
				if s <= pc {
					lv.back = append(lv.back, s)
				}
				for i, x := range lv.in[s*w : (s+1)*w] {
					row[i] |= x
				}
			}
		}
		if d.flags&tfSite != 0 {
			lv.siteAccs(tp, in, row, base)
		}
		for _, a := range d.accs {
			lv.mark(row, int(a.kind), tfieldVal(in, a.field)-base[a.kind], a.write)
		}
		cur := lv.in[pc*w : (pc+1)*w]
		for i, x := range cur {
			if x|row[i] != x {
				cur[i] = x | row[i]
				changed = true
			}
		}
	}
	return changed
}

// mark applies one access of temp v (a slot minus its kind's temp base)
// to a live row: a write kills it, a read makes it live.
func (lv *tlive) mark(row []uint64, kind int, v int32, write bool) {
	if v < 0 {
		return
	}
	if i, bit := lv.off[kind]+int(v)>>6, uint64(1)<<uint(v&63); write {
		row[i] &^= bit
	} else {
		row[i] |= bit
	}
}

// siteAccs applies the accesses of a site op: a call's result write,
// then the reads of the site's register span.
func (lv *tlive) siteAccs(tp *tape, in *tinstr, row []uint64, base [3]int32) {
	var sp *regSpan
	switch in.op {
	case tCall:
		cs := &tp.calls[in.b]
		if !cs.void {
			lv.mark(row, int(cs.ret), in.a-base[cs.ret], true)
		}
		sp = &cs.args
	case tPrintf:
		sp = &tp.printfs[in.b].args
	default:
		sp = &tp.launches[in.b].regs
	}
	for k := tkI; k <= tkP; k++ {
		for r := sp.first[k]; r < sp.first[k]+sp.n[k]; r++ {
			lv.mark(row, k, r-base[k], false)
		}
	}
}

// liveAtBackTargets reports whether any temp is live into a backward
// edge's target — the only case where a first pass read a live-in set
// before computing it.
func (lv *tlive) liveAtBackTargets() bool {
	for _, s := range lv.back {
		for _, x := range lv.in[s*lv.w : (s+1)*lv.w] {
			if x != 0 {
				return true
			}
		}
	}
	return false
}

// ----------------------------------------------------------------------------
// Compaction

// compact removes tNop instructions in place and remaps every relative
// jump offset across the removal.
func (lv *tlive) compact(tp *tape) {
	n := len(tp.code)
	newpc := resize(lv.newpc, n+1)
	lv.newpc = newpc
	k := 0
	for i := 0; i < n; i++ {
		newpc[i] = k
		if tp.code[i].op != tNop {
			k++
		}
	}
	newpc[n] = k
	if k == n {
		return
	}
	// newpc[i] <= i, so each word moves down over slots already read.
	for i := 0; i < n; i++ {
		in := tp.code[i]
		if in.op == tNop {
			continue
		}
		if tdescs[in.op].flags&tfJump != 0 {
			in.a = int32(newpc[i+int(in.a)] - newpc[i])
		}
		tp.code[newpc[i]] = in
	}
	tp.code = tp.code[:k]
}

// ----------------------------------------------------------------------------
// The peephole pass

// tapeOptWindow caps forward/backward scans. Windows are short by
// design: temps die within a statement, so fusible pairs sit close.
const tapeOptWindow = 12

// peephole makes one forward scan, applying every applicable rewrite.
// Leaders and liveness come from before the scan; all rewrites either
// shrink a live range or (compare→branch, copy propagation) extend a
// read by at most the distance to a consumer across instructions the
// scan verified to not touch the slot, which no later pattern in the
// same pass can observe incorrectly (deadness queries are tied to
// writes, and writes of the slot stop every scan).
func (tp *tape) peephole(lv *tlive) bool {
	changed := false
	for i := range tp.code {
		switch tp.code[i].op {
		case tNop:
			continue
		case tConstI:
			changed = tp.foldConstI(i, lv) || changed
		case tConstF:
			changed = tp.foldConstF(i, lv) || changed
		case tPtrIdx, tPtrOff:
			changed = tp.fuseIndexed(i, lv) || changed
		case tMulF, tMulFC:
			changed = tp.fuseMulAdd(i, lv) || changed
		case tRoundF:
			changed = tp.fuseRoundStore(i, lv) || changed
		case tLdGIdxF, tLdIdxF:
			changed = tp.fuseLoadRound(i, lv) || changed
		case tAddII:
			changed = tp.fuseIncJlt(i, lv) || changed
		}
		in := &tp.code[i]
		d := &tdescs[in.op]
		if in.op != tNop {
			retargeted := false
			if d.wI >= 0 || d.wF >= 0 || d.wP >= 0 {
				changed = tp.fuseCmpBranch(i, lv) || changed
				retargeted = tp.elimMov(i, lv)
			}
			switch in.op {
			case tMovI, tMovF, tMovP:
				changed = tp.copyProp(i, lv) || changed
			}
			// elimMov moved the write onto the mov's destination, whose
			// liveness at i+1 still describes the mov that defined it
			// there (dead on entry): this round must not judge it.
			if retargeted {
				changed = true
			} else {
				changed = tp.elimDead(i, lv) || changed
			}
		}
	}
	return changed
}

// deadOrRedefined reports that temp slot is not consumed beyond pc:
// either liveness proves it dead after pc, or the instruction at pc
// itself redefines it (so later readers see the new value).
func (tp *tape) deadOrRedefined(lv *tlive, pc int, kind int, slot int32) bool {
	if instrWrites(&tp.code[pc], kind, slot) {
		return true
	}
	return !lv.liveOut(pc, kind, slot)
}

func (tp *tape) isTmp(kind int, slot int32) bool { return slot >= tp.base(kind) }

// elimDead nops a pure instruction whose only effect is writing dead
// temp registers.
func (tp *tape) elimDead(i int, lv *tlive) bool {
	in := &tp.code[i]
	d := &tdescs[in.op]
	if d.flags&tfPure == 0 || in.op == tNop {
		return false
	}
	hasW := false
	for kind := tkI; kind <= tkP; kind++ {
		wf := d.writeField(kind)
		if wf < 0 {
			continue
		}
		hasW = true
		slot := tfieldVal(in, tfield(wf))
		if !tp.isTmp(kind, slot) || lv.liveOut(i, kind, slot) {
			return false
		}
	}
	if !hasW {
		return false
	}
	*in = tinstr{}
	return true
}

// foldConstI folds [tConstI t,K][op … t …] into an immediate form when
// t is a dead-after temp. Constant-constant chains fold back into
// tConstI and constant branches into tJmp/nothing.
func (tp *tape) foldConstI(i int, lv *tlive) bool {
	if i+1 >= len(tp.code) || lv.ld[i+1] {
		return false
	}
	in, nx := &tp.code[i], &tp.code[i+1]
	t := in.a
	if !tp.isTmp(tkI, t) {
		return false
	}
	k := tp.constI[in.b]
	if !tp.deadOrRedefined(lv, i+1, tkI, t) {
		return false
	}
	switch nx.op {
	case tJz:
		if nx.b != t {
			return false
		}
		if k == 0 {
			*nx = tinstr{op: tJmp, a: nx.a}
		} else {
			*nx = tinstr{}
		}
		*in = tinstr{}
		return true
	case tJnz:
		if nx.b != t {
			return false
		}
		if k != 0 {
			*nx = tinstr{op: tJmp, a: nx.a}
		} else {
			*nx = tinstr{}
		}
		*in = tinstr{}
		return true
	case tMovI:
		if nx.b != t {
			return false
		}
		*nx = tinstr{op: tConstI, a: nx.a, b: in.b}
		*in = tinstr{}
		return true
	}

	// Constant-constant chain: an immediate op consuming t.
	if immK, ok := tapeEvalImm(nx, k); ok && nx.b == t {
		*nx = tinstr{op: tConstI, a: nx.a, b: tp.constIdxI(immK)}
		*in = tinstr{}
		return true
	}

	m := immFolds[nx.op]
	if m.right == 0 {
		return false
	}
	aux := k
	if nx.op == tSubI && nx.c == t {
		aux = -k
	}
	switch {
	case nx.c == t && nx.b != t && m.right != 0:
		if (nx.op == tDivI || nx.op == tRemI) && k == 0 {
			return false
		}
		*nx = tinstr{op: m.right, a: nx.a, b: nx.b, aux: aux}
	case nx.b == t && nx.c != t && m.left != 0:
		*nx = tinstr{op: m.left, a: nx.a, b: nx.c, aux: k}
	default:
		return false
	}
	*in = tinstr{}
	return true
}

// immFold names the immediate forms of a reg-reg integer op with a
// constant right (b op K) or left (K op c) operand; 0 = not foldable on
// that side. Every foldable op has a right form.
type immFold struct{ right, left topcode }

var immFolds = [256]immFold{
	tAddI: {tAddII, tAddII},
	tSubI: {tAddII, tRsbII}, // b - K == b + (-K) in two's complement
	tMulI: {tMulII, tMulII},
	tDivI: {tDivII, 0},
	tRemI: {tRemII, 0},
	tAndI: {tAndII, tAndII},
	tOrI:  {tOrII, tOrII},
	tXorI: {tXorII, tXorII},
	tShlI: {tShlII, 0},
	tShrI: {tShrII, 0},
	tEqI:  {tEqII, tEqII},
	tNeI:  {tNeII, tNeII},
	tLtI:  {tLtII, tGtII}, // K < x  ⇔  x > K
	tLeI:  {tLeII, tGeII},
	tGtI:  {tGtII, tLtII},
	tGeI:  {tGeII, tLeII},
}

// tapeEvalImm evaluates an immediate integer op applied to constant k,
// mirroring exec exactly.
func tapeEvalImm(in *tinstr, k int64) (int64, bool) {
	switch in.op {
	case tAddII:
		return k + in.aux, true
	case tRsbII:
		return in.aux - k, true
	case tMulII:
		return k * in.aux, true
	case tDivII:
		return k / in.aux, true
	case tRemII:
		return k % in.aux, true
	case tAndII:
		return k & in.aux, true
	case tOrII:
		return k | in.aux, true
	case tXorII:
		return k ^ in.aux, true
	case tShlII:
		return k << uint(in.aux), true
	case tShrII:
		return k >> uint(in.aux), true
	case tEqII:
		return b2i(k == in.aux), true
	case tNeII:
		return b2i(k != in.aux), true
	case tLtII:
		return b2i(k < in.aux), true
	case tLeII:
		return b2i(k <= in.aux), true
	case tGtII:
		return b2i(k > in.aux), true
	case tGeII:
		return b2i(k >= in.aux), true
	}
	return 0, false
}

// foldConstF folds [tConstF t,K][float op … t …] into the FC forms.
// Swapping a constant to the right of + and * is exact in IEEE 754
// unless the constant is NaN (payload propagation may be order-
// dependent); mirrored compares are exact including NaN.
func (tp *tape) foldConstF(i int, lv *tlive) bool {
	if i+1 >= len(tp.code) || lv.ld[i+1] {
		return false
	}
	in, nx := &tp.code[i], &tp.code[i+1]
	t := in.a
	if !tp.isTmp(tkF, t) {
		return false
	}
	k := tp.constF[in.b]
	kidx := in.b

	// Compares write an int register; arithmetic writes a float one.
	// Redefinition of t can only happen through the float write field.
	dead := tp.deadOrRedefined(lv, i+1, tkF, t)
	if !dead {
		return false
	}

	switch nx.op {
	case tMovF:
		if nx.b != t {
			return false
		}
		*nx = tinstr{op: tConstF, a: nx.a, b: kidx}
		*in = tinstr{}
		return true
	case tRoundF:
		if nx.b != t {
			return false
		}
		*nx = tinstr{op: tConstF, a: nx.a, b: tp.constIdxF(float64(float32(k)))}
		*in = tinstr{}
		return true
	}

	m := constFolds[nx.op]
	if m.right == 0 {
		return false
	}
	switch {
	case nx.c == t && nx.b != t:
		*nx = tinstr{op: m.right, a: nx.a, b: nx.b, c: kidx}
	case nx.b == t && nx.c != t:
		if m.swapNaN && math.IsNaN(k) {
			return false
		}
		*nx = tinstr{op: m.left, a: nx.a, b: nx.c, c: kidx}
	default:
		return false
	}
	*in = tinstr{}
	return true
}

// constFold names the pooled-constant forms of a reg-reg float op.
type constFold struct {
	right, left topcode
	swapNaN     bool // left form commutes operands — unsafe for NaN K
}

var constFolds = [256]constFold{
	tAddF: {tAddFC, tAddFC, true},
	tSubF: {tSubFC, tRsbFC, false},
	tMulF: {tMulFC, tMulFC, true},
	tDivF: {tDivFC, tRdivFC, false},
	tEqF:  {tEqFC, tEqFC, false}, // symmetric predicates are exact
	tNeF:  {tNeFC, tNeFC, false},
	tLtF:  {tLtFC, tGtFC, false}, // K < x  ⇔  x > K, incl. NaN
	tLeF:  {tLeFC, tGeFC, false},
	tGtF:  {tGtFC, tLtFC, false},
	tGeF:  {tGeFC, tLeFC, false},
}

// cmpBranch is the fused compare-and-branch of a compare op; flip
// negates the predicate (int compares reduce to eq/lt/le).
type cmpBranch struct {
	op   topcode
	flip bool
}

var cmpBranches = [256]cmpBranch{
	tEqI: {tJeqI, false}, tNeI: {tJeqI, true},
	tLtI: {tJltI, false}, tGeI: {tJltI, true},
	tLeI: {tJleI, false}, tGtI: {tJleI, true},
	tEqII: {tJeqII, false}, tNeII: {tJeqII, true},
	tLtII: {tJltII, false}, tGeII: {tJltII, true},
	tLeII: {tJleII, false}, tGtII: {tJleII, true},
	tEqF: {op: tJeqF}, tNeF: {op: tJneF}, tLtF: {op: tJltF},
	tLeF: {op: tJleF}, tGtF: {op: tJgtF}, tGeF: {op: tJgeF},
	tEqFC: {op: tJeqFC}, tNeFC: {op: tJneFC}, tLtFC: {op: tJltFC},
	tLeFC: {op: tJleFC}, tGtFC: {op: tJgtFC}, tGeFC: {op: tJgeFC},
}

// fuseCmpBranch rewrites [compare t,…][tJz/tJnz t] into one fused
// compare-and-branch. Int predicates reduce to eq/lt/le with a negate
// flag (exact); float predicates keep all six and only negate the
// branch sense, which is NaN-exact by construction.
func (tp *tape) fuseCmpBranch(i int, lv *tlive) bool {
	if i+1 >= len(tp.code) || lv.ld[i+1] {
		return false
	}
	in, nx := &tp.code[i], &tp.code[i+1]
	if nx.op != tJz && nx.op != tJnz {
		return false
	}
	t := in.a
	if nx.b != t || !tp.isTmp(tkI, t) || lv.liveOut(i+1, tkI, t) {
		return false
	}
	neg := nx.op == tJz
	var out tinstr
	switch in.op {
	case tNotI:
		// [tNotI t,v][jz t] ⇔ jump when v != 0.
		if neg {
			out = tinstr{op: tJnz, a: nx.a, b: in.b}
		} else {
			out = tinstr{op: tJz, a: nx.a, b: in.b}
		}
	case tTstF:
		if neg {
			out = tinstr{op: tJzF, a: nx.a, b: in.b}
		} else {
			out = tinstr{op: tJnzF, a: nx.a, b: in.b}
		}
	case tTstP:
		if neg {
			out = tinstr{op: tJzP, a: nx.a, b: in.b}
		} else {
			out = tinstr{op: tJnzP, a: nx.a, b: in.b}
		}
	case tEqI, tNeI, tLtI, tLeI, tGtI, tGeI:
		m := cmpBranches[in.op]
		out = tinstr{op: m.op, a: nx.a, b: in.b, c: in.c, aux: b2i(neg != m.flip)}
	case tEqII, tNeII, tLtII, tLeII, tGtII, tGeII:
		m := cmpBranches[in.op]
		out = tinstr{op: m.op, a: nx.a, b: in.b, c: int32(b2i(neg != m.flip)), aux: in.aux}
	case tEqF, tNeF, tLtF, tLeF, tGtF, tGeF, tEqFC, tNeFC, tLtFC, tLeFC, tGtFC, tGeFC:
		out = tinstr{op: cmpBranches[in.op].op, a: nx.a, b: in.b, c: in.c, aux: b2i(neg)}
	default:
		return false
	}
	*nx = out
	*in = tinstr{}
	return true
}

// elimMov retargets [op → t][tMov* v,t] into op writing v directly
// when t is a dead-after temp. Operands are read before the result is
// written, so this is exact even when op reads v.
func (tp *tape) elimMov(i int, lv *tlive) bool {
	if i+1 >= len(tp.code) || lv.ld[i+1] {
		return false
	}
	in, nx := &tp.code[i], &tp.code[i+1]
	var kind int
	switch nx.op {
	case tMovI:
		kind = tkI
	case tMovF:
		kind = tkF
	case tMovP:
		kind = tkP
	default:
		return false
	}
	d := &tdescs[in.op]
	wf := d.writeField(kind)
	if wf != int8(fA) || d.flags&tfJump != 0 {
		return false
	}
	t := in.a
	if nx.b != t || nx.a == t || !tp.isTmp(kind, t) || lv.liveOut(i+1, kind, t) {
		return false
	}
	in.a = nx.a
	*nx = tinstr{}
	return true
}

// scanStop reports instructions a forward value-motion scan cannot
// cross: control flow, calls and launches, and jump targets.
func (tp *tape) scanStop(j int, lv *tlive) bool {
	if lv.ld[j] {
		return true
	}
	return tdescs[tp.code[j].op].flags&(tfBarrier|tfJump|tfExit) != 0
}

// copyProp forwards [tMov* t,v] into the first consumer of t within
// the window, when nothing in between touches t or v and t dies at the
// consumer.
func (tp *tape) copyProp(i int, lv *tlive) bool {
	in := &tp.code[i]
	var kind int
	switch in.op {
	case tMovI:
		kind = tkI
	case tMovF:
		kind = tkF
	case tMovP:
		kind = tkP
	default:
		return false
	}
	t, v := in.a, in.b
	if t == v || !tp.isTmp(kind, t) {
		return false
	}
	for j := i + 1; j < len(tp.code) && j <= i+tapeOptWindow; j++ {
		if tp.scanStop(j, lv) {
			return false
		}
		nx := &tp.code[j]
		if instrReads(nx, kind, t) {
			if !tp.deadOrRedefined(lv, j, kind, t) {
				return false
			}
			substReads(nx, kind, t, v)
			*in = tinstr{}
			return true
		}
		if instrWrites(nx, kind, t) || instrWrites(nx, kind, v) {
			return false
		}
	}
	return false
}

// fuseMulAdd turns a float multiply whose dead temp feeds a later
// tAddF into one fused multiply-add, preserving operand order (the
// product stays on the side it occupied in the addition) and both
// roundings.
func (tp *tape) fuseMulAdd(i int, lv *tlive) bool {
	in := &tp.code[i]
	t := in.a
	if !tp.isTmp(tkF, t) {
		return false
	}
	m1, m2 := in.b, in.c
	regMul := in.op == tMulF
	for j := i + 1; j < len(tp.code) && j <= i+tapeOptWindow; j++ {
		if tp.scanStop(j, lv) {
			return false
		}
		nx := &tp.code[j]
		if instrReads(nx, tkF, t) {
			if nx.op != tAddF || !tp.deadOrRedefined(lv, j, tkF, t) {
				return false
			}
			var out tinstr
			switch {
			case nx.b == t && nx.c != t:
				if regMul {
					out = tinstr{op: tMulAddF, a: nx.a, b: m1, c: m2, aux: int64(nx.c)}
				} else {
					out = tinstr{op: tMulAddFC, a: nx.a, b: m1, c: m2, aux: int64(nx.c)}
				}
			case nx.c == t && nx.b != t:
				if regMul {
					out = tinstr{op: tAddMulF, a: nx.a, b: m1, c: m2, aux: int64(nx.b)}
				} else {
					out = tinstr{op: tAddMulFC, a: nx.a, b: m1, c: m2, aux: int64(nx.b)}
				}
			default:
				return false
			}
			*nx = out
			*in = tinstr{}
			return true
		}
		if instrWrites(nx, tkF, t) || instrWrites(nx, tkF, m1) ||
			(regMul && instrWrites(nx, tkF, m2)) {
			return false
		}
	}
	return false
}

// indexedOps maps an indirect access to its indexed forms: {global
// base, frame base}.
var indexedOps = [256][2]topcode{
	tLdInd:  {tLdGIdx, tLdIdx},
	tLdIndF: {tLdGIdxF, tLdIdxF},
	tLdIndP: {tLdGIdxP, tLdIdxP},
	tStInd:  {tStGIdx, tStIdx},
	tStIndF: {tStGIdxF, tStIdxF},
	tStIndP: {tStGIdxP, tStIdxP},
}

// fuseIndexed collapses [tPtrIdx/tPtrOff p,base,idx][access through p]
// into one indexed superinstruction that reads the base register at the
// access — the pair is adjacent, so it holds the same pointer. When the
// base is a temp that dies there and its producer — tLdGP (global
// array) or tMovP (frame slot) — sits a few instructions back, the
// producer folds in too and the fused op re-reads its source; the scan
// only crosses instructions that cannot change the base slot or the
// producer's source, so the re-read yields the identical pointer.
// Address arithmetic and the raw segment access match Pointer.Add +
// Load/Store panic for panic.
func (tp *tape) fuseIndexed(i int, lv *tlive) bool {
	if i+1 >= len(tp.code) || lv.ld[i+1] {
		return false
	}
	idx := &tp.code[i]
	d := idx.a     // pointer register the access reads
	s := idx.b     // pointer register holding the base
	st := int64(1) // element stride
	if idx.op == tPtrIdx {
		st = idx.aux
	}
	if !tp.isTmp(tkP, d) {
		return false
	}
	nx := &tp.code[i+1]
	var isLoad bool
	switch nx.op {
	case tLdInd, tLdIndF, tLdIndP:
		if nx.b != d {
			return false
		}
		isLoad = true
	case tStInd, tStIndF, tStIndP:
		if nx.a != d {
			return false
		}
	default:
		return false
	}
	if !tp.deadOrRedefined(lv, i+1, tkP, d) {
		return false
	}

	global, base, prod := false, s, -1
	if tp.isTmp(tkP, s) && !lv.ld[i] && (s == d || !lv.liveOut(i+1, tkP, s)) {
		if prod = tp.baseProducer(i, s, lv); prod >= 0 {
			global, base = tp.code[prod].op == tLdGP, tp.code[prod].b
		}
	}

	ops := indexedOps[nx.op]
	op := ops[1]
	if global {
		op = ops[0]
	}
	var out tinstr
	if isLoad {
		out = tinstr{op: op, a: nx.a, b: base, c: idx.c, aux: st}
	} else {
		out = tinstr{op: op, a: nx.b, b: base, c: idx.c, aux: st}
	}
	*nx = out
	*idx = tinstr{}
	if prod >= 0 {
		tp.code[prod] = tinstr{}
	}
	return true
}

// baseProducer returns the pc of the tLdGP or tMovP loading the pointer
// temp s that the access after i indexes from, or -1 when there is
// none the fused op could re-read in its place.
func (tp *tape) baseProducer(i int, s int32, lv *tlive) int {
	for j := i - 1; j >= 0 && j >= i-tapeOptWindow; j-- {
		pj := &tp.code[j]
		if (pj.op == tLdGP || pj.op == tMovP) && pj.a == s {
			if pj.op == tMovP {
				// Frame-slot base: its value must be unchanged up to the
				// access.
				for k := j + 1; k < i; k++ {
					if instrWrites(&tp.code[k], tkP, pj.b) {
						return -1
					}
				}
			}
			return j
		}
		// Positions between producer and access must not be entered
		// sideways; the producer itself may be a leader (the fused
		// access re-reads the same unchanged base).
		if instrReads(pj, tkP, s) || instrWrites(pj, tkP, s) || lv.ld[j] ||
			tdescs[pj.op].flags&(tfBarrier|tfJump|tfExit|tfGWrite) != 0 {
			return -1
		}
	}
	return -1
}

// fuseRoundStore merges [tRoundF t,src][indexed float store of t] into
// the round-while-storing forms.
func (tp *tape) fuseRoundStore(i int, lv *tlive) bool {
	if i+1 >= len(tp.code) || lv.ld[i+1] {
		return false
	}
	in, nx := &tp.code[i], &tp.code[i+1]
	t := in.a
	if !tp.isTmp(tkF, t) {
		return false
	}
	var op topcode
	switch nx.op {
	case tStGIdxF:
		op = tStGIdxFR
	case tStIdxF:
		op = tStIdxFR
	default:
		return false
	}
	if nx.a != t || lv.liveOut(i+1, tkF, t) {
		return false
	}
	nx.op = op
	nx.a = in.b
	*in = tinstr{}
	return true
}

// fuseLoadRound merges [indexed float load t][tRoundF v,t] into the
// rounding load forms (float32 array reads feeding float declarations).
func (tp *tape) fuseLoadRound(i int, lv *tlive) bool {
	if i+1 >= len(tp.code) || lv.ld[i+1] {
		return false
	}
	in, nx := &tp.code[i], &tp.code[i+1]
	t := in.a
	if !tp.isTmp(tkF, t) || nx.op != tRoundF || nx.b != t {
		return false
	}
	if !tp.deadOrRedefined(lv, i+1, tkF, t) {
		return false
	}
	switch in.op {
	case tLdGIdxF:
		in.op = tLdGIdxFR
	case tLdIdxF:
		in.op = tLdIdxFR
	default:
		return false
	}
	in.a = nx.a
	*nx = tinstr{}
	return true
}

// fuseIncJlt merges a rotated loop tail [tAddII v,v,1][tJltII v < N]
// into one increment-test-branch. v may be a local: the fused form
// performs the identical write.
func (tp *tape) fuseIncJlt(i int, lv *tlive) bool {
	if i+1 >= len(tp.code) || lv.ld[i+1] {
		return false
	}
	in, nx := &tp.code[i], &tp.code[i+1]
	if in.a != in.b || in.aux != 1 {
		return false
	}
	if nx.op != tJltII || nx.b != in.a || nx.c != 0 {
		return false
	}
	*nx = tinstr{op: tIncJltII, a: nx.a, b: in.a, aux: nx.aux}
	*in = tinstr{}
	return true
}
