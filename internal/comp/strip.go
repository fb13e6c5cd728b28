package comp

// The strip evaluator: the one body every fused loop runs on. The
// postfix tape of a matched loop is lowered once, at compile time, to a
// small register program; a launch then executes that program one op at
// a time over a strip of up to stripLen elements — each op a tight loop
// over columns, the next op over the columns it left — instead of
// re-dispatching the whole tape per element (the vector-at-a-time
// execution of column stores: Boncz, Zukowski, Nes, "MonetDB/X100:
// Hyper-pipelining query execution", CIDR 2005). The result column of
// a strip goes to the kernel's sink: the element store, a fold into an
// accumulator (sum, with a root product folded straight from its two
// operands, or min/max), or a histogram scatter.
//
// Columns live in a fixed-size array on the launching goroutine's Go
// stack and are addressed positionally (buf[r*stripLen:][:n]): map
// kernels of a parallel region run concurrently on the shared parent
// env, so scratch can live neither there nor — without an allocation
// per launch — on the heap. Launch invariants stay scalars and
// unit-stride loads are read where they lie; neither occupies a column.
//
// Two things keep a strip indistinguishable from the per-iteration
// dispatch loop (contract rules 2, 4 and 5 of kernel.go):
//
//   - the distance rule: every load of a strip is read before any of
//     its results is stored, so a strip must never contain an element
//     that reads a cell an earlier element of the same strip stores.
//     prepFrame bounds the strip length by the smallest such backward
//     distance (x[i] = x[i-d] + c runs d elements at a time, d = 1 one
//     by one); the same walk (Y[i] op= …) and forward reads are no
//     hazard. An accumulator cell is written back after every strip,
//     so where an operand can read it, strips of one write it through;
//   - replay: a strip that meets a zero divisor or a gathered index
//     outside its array stores nothing and is re-run at strip length 1,
//     where the trapping op traps, so the cells written before the trap
//     and the message (the first trapping op of the first trapping
//     element) are the dispatch loop's. A launch whose affine operand
//     runs off its array runs the elements before that as usual and
//     the first one outside alone, through the segments' own slices
//     (fusedKernel.replay).

import (
	"math/bits"

	"purec/internal/token"
)

const (
	// stripLen is the number of elements an op processes per dispatch.
	stripLen = 128
	// maxRegs bounds the columns of a register program and smallRegs
	// is the size class almost every kernel fits (a launch zeroes its
	// buffer, and rows of a hundred elements notice 16 KiB of that).
	maxRegs   = 16
	smallRegs = 4
	// maxLoads and maxInvs size the operand arrays of a launch frame
	// (a tape as deep as maxTapeDepth allows can hold that many loads);
	// maxNodes bounds the tape a lowering looks at. A loop past any
	// bound stays on the dispatch path.
	maxLoads = maxTapeDepth
	maxInvs  = 8
	maxNodes = 64
)

// operand names an input of a register-program op.
type operand struct {
	kind uint8
	idx  uint8
}

const (
	inCol  uint8 = iota // column idx of the strip buffer
	inLoad              // load idx of the frame, read in place
	inInv               // invariant idx of the frame, a scalar
)

// stripOp is one op of the register program: dst = a code b over the
// strip. opLoad gathers a strided load into dst, opGather the gathered
// cells its index load a names, opIter/opIterF write the iterator
// values.
type stripOp struct {
	code uint8
	dst  uint8
	a, b operand
}

// lower compiles the postfix tape into k.prog with value numbering —
// identical subtrees (the argument an inlined square(x) duplicates)
// get one node, so they are computed once per strip — and assigns
// columns by a linear scan that frees a column at its value's last use.
// It reports false when the kernel exceeds a bound of the evaluator.
func (k *fusedKernel) lower() bool {
	if len(k.loads) > maxLoads || len(k.invX) > maxInvs {
		return false
	}
	// Value numbering: a node is its opcode and operand nodes (the
	// operand index for leaves); the tape is short, so finding an equal
	// node is a scan.
	type node struct {
		code uint8
		a, b int8
	}
	var (
		nodes [maxNodes]node
		last  [maxNodes]int8 // index of the last node reading this one
		stack [maxTapeDepth]int8
		n, sp int
	)
	for _, op := range k.tape {
		nd := node{code: op.code, a: -1, b: -1}
		switch op.code {
		case opLoad, opInv, opGather:
			nd.a = int8(op.arg)
		case opIter, opIterF:
		case opNeg, opNot, opRound:
			sp--
			nd.a = stack[sp]
		default:
			sp -= 2
			nd.a, nd.b = stack[sp], stack[sp+1]
		}
		id := 0
		for id < n && nodes[id] != nd {
			id++
		}
		if id == n {
			nodes[n] = nd
			n++
			if nd.code != opLoad && nd.code != opInv && nd.code != opGather {
				if nd.a >= 0 {
					last[nd.a] = int8(id)
				}
				if nd.b >= 0 {
					last[nd.b] = int8(id)
				}
			}
		}
		if sp == len(stack) {
			return false
		}
		stack[sp] = int8(id)
		sp++
	}
	root := int(stack[0])
	last[root] = maxNodes // the sink reads it after the last op
	// A float sum folds its root product, rounded or not, straight from
	// the two operands: a separate product pass costs up to 60 % on a
	// dot. The product (and the rounding above it) is the last node.
	if k.sink == sinkSum && k.float {
		r := root
		if nodes[r].code == opRound {
			r = int(nodes[r].a)
		}
		if nd := nodes[r]; nd.code == opMul {
			k.mul, k.round, root, n = true, r != root, r, r
			last[nd.a], last[nd.b] = maxNodes, maxNodes
		}
	}

	// Column assignment and emission, in node order. An op may write
	// the column of an operand that dies with it: every op reads index
	// i of its inputs before it writes index i.
	var where [maxNodes]operand
	free := uint32(1)<<maxRegs - 1
	k.prog = make([]stripOp, 0, n)
	for id := 0; id < n; id++ {
		nd := nodes[id]
		op := stripOp{code: nd.code}
		switch nd.code {
		case opInv:
			where[id] = operand{inInv, uint8(nd.a)}
			continue
		case opLoad:
			where[id] = operand{inLoad, uint8(nd.a)}
			if k.loads[nd.a].stride == 1 {
				continue
			}
			op.a = where[id]
		case opGather:
			op.a = operand{inLoad, uint8(nd.a)}
		case opIter, opIterF:
		default:
			for _, in := range [2]int8{nd.a, nd.b} {
				if in >= 0 && where[in].kind == inCol && int(last[in]) == id {
					free |= 1 << where[in].idx
				}
			}
			op.a = where[nd.a]
			if nd.b >= 0 {
				op.b = where[nd.b]
			}
		}
		if free == 0 {
			return false
		}
		op.dst = uint8(bits.TrailingZeros32(free))
		free &^= 1 << op.dst
		where[id] = operand{inCol, op.dst}
		k.regs = max(k.regs, int(op.dst)+1)
		k.prog = append(k.prog, op)
	}
	k.res, k.res2 = where[root], where[root]
	if k.mul {
		k.res, k.res2 = where[nodes[root].a], where[nodes[root].b]
	}
	return true
}

// emit selects the kernel body — nil when the tape exceeds a bound of
// the evaluator — and drops what only recognition needed: the launch
// function keeps k alive for as long as the Program lives. The tape
// stays for replay when an operand's range check fails.
func (k *fusedKernel) emit() kernRun {
	k.run = k.body()
	k.loadX, k.gatX = nil, nil
	return k.run
}

// body is a specialized loop for the few shapes that have one,
// otherwise the evaluator of the kernel's element kind wrapped in a
// launch function that owns the strip buffer.
func (k *fusedKernel) body() kernRun {
	if k.sink == sinkStore {
		if r := emitScale(k); r != nil {
			return r
		}
		if r := emitTriad(k); r != nil {
			return r
		}
	}
	if !k.lower() {
		return nil
	}
	// A launch zeroes its buffer, so it takes the smallest size class:
	// none, one column, smallRegs or maxRegs columns.
	switch {
	case k.regs == 0 && k.float:
		return func(e *env, lo, hi int64) { k.runFloat(e, lo, hi, nil) }
	case k.regs == 0:
		return func(e *env, lo, hi int64) { k.runInt(e, lo, hi, nil) }
	case k.regs == 1 && k.float:
		return func(e *env, lo, hi int64) {
			var buf [stripLen]float64
			k.runFloat(e, lo, hi, buf[:])
		}
	case k.regs == 1:
		return func(e *env, lo, hi int64) {
			var buf [stripLen]int64
			k.runInt(e, lo, hi, buf[:])
		}
	case k.float && k.regs <= smallRegs:
		return func(e *env, lo, hi int64) {
			var buf [smallRegs * stripLen]float64
			k.runFloat(e, lo, hi, buf[:])
		}
	case k.float:
		return func(e *env, lo, hi int64) {
			var buf [maxRegs * stripLen]float64
			k.runFloat(e, lo, hi, buf[:])
		}
	case k.regs <= smallRegs:
		return func(e *env, lo, hi int64) {
			var buf [smallRegs * stripLen]int64
			k.runInt(e, lo, hi, buf[:])
		}
	}
	return func(e *env, lo, hi int64) {
		var buf [maxRegs * stripLen]int64
		k.runInt(e, lo, hi, buf[:])
	}
}

// runFloat is one launch of a float kernel: strip by strip, evaluate
// and sink — store, rounding through float32 exactly when the stored C
// type is 4 bytes, or fold into the accumulator.
func (k *fusedKernel) runFloat(e *env, lo, hi int64, buf []float64) {
	var fr kframe
	k.prepFrame(&fr, e, lo, hi)
	if k.res.kind == inInv { // a fill: a fold's operands all vary
		v := fr.invF[k.res.idx]
		if fr.f32 {
			v = float64(float32(v))
		}
		fillStrip(fr.dst.f, fr.dst.stride, fr.n, v)
		return
	}
	for t0 := 0; t0 < fr.n; {
		n := min(fr.strip, fr.n-t0)
		res, res2, ok := k.evalFloat(&fr, buf, t0, n)
		switch {
		case !ok:
			fr.strip = 1 // replay
			continue
		case k.sink == sinkSum:
			*fr.accF = foldSum(*fr.accF, res, res2, k.mul, k.round, fr.f32)
		case k.sink != sinkStore:
			*fr.accF = foldMinMax(*fr.accF, res, k.sink == sinkMin, fr.f32)
		case fr.f32:
			roundStrip(fr.dst.f, fr.dst.stride, t0, res)
		default:
			storeStrip(fr.dst.f, fr.dst.stride, t0, res)
		}
		t0 += n
	}
}

// runInt is one launch of an integer kernel: the element store of a
// map, a fold into the accumulator's frame slot (a sum is exact in any
// order, so the strip's partial sums are the loop's), or the index
// column of a scatter.
func (k *fusedKernel) runInt(e *env, lo, hi int64, buf []int64) {
	var fr kframe
	k.prepFrame(&fr, e, lo, hi)
	if k.res.kind == inInv {
		if v := fr.invI[k.res.idx]; k.sink == sinkSum {
			*fr.accI += v * int64(fr.n)
		} else {
			fillStrip(fr.dst.i, fr.dst.stride, fr.n, v)
		}
		return
	}
	for t0 := 0; t0 < fr.n; {
		n := min(fr.strip, fr.n-t0)
		res, ok := k.evalInt(&fr, buf, t0, n)
		switch {
		case !ok:
			fr.strip = 1 // replay
			continue
		case k.sink == sinkStore:
			storeStrip(fr.dst.i, fr.dst.stride, t0, res)
		case k.sink == sinkSum:
			var s int64
			for _, v := range res {
				s += v
			}
			*fr.accI += s
		case k.sink == sinkScatter:
			k.scatter(&fr, res)
		default:
			*fr.accI = foldMinMax(*fr.accI, res, k.sink == sinkMin, false)
		}
		t0 += n
	}
}

// foldSum adds a strip to acc in ascending order: the column a, or with
// mul the products a[i]*b[i], rounded through float32 first with round;
// with f32 every partial sum rounds through float32, like the
// accumulator's store in the dispatch loop.
func foldSum(acc float64, a, b []float64, mul, round, f32 bool) float64 {
	b = b[:len(a)]
	switch {
	case !mul:
		for _, v := range a {
			acc += v
			if f32 {
				acc = float64(float32(acc))
			}
		}
	case round:
		for i, v := range a {
			acc += float64(float32(v * b[i]))
			if f32 {
				acc = float64(float32(acc))
			}
		}
	default:
		for i, v := range a {
			acc += v * b[i]
			if f32 {
				acc = float64(float32(acc))
			}
		}
	}
	return acc
}

// foldMinMax folds a strip into acc by strict compare, so NaN data never
// replaces it. With f32 an update stores the candidate rounded through
// float32 while the compare saw it unrounded, like the dispatch loop's
// condition-then-assign.
func foldMinMax[T int64 | float64](acc T, a []T, less, f32 bool) T {
	for _, v := range a {
		if (less && v < acc) || (!less && v > acc) {
			acc = v
			if f32 {
				acc = T(float32(v))
			}
		}
	}
	return acc
}

// scatter applies a strip of histogram updates gat[v] op= u, u the
// kernel's one invariant, in element order and each through the slice
// access of the dispatch loop: an index outside the array traps with
// its message once the cells before it are updated.
func (k *fusedKernel) scatter(fr *kframe, ix []int64) {
	off := fr.gat.Off
	if k.gat.float {
		dst, v := fr.gat.Seg.F, fr.invF[0]
		for _, b := range ix {
			c := off + int(b)
			var nv float64
			switch k.op {
			case token.ADD:
				nv = dst[c] + v
			case token.SUB:
				nv = dst[c] - v
			default:
				nv = dst[c] * v
			}
			if fr.f32 {
				nv = float64(float32(nv))
			}
			dst[c] = nv
		}
		return
	}
	dst, v := fr.gat.Seg.I, fr.invI[0]
	switch k.op {
	case token.ADD:
		for _, b := range ix {
			dst[off+int(b)] += v
		}
	case token.SUB:
		for _, b := range ix {
			dst[off+int(b)] -= v
		}
	case token.MUL:
		for _, b := range ix {
			dst[off+int(b)] *= v
		}
	case token.AND:
		for _, b := range ix {
			dst[off+int(b)] &= v
		}
	case token.OR:
		for _, b := range ix {
			dst[off+int(b)] |= v
		}
	case token.XOR:
		for _, b := range ix {
			dst[off+int(b)] ^= v
		}
	}
}

// storeStrip writes a strip's results to the store operand. The results
// may be a load read in place that overlaps the destination, but under
// the distance rule only from ahead, where the ascending loop reads
// before it writes and the memmove of copy does as well.
func storeStrip[T int64 | float64](dst []T, ds, t0 int, res []T) {
	if ds == 1 && len(res) >= 8 {
		copy(dst[t0:], res)
		return
	}
	c := t0 * ds
	for _, v := range res {
		dst[c] = v
		c += ds
	}
}

// fillStrip stores an invariant result, the whole launch in one strip.
func fillStrip[T int64 | float64](dst []T, ds, n int, v T) {
	for c := 0; n > 0; n, c = n-1, c+ds {
		dst[c] = v
	}
}

// roundStrip is storeStrip into a 4-byte float array.
func roundStrip(dst []float64, ds, t0 int, res []float64) {
	if ds == 1 {
		d := dst[t0:][:len(res)]
		for i, v := range res {
			d[i] = float64(float32(v))
		}
		return
	}
	c := t0 * ds
	for _, v := range res {
		dst[c] = float64(float32(v))
		c += ds
	}
}

// Operand forms of a binary op.
const (
	formVV uint8 = iota // column op column
	formVS              // column op scalar
	formSV              // scalar op column
)

// evalFloat runs the register program over elements [t0, t0+n) of the
// launch and returns the result column — with a folded root product,
// its two operand columns. A gathered index outside its array makes it
// report false instead (see gatherIdx).
func (k *fusedKernel) evalFloat(fr *kframe, buf []float64, t0, n int) (res, res2 []float64, ok bool) {
	col := func(o operand) []float64 {
		if o.kind == inLoad {
			return fr.loads[o.idx].f[t0:][:n]
		}
		return buf[int(o.idx)*stripLen:][:n]
	}
	for i := range k.prog {
		op := &k.prog[i]
		d := buf[int(op.dst)*stripLen:][:n]
		switch op.code {
		case opLoad:
			gatherStrip(d, fr.loads[op.a.idx].f, fr.loads[op.a.idx].stride, t0)
		case opGather:
			if !gatherIdx(d, fr.gat.Seg.F, fr.gat.Off, fr.loads[op.a.idx], t0, &k.gat) {
				return nil, nil, false
			}
		case opIterF:
			iterStrip(d, fr.lo+int64(t0))
		case opNeg:
			negStrip(d, col(op.a))
		case opRound:
			for i, v := range col(op.a)[:len(d)] {
				d[i] = float64(float32(v))
			}
		default:
			a, b, s, form := d, d, 0.0, formVV
			if op.a.kind == inInv {
				s, form = fr.invF[op.a.idx], formSV
			} else {
				a = col(op.a)
			}
			if op.b.kind == inInv {
				s, form = fr.invF[op.b.idx], formVS
			} else {
				b = col(op.b)
			}
			arith(op.code, form, d, a, b, s)
		}
	}
	return col(k.res), col(k.res2), true
}

// evalInt is evalFloat for integer programs. A zero divisor anywhere in
// the strip makes it report false before the op divides — in a strip
// of one, trap with the dispatch loop's message.
func (k *fusedKernel) evalInt(fr *kframe, buf []int64, t0, n int) ([]int64, bool) {
	col := func(o operand) []int64 {
		if o.kind == inLoad {
			return fr.loads[o.idx].i[t0:][:n]
		}
		return buf[int(o.idx)*stripLen:][:n]
	}
	for i := range k.prog {
		op := &k.prog[i]
		d := buf[int(op.dst)*stripLen:][:n]
		switch op.code {
		case opLoad:
			gatherStrip(d, fr.loads[op.a.idx].i, fr.loads[op.a.idx].stride, t0)
		case opGather:
			if !gatherIdx(d, fr.gat.Seg.I, fr.gat.Off, fr.loads[op.a.idx], t0, &k.gat) {
				return nil, false
			}
		case opIter:
			iterStrip(d, fr.lo+int64(t0))
		case opNeg:
			negStrip(d, col(op.a))
		case opNot:
			for i, v := range col(op.a)[:len(d)] {
				d[i] = ^v
			}
		default:
			a, b, s, form := d, d, int64(0), formVV
			if op.a.kind == inInv {
				s, form = fr.invI[op.a.idx], formSV
			} else {
				a = col(op.a)
			}
			if op.b.kind == inInv {
				s, form = fr.invI[op.b.idx], formVS
			} else {
				b = col(op.b)
			}
			if op.code == opQuo || op.code == opRem {
				zero := form == formVS && s == 0
				if form != formVS {
					for _, v := range b {
						zero = zero || v == 0
					}
				}
				switch {
				case zero && n == 1 && op.code == opQuo:
					rtPanic("integer division by zero")
				case zero && n == 1:
					rtPanic("integer modulo by zero")
				case zero:
					return nil, false
				}
			}
			if op.code <= opQuo {
				arith(op.code, form, d, a, b, s)
			} else {
				intStrip(op.code, form, d, a, b, s)
			}
		}
	}
	return col(k.res), true
}

func gatherStrip[T int64 | float64](d, src []T, stride, t0 int) {
	c := t0 * stride
	for i := range d {
		d[i] = src[c]
		c += stride
	}
}

// gatherIdx loads the strip's gathered cells src[off+clamp(idx)], idx
// walking ix. An index outside src stops it with false — in a strip of
// one after trapping through the very slice access of the dispatch
// loop.
func gatherIdx[T int64 | float64](d, src []T, off int, ix kslice, t0 int, g *kGather) bool {
	idx, s, c := ix.i, ix.stride, t0*ix.stride
	lo, hi := g.lo, g.hi
	for i := range d {
		cell := off + int(min(max(idx[c], lo), hi))
		c += s
		if uint(cell) >= uint(len(src)) {
			if len(d) == 1 {
				_ = src[cell]
			}
			return false
		}
		d[i] = src[cell]
	}
	return true
}

// replay finishes a launch at element t, the first whose affine operand
// lies outside its array, after running the elements before it: it
// evaluates t alone the way the dispatch loop does — in the tape's
// order, except that a compound store reads its own cell after the
// right side, loads and the store through the segments' own slices —
// so t traps with the dispatch loop's message, at its first trapping
// op.
func (k *fusedKernel) replay(e *env, fr *kframe, t int64) {
	if t > fr.lo {
		k.run(e, fr.lo, t-1)
	}
	var fs [maxTapeDepth][1]float64
	var is [maxTapeDepth][1]int64
	load := func(a *kAccess, at int) {
		sp := a.span(e, t, t)
		if a.float {
			fs[at][0] = sp.seg.F[sp.first]
		} else {
			is[at][0] = sp.seg.I[sp.first]
		}
	}
	n := 0
	for i, op := range k.tape {
		if k.rmw && i == len(k.tape)-1 {
			load(&k.store, 0)
		}
		switch op.code {
		case opLoad:
			if !k.rmw || i > 0 {
				load(&k.loads[op.arg], n)
			}
			n++
		case opInv:
			fs[n][0], is[n][0] = fr.invF[op.arg], fr.invI[op.arg]
			n++
		case opIter, opIterF:
			fs[n][0], is[n][0] = float64(t), t
			n++
		case opGather:
			load(&k.loads[op.arg], n)
			ix := kslice{i: is[n][:]}
			if k.float {
				gatherIdx(fs[n][:], fr.gat.Seg.F, fr.gat.Off, ix, 0, &k.gat)
			} else {
				gatherIdx(is[n][:], fr.gat.Seg.I, fr.gat.Off, ix, 0, &k.gat)
			}
			n++
		case opNeg:
			fs[n-1][0], is[n-1][0] = -fs[n-1][0], -is[n-1][0]
		case opNot:
			is[n-1][0] = ^is[n-1][0]
		case opRound:
			fs[n-1][0] = float64(float32(fs[n-1][0]))
		default:
			n--
			switch {
			case k.float:
				arith(op.code, formVV, fs[n-1][:], fs[n-1][:], fs[n][:], 0)
			case op.code == opQuo && is[n][0] == 0:
				rtPanic("integer division by zero")
			case op.code == opRem && is[n][0] == 0:
				rtPanic("integer modulo by zero")
			case op.code <= opQuo:
				arith(op.code, formVV, is[n-1][:], is[n-1][:], is[n][:], 0)
			default:
				intStrip(op.code, formVV, is[n-1][:], is[n-1][:], is[n][:], 0)
			}
		}
	}
	// Only a store can be the operand outside when the right side was
	// not: the sink of every other kernel is no affine operand.
	sp := k.store.span(e, t, t)
	if k.float {
		sp.seg.F[sp.first] = fs[0][0]
	} else {
		sp.seg.I[sp.first] = is[0][0]
	}
}

func iterStrip[T int64 | float64](d []T, first int64) {
	for i := range d {
		d[i] = T(first + int64(i))
	}
}

func negStrip[T int64 | float64](d, a []T) {
	for i, v := range a[:len(d)] {
		d[i] = -v
	}
}

// arith runs one of the four binary ops both element kinds have over a
// strip. Integer division reaches it only after evalInt has seen every
// divisor.
func arith[T int64 | float64](code, form uint8, d, a, b []T, s T) {
	a, b = a[:len(d)], b[:len(d)]
	switch code<<2 | form {
	case opAdd<<2 | formVV:
		for i := range d {
			d[i] = a[i] + b[i]
		}
	case opAdd<<2 | formVS:
		for i := range d {
			d[i] = a[i] + s
		}
	case opAdd<<2 | formSV:
		for i := range d {
			d[i] = s + b[i]
		}
	case opSub<<2 | formVV:
		for i := range d {
			d[i] = a[i] - b[i]
		}
	case opSub<<2 | formVS:
		for i := range d {
			d[i] = a[i] - s
		}
	case opSub<<2 | formSV:
		for i := range d {
			d[i] = s - b[i]
		}
	case opMul<<2 | formVV:
		for i := range d {
			d[i] = a[i] * b[i]
		}
	case opMul<<2 | formVS:
		for i := range d {
			d[i] = a[i] * s
		}
	case opMul<<2 | formSV:
		for i := range d {
			d[i] = s * b[i]
		}
	case opQuo<<2 | formVV:
		for i := range d {
			d[i] = a[i] / b[i]
		}
	case opQuo<<2 | formVS:
		for i := range d {
			d[i] = a[i] / s
		}
	case opQuo<<2 | formSV:
		for i := range d {
			d[i] = s / b[i]
		}
	}
}

// intStrip runs an integer-only binary op over a strip: the modulo
// (over divisors evalInt has checked), whose cost is the division's,
// and the bitwise and shift ops, which are rare. Neither earns a loop
// per operand form, so a scalar operand is a one-cell column walked at
// stride 0.
func intStrip(code, form uint8, d, a, b []int64, s int64) {
	sa, sb, cell := 1, 1, [1]int64{s}
	switch form {
	case formVS:
		b, sb = cell[:], 0
	case formSV:
		a, sa = cell[:], 0
	}
	switch code {
	case opRem:
		for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
			d[i] = a[x] % b[y]
		}
	case opAnd:
		for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
			d[i] = a[x] & b[y]
		}
	case opOr:
		for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
			d[i] = a[x] | b[y]
		}
	case opXor:
		for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
			d[i] = a[x] ^ b[y]
		}
	case opShl:
		for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
			d[i] = a[x] << uint(b[y])
		}
	case opShr:
		for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
			d[i] = a[x] >> uint(b[y])
		}
	}
}
