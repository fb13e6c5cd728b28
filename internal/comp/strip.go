package comp

// The strip evaluator: the one body every fused loop runs on. The
// value-numbered expression the lifter read off a loop's body tape is
// lowered once, at compile time, to a small register program; a launch
// then executes that program one op at a time over a strip of up to
// stripLen elements — each op a tight loop over columns, the next op
// over the columns it left — instead of re-dispatching the loop body
// per element (the vector-at-a-time execution of column stores: Boncz,
// Zukowski, Nes, "MonetDB/X100: Hyper-pipelining query execution",
// CIDR 2005). The
// result column of a strip goes to the kernel's sink: the element
// store, a fold into an accumulator (sum, with a root product folded
// straight from its two operands, or min/max), or a histogram scatter.
//
// Columns are addressed positionally (buf[r*stripLen:][:n]) in the
// launch state of the frame stack the kernel runs on (kscratch), grown
// once to the widest program and never zeroed: map kernels of a
// parallel region run concurrently on the shared parent env, so scratch
// cannot live there, but each runs on its worker's own stack. Launch
// invariants stay scalars and unit-stride loads are read where they
// lie; neither occupies a column.
//
// Two rules keep a strip indistinguishable from the per-iteration
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
//   - the bail-out rule: a launch never traps. One that cannot start
//     (a null or freed base, an operand or accumulator cell outside its
//     array, an invariant divisor of zero) returns lo; a strip that
//     meets a zero divisor or a gathered index outside its array sinks
//     nothing and returns its first element; a scatter stops at its
//     first index outside the target.
//     The loop's dispatch body runs the rest, so the cells written
//     before a trap and its message are the dispatch loop's by
//     construction.

import (
	"math/bits"

	"purec/internal/token"
)

const (
	// stripLen is the number of elements an op processes per dispatch.
	stripLen = 128
	// maxRegs bounds the columns of a register program.
	maxRegs = 16
	// maxLoads and maxInvs size the operand and invariant arrays of a
	// launch frame; maxNodes bounds the values a lift numbers, and with
	// them the nodes a lowering looks at. A loop past any bound stays on
	// the dispatch path.
	maxLoads = 16
	maxInvs  = 16
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
// strip (c ? a : b for a select). opLoad gathers a strided load into
// dst, opGather the gathered cells its index load a names,
// opIter/opIterF write the iterator values.
type stripOp struct {
	code    uint8
	dst     uint8
	a, b, c operand
}

// lower compiles the kernel's nodes into k.prog, assigns columns by a
// linear scan that frees a column at its value's last use and picks the
// buffer class. It reports false when the kernel exceeds a bound of the
// evaluator.
func (k *fusedKernel) lower() bool {
	if len(k.loads) > maxLoads || len(k.invs) > maxInvs {
		return false
	}
	nodes, n := k.nodes, len(k.nodes)
	var last [maxNodes]int8 // index of the last node reading this one
	for id, nd := range nodes {
		if nd.code > opGather {
			last[nd.a] = int8(id)
			if nd.b >= 0 {
				last[nd.b] = int8(id)
			}
			if nd.code == opSel {
				last[nd.c] = int8(id)
			}
		}
	}
	root := n - 1
	if k.sink == sinkSum && k.float && nodes[root].code == opInv {
		return false // an invariant term adds up one rounding at a time
	}
	last[root] = maxNodes // the sink reads it after the last op
	// A float sum folds its root product, rounded or not, straight from
	// the two operands: a separate product pass costs up to 60 % on a
	// dot. The product (and the rounding above it) is the last node.
	if k.sink == sinkSum && k.float {
		r := root
		if nodes[r].code == opRound {
			r = int(nodes[r].a)
		}
		if nd := nodes[r]; nd.code == opMul && nodes[nd.a].code != opInv && nodes[nd.b].code != opInv {
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
			c := int8(-1)
			if nd.code == opSel {
				c, op.c = nd.c, where[nd.c]
			}
			for _, in := range [3]int8{nd.a, nd.b, c} {
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

// Launch bodies: the strip evaluator, or one of the two float shapes
// (kernel.go).
const (
	bodyStrip uint8 = iota
	bodyScale
	bodyTriad
)

// emit picks the kernel's launch body — false when the kernel exceeds a
// bound of the evaluator —, computes its constant invariants and drops
// the nodes: the launch keeps k alive for as long as the Program lives,
// and the nodes lie in the compile's scratch buffer.
func (k *fusedKernel) emit() bool {
	ok := k.shape() || k.lower()
	k.nodes = nil
	k.fold()
	return ok
}

// run executes iterations [lo, hi] (inclusive, lo ≤ hi) of a fused loop
// on the launch state of frame stack fs and returns the first one it did
// not complete, hi+1 when it ran them all; the launch runs the rest on
// the loop's dispatch body.
func (k *fusedKernel) run(e *env, fs *frameStack, lo, hi int64) int64 {
	ks := fs.ks
	if ks == nil {
		ks = new(kscratch)
		fs.ks = ks
	}
	if !k.prepFrame(ks, e, lo, hi) {
		return lo
	}
	n := k.regs * stripLen
	switch {
	case k.body != bodyStrip:
		return k.axpy(&ks.fr, hi)
	case k.float:
		if len(ks.f) < n {
			ks.f = make([]float64, n)
		}
		return k.runFloat(&ks.fr, ks.f, hi)
	}
	if len(ks.i) < n {
		ks.i = make([]int64, n)
	}
	return k.runInt(&ks.fr, ks.i, hi)
}

// runFloat is one launch of a float kernel: strip by strip, evaluate
// and sink — store, rounding through float32 exactly when the stored C
// type is 4 bytes, or fold into the accumulator. It returns the first
// element it did not complete, hi+1 after the whole range.
func (k *fusedKernel) runFloat(fr *kframe, buf []float64, hi int64) int64 {
	lo := fr.lo
	if k.res.kind == inInv { // a fill: a fold's operands all vary
		v := fr.invF[k.res.idx]
		if fr.f32 {
			v = float64(float32(v))
		}
		fillStrip(fr.dst.f, fr.dst.stride, fr.n, v)
		return hi + 1
	}
	for t0 := 0; t0 < fr.n; t0 += fr.strip {
		res, res2, ok := k.evalFloat(fr, buf, t0, min(fr.strip, fr.n-t0))
		switch {
		case !ok:
			return lo + int64(t0)
		case k.sink == sinkSum:
			*fr.accF = foldSum(*fr.accF, res, res2, k.mul, k.round, fr.f32)
		case k.sink != sinkStore:
			*fr.accF = foldMinMax(*fr.accF, res, k.sink == sinkMin, fr.f32)
		case fr.f32:
			roundStrip(fr.dst.f, fr.dst.stride, t0, res)
		default:
			storeStrip(fr.dst.f, fr.dst.stride, t0, res)
		}
	}
	return hi + 1
}

// runInt is one launch of an integer kernel: the element store of a
// map, a fold into the accumulator's frame slot (a sum is exact in any
// order, so the strip's partial sums are the loop's), or the index
// column of a scatter. It returns what runFloat does.
func (k *fusedKernel) runInt(fr *kframe, buf []int64, hi int64) int64 {
	lo := fr.lo
	if k.res.kind == inInv {
		if v := fr.invI[k.res.idx]; k.sink == sinkSum {
			*fr.accI += v * int64(fr.n)
		} else {
			fillStrip(fr.dst.i, fr.dst.stride, fr.n, v)
		}
		return hi + 1
	}
	for t0 := 0; t0 < fr.n; t0 += fr.strip {
		res, ok := k.evalInt(fr, buf, t0, min(fr.strip, fr.n-t0))
		switch {
		case !ok:
			return lo + int64(t0)
		case k.sink == sinkStore:
			storeStrip(fr.dst.i, fr.dst.stride, t0, res)
		case k.sink == sinkSum:
			var s int64
			for _, v := range res {
				s += v
			}
			*fr.accI += s
		case k.sink == sinkScatter:
			if n := k.scatter(fr, res); n < len(res) {
				return lo + int64(t0+n)
			}
		default:
			*fr.accI = foldMinMax(*fr.accI, res, k.sink == sinkMin, false)
		}
	}
	return hi + 1
}

// foldSum adds a strip to acc in ascending order: the column a, or with
// mul the products a[i]*b[i], rounded through float32 first with round;
// with f32 every partial sum rounds through float32, like the
// accumulator's store in the dispatch loop. Without mul, round says the
// column's values are binary32 ones. With round and f32 both addends of
// each partial sum are binary32 values (a 4-byte float accumulator, a
// rounded term), so the sum runs natively in float32: adding in binary64
// and then rounding to binary32 gives exactly the binary32 sum, because
// 53 ≥ 2·24+2 (Figueroa, "When is double rounding innocuous?", 1995).
func foldSum(acc float64, a, b []float64, mul, round, f32 bool) float64 {
	b = b[:len(a)]
	switch {
	case round && f32 && !mul:
		s := float32(acc)
		for _, v := range a {
			s += float32(v)
		}
		return float64(s)
	case round && f32:
		s := float32(acc)
		for i, v := range a {
			s += float32(v * b[i])
		}
		return float64(s)
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
// kernel's invariant upd, in element order up to the first index
// outside the array, and returns how many it applied.
func (k *fusedKernel) scatter(fr *kframe, ix []int64) int {
	off := fr.gat.Off
	if k.gat.float {
		dst, v := fr.gat.Seg.F, fr.invF[k.upd]
		for j, b := range ix {
			c := off + int(b)
			if uint(c) >= uint(len(dst)) {
				return j
			}
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
		return len(ix)
	}
	dst, v := fr.gat.Seg.I, fr.invI[k.upd]
	switch k.op {
	case token.ADD:
		for j, b := range ix {
			c := off + int(b)
			if uint(c) >= uint(len(dst)) {
				return j
			}
			dst[c] += v
		}
	case token.SUB:
		for j, b := range ix {
			c := off + int(b)
			if uint(c) >= uint(len(dst)) {
				return j
			}
			dst[c] -= v
		}
	case token.MUL:
		for j, b := range ix {
			c := off + int(b)
			if uint(c) >= uint(len(dst)) {
				return j
			}
			dst[c] *= v
		}
	case token.AND:
		for j, b := range ix {
			c := off + int(b)
			if uint(c) >= uint(len(dst)) {
				return j
			}
			dst[c] &= v
		}
	case token.OR:
		for j, b := range ix {
			c := off + int(b)
			if uint(c) >= uint(len(dst)) {
				return j
			}
			dst[c] |= v
		}
	default:
		for j, b := range ix {
			c := off + int(b)
			if uint(c) >= uint(len(dst)) {
				return j
			}
			dst[c] ^= v
		}
	}
	return len(ix)
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
// report false instead.
func (k *fusedKernel) evalFloat(fr *kframe, buf []float64, t0, n int) (res, res2 []float64, ok bool) {
	col := func(o operand) []float64 {
		if o.kind == inLoad {
			return fr.loads[o.idx].f[t0:][:n]
		}
		return buf[int(o.idx)*stripLen:][:n]
	}
	in := func(o operand) ([]float64, int) {
		if o.kind == inInv {
			return fr.invF[o.idx:][:1], 0
		}
		return col(o), 1
	}
	for i := range k.prog {
		op := &k.prog[i]
		d := buf[int(op.dst)*stripLen:][:n]
		switch op.code {
		case opLt, opLe, opEq:
			a, sa := in(op.a)
			b, sb := in(op.b)
			cmpStrip(op.code, d, a, b, sa, sb)
		case opSel:
			a, sa := in(op.a)
			b, sb := in(op.b)
			c, _ := in(op.c)
			selStrip(d, a, b, c, sa, sb)
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
// the strip makes it report false before the op divides.
func (k *fusedKernel) evalInt(fr *kframe, buf []int64, t0, n int) ([]int64, bool) {
	col := func(o operand) []int64 {
		if o.kind == inLoad {
			return fr.loads[o.idx].i[t0:][:n]
		}
		return buf[int(o.idx)*stripLen:][:n]
	}
	in := func(o operand) ([]int64, int) {
		if o.kind == inInv {
			return fr.invI[o.idx:][:1], 0
		}
		return col(o), 1
	}
	for i := range k.prog {
		op := &k.prog[i]
		d := buf[int(op.dst)*stripLen:][:n]
		switch op.code {
		case opLt, opLe, opEq:
			a, sa := in(op.a)
			b, sb := in(op.b)
			cmpStrip(op.code, d, a, b, sa, sb)
		case opSel:
			a, sa := in(op.a)
			b, sb := in(op.b)
			c, _ := in(op.c)
			selStrip(d, a, b, c, sa, sb)
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
				if zero {
					return nil, false
				}
			}
			switch {
			case (op.code == opQuo || op.code == opRem) && form == formVS && s >= 2 && len(d) >= 4:
				divStrip(op.code, d, a, s)
			case op.code <= opQuo:
				arith(op.code, form, d, a, b, s)
			default:
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
// walking ix. An index outside src stops it with false.
func gatherIdx[T int64 | float64](d, src []T, off int, ix kslice, t0 int, g *kGather) bool {
	idx, s, c := ix.i, ix.stride, t0*ix.stride
	lo, hi := g.lo, g.hi
	for i := range d {
		cell := off + int(min(max(idx[c], lo), hi))
		c += s
		if uint(cell) >= uint(len(src)) {
			return false
		}
		d[i] = src[cell]
	}
	return true
}

// cmpStrip writes 1 where a code b holds and 0 elsewhere, over operands
// walked at stride sa and sb: 1 for a column, 0 for a scalar.
func cmpStrip[T int64 | float64](code uint8, d, a, b []T, sa, sb int) {
	switch code {
	case opLt:
		for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
			d[i] = T(b2i(a[x] < b[y]))
		}
	case opLe:
		for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
			d[i] = T(b2i(a[x] <= b[y]))
		}
	default:
		for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
			d[i] = T(b2i(a[x] == b[y]))
		}
	}
}

// selStrip writes a where the compare column c is 1 and b where it is
// 0 (a compare is always a column).
func selStrip[T int64 | float64](d, a, b, c []T, sa, sb int) {
	for i, x, y := 0, 0, 0; i < len(d); i, x, y = i+1, x+sa, y+sb {
		v := b[y]
		if c[i] != 0 {
			v = a[x]
		}
		d[i] = v
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

// divStrip is C's truncating a / s or a % s over a strip, by an
// invariant s ≥ 2, without a divide per element: a shift for a power of
// two, else the multiply of |a| by s's 65-bit reciprocal (Granlund and
// Montgomery, "Division by invariant integers using multiplication",
// PLDI 1994, Fig. 4.1). The reciprocal costs one divide, so evalInt
// leaves strips under 4 elements to arith. Every shift count is below
// 63; masking it with 63 spares Go's check for wider ones.
func divStrip(code uint8, d, a []int64, s int64) {
	a = a[:len(d)]
	if s&(s-1) == 0 {
		k, m := uint(bits.TrailingZeros64(uint64(s))), s-1
		for i, x := range a {
			y := x + (x>>63)&m // a negative x rounds toward zero
			if code == opRem {
				d[i] = x - y&^m
			} else {
				d[i] = y >> (k & 63)
			}
		}
		return
	}
	l := uint(bits.Len64(uint64(s - 1)))
	r, _ := bits.Div64(1<<l-uint64(s), 0, uint64(s))
	r, l = r+1, (l-1)&63
	for i, x := range a {
		sg := x >> 63
		u := uint64((x ^ sg) - sg) // |x|
		t, _ := bits.Mul64(u, r)
		q := (int64((t+(u-t)>>1)>>l) ^ sg) - sg
		if code == opRem {
			q = x - q*s
		}
		d[i] = q
	}
}

// intStrip runs an integer-only binary op over a strip: the modulo
// that divStrip does not take (over divisors evalInt has checked),
// whose cost is the division's, and the bitwise and shift ops, which
// are rare. Neither earns a loop
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
