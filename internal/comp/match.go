package comp

// The loop-kernel matcher: the one front door of kernel fusion. Every
// for statement comp compiles — sequential (forStmt, tapeFor) or under
// an omp pragma (parallelFor, parallelReduceFor) — asks matchLoop once
// and gets back one descriptor: the canonical bounds, and, when the
// body is a single fusible statement, the chunk kernel that replaces
// per-iteration dispatch together with its kind.
//
// Recognition is sink × operand × emit table:
//
//   - the statement is classified by its sink — an element store
//     Y[a*i+b] (kindMap), an accumulate acc += … that the iterator does
//     not move: an integer expression into a local scalar, or a float
//     sum/dot/ELL term into a scalar or cell (kindReduce), an indexed
//     update A[B[a*i+b]] op= inv (kindHist), or a guarded min/max fold
//     into a scalar (kindMinMax). The sinks are disjoint, so a loop has
//     at most one kind and callers filter on it;
//   - every operand is a kAccess (affine in the iterator, one hoisted
//     range check per launch) or a kGather (x[idx[affine]], optionally
//     ?:-clamped, one compare per gathered element) built on one;
//   - each classifier admits its sink's operand shapes and compiles the
//     value the sink consumes with buildTape, so every kernel runs on
//     the strip evaluator (strip.go), which ends in the sink.
//
// A matched loop keeps its dispatch body too: a kernel stops where the
// dispatch loop would trap, and the body finishes the range.
//
// The matcher only records operand expressions: the launch evaluates
// them on the tape (kernelOperands), and the kernel reads the registers
// they land in.
//
// Because the matcher knows the sink and every operand, it is also
// where the aliasing rule of the kernel contract lives: operands are
// live views of guest memory, so the sink's target joins the distance
// rule as a store (prepFrame).

import (
	"math"

	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// kernRun executes iterations [lo, hi] (inclusive, lo ≤ hi) of a fused
// loop and returns the first one it did not complete, hi+1 when it ran
// them all; the launch runs the rest on the loop's dispatch body.
// Parallel regions call it once per chunk — rt hands out no empty
// chunk —; sequential loops once, when the range is not empty.
type kernRun func(e *env, lo, hi int64) int64

// loopKind classifies a fused loop by the sink of its statement.
type loopKind uint8

const (
	kindMap    loopKind = iota + 1 // Y[a*i+b] (op)= f(operands), gathers included
	kindReduce                     // acc += <int expression>, acc a local int; acc += x[k] (* y[k] | * y[z[k]]), acc a float scalar or invariant cell
	kindHist                       // A[B[a*i+b]] op= inv, A[B[a*i+b]]++
	kindMinMax                     // if (x[k] < m) m = x[k]; and its ?: form
)

// loopKernel is the matcher's verdict on one for statement. The
// embedded canonicalLoop is valid when the loop is canonical — every
// loop under a parallel-for pragma, which omp.Bind refuses otherwise,
// and every fused one; run is nil when the loop does not fuse.
type loopKernel struct {
	canonicalLoop
	kind loopKind
	run  kernRun
	k    *fusedKernel
	// acc names the scalar accumulator of a reduce or min/max kernel
	// ("" for a memory cell) and dir is the min/max direction (LSS or
	// GTR), so parallelReduceFor can hold the kernel against its clause.
	acc string
	dir token.Kind
}

// fuse emits k as the loop's kernel of the given kind. A kernel past a
// bound of the evaluator leaves the loop unfused.
func (lk *loopKernel) fuse(kind loopKind, k *fusedKernel) {
	if lk.run = k.emit(); lk.run == nil {
		return
	}
	lk.kind, lk.k = kind, k
}

// fuseReductions reports whether canonical float reduction loops
// compile to fused kernels here: the ICC backend vectorizes extracted
// pure functions, and Options.Vectorize extends that everywhere (the
// PluTo-SICA analog). The gate models C's ban on reassociating float
// sums (Sect. 4.3.1); integer sums are exact in any order and do not
// pass through it (see matchIntSum).
func (fc *funcCompiler) fuseReductions() bool {
	return (fc.prog.backend == BackendICC && fc.cf.pure) || fc.prog.vectorize
}

// matchLoop is the matcher. A kernel requires a canonical loop whose
// bounds can be evaluated once per launch — a sequential dispatch loop
// re-evaluates the upper bound every iteration, so both must be
// invariant and effect-free — and a body of exactly one statement.
func (fc *funcCompiler) matchLoop(x *ast.ForStmt) loopKernel {
	cl, ok := fc.canonical(x)
	lk := loopKernel{canonicalLoop: cl}
	iter := cl.iterSym
	if !ok || !fc.hoistable(cl.lowerX, iter) || !fc.hoistable(cl.upperX, iter) {
		return lk
	}
	stmt := singleStmt(cl.body)
	if m, data, dir, isFold := ast.MinMaxUpdate(stmt); isFold {
		fc.matchMinMax(&lk, m, data, dir)
		return lk
	}
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return lk
	}
	lhs, op, rhs := ast.Update(es.X)
	if lhs == nil {
		return lk
	}
	if rhs != nil {
		// Leaf pure calls become the expressions they return, so the
		// sinks below see their operands (inline.go).
		rhs = fc.inlineCalls(rhs)
	}
	if store, isElem := fc.matchKAccess(lhs, iter); isElem && rhs != nil {
		val := rhs
		if op == token.ASSIGN && store.f32 {
			val = fc.peelF32(rhs)
		}
		if store.stride >= 1 {
			fc.matchMap(&lk, store, op, val)
		}
		if lk.run == nil && op == token.ASSIGN {
			fc.matchGatherMap(&lk, store, val)
		}
	}
	if lk.run == nil && op == token.ADD && rhs != nil {
		fc.matchIntSum(&lk, lhs, rhs)
		if lk.run == nil && fc.fuseReductions() {
			fc.matchReduce(&lk, lhs, rhs)
		}
	}
	if lk.run == nil {
		fc.matchHist(&lk, lhs, op, rhs)
	}
	return lk
}

// singleStmt unwraps a body that consists of exactly one statement.
func singleStmt(s ast.Stmt) ast.Stmt {
	if b, ok := s.(*ast.BlockStmt); ok {
		if len(b.List) != 1 {
			return nil
		}
		return b.List[0]
	}
	return s
}

// fused commits a matched kernel to the program: it counts as one
// fused loop.
func (fc *funcCompiler) fused(lk loopKernel) kernRun {
	fc.prog.fusedKernels++
	return lk.run
}

// ----------------------------------------------------------------------------
// Sinks

// matchMap recognizes the element-wise statement Y[a*i+b] (op)= rhs with
// rhs an expression over affine loads, hoisted invariants and the
// iterator. Compound Y[i] op= rhs is Y[i] = Y[i] op rhs with the load
// walking the same cells as the store.
func (fc *funcCompiler) matchMap(lk *loopKernel, store kAccess, op token.Kind, rhs ast.Expr) {
	k := &fusedKernel{store: store, float: store.float, f32: store.f32}
	root := int8(-1)
	if op == token.ASSIGN {
		root = fc.buildTape(k, rhs, lk.iterSym, 0)
	} else if code, isOp := tapeOp(op, k.float); isOp {
		k.loads, k.loadX = append(k.loads, store), append(k.loadX, nil)
		root = fc.binary(k, code, fc.node(k, knode{code: opLoad, b: -1}, 0), rhs, lk.iterSym, 0)
	}
	if root >= 0 {
		lk.fuse(kindMap, k)
	}
}

// matchIntSum recognizes the integer sum acc += rhs, rhs an int
// expression over affine loads, invariants and the iterator — the
// paper's headline `s += square(f(i))` once the leaf call is inlined.
// The accumulator is a local int scalar no store narrows, other than
// the iterator, that neither feeds the bounds (the dispatch loop
// re-evaluates those per iteration) nor is read by rhs. An integer sum
// is exact in any order, so unlike the float reductions of matchReduce
// — which C forbids a compiler to reassociate, hence fuseReductions —
// it fuses on every backend.
func (fc *funcCompiler) matchIntSum(lk *loopKernel, lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	sym := fc.prog.info.Ref[id]
	if sym == nil || sym.Kind == sema.SymGlobal || sym == lk.iterSym ||
		sym.Type == nil || sym.Type.Kind != types.Int || sym.Type.CSize < 4 {
		return
	}
	sl := fc.slots[sym]
	if sl.kind != slotInt || fc.usesSym(lk.lowerX, sym) || fc.usesSym(lk.upperX, sym) || fc.usesSym(rhs, sym) {
		return
	}
	k := &fusedKernel{sink: sinkSum, acc: sl.idx}
	if fc.buildTape(k, rhs, lk.iterSym, 0) >= 0 {
		lk.acc = id.Name
		lk.fuse(kindReduce, k)
	}
}

// matchGatherMap recognizes the pure gather Y[a*i+b] = x[idx[c*i+d]]
// (a = 0 included). Element kinds must match exactly — implicit
// conversions stay on the dispatch path. The gathered read pays a
// per-element bounds compare.
func (fc *funcCompiler) matchGatherMap(lk *loopKernel, dst kAccess, rhs ast.Expr) {
	g, ok := fc.matchGather(rhs, lk.iterSym)
	if !ok || g.float != dst.float {
		return
	}
	k := &fusedKernel{store: dst, gat: g, gatX: ast.Unparen(rhs), float: dst.float, f32: dst.f32}
	if fc.buildTape(k, rhs, lk.iterSym, 0) >= 0 {
		lk.fuse(kindMap, k)
	}
}

// matchReduce recognizes the ICC-vectorization analog (Sect. 4.3.1: ICC
// vectorizes the extracted pure dot function, not the inlined loop):
//
//	acc += X[k]            acc += X[k] * Y[k]            acc += X[k] * Y[Z[k]]
//
// with unit-stride operands; a product converted to float before it
// accumulates — what the inlined helper mult(a, b) of the paper's
// sources leaves behind — keeps that rounding. The accumulator is a
// local float scalar or a float cell the iterator does not move.
func (fc *funcCompiler) matchReduce(lk *loopKernel, lhs, rhs ast.Expr) {
	iter := lk.iterSym
	k := &fusedKernel{sink: sinkSum, float: true}
	name := ""
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		sym := fc.prog.info.Ref[x]
		if sym == nil || sym.Kind == sema.SymGlobal || sym.Type.Kind != types.Float {
			return
		}
		sl := fc.slots[sym]
		// The body writes the accumulator every iteration: a bound or an
		// operand offset that reads it (for (k = 0; k < s; k++) s +=
		// x[k];) is not invariant even though hoistable's scalar test
		// passes.
		if sl.kind != slotFloat || fc.usesSym(lk.lowerX, sym) || fc.usesSym(lk.upperX, sym) || fc.usesSym(rhs, sym) {
			return
		}
		k.acc, k.f32, name = sl.idx, sym.Type.CSize == 4, x.Name
	case *ast.IndexExpr:
		t := x.Checked()
		if t == nil || t.Kind != types.Float || fc.usesSym(x, iter) {
			return
		}
		k.cellX, k.f32 = x, t.CSize == 4
	default:
		return
	}
	// The factors: a plain load or a product. A conversion to float
	// around the product rounds it before it accumulates and the kernel
	// reproduces that; around anything else it must be the identity.
	term := fc.peelF32(rhs)
	factors := []ast.Expr{term}
	if v, isBin := ast.Unparen(term).(*ast.BinaryExpr); isBin && v.Op == token.MUL {
		factors = []ast.Expr{v.X, v.Y}
	} else if term != rhs && !fc.f32Exact(term) {
		return
	}
	direct := 0
	for _, f := range factors {
		if a, ok := fc.matchKAccess(f, iter); ok {
			if !a.float || a.stride != 1 {
				return
			}
			direct++
		} else if g, okG := fc.matchGather(f, iter); okG && k.gatX == nil {
			// The ELL shape walks the index array at unit stride and
			// reads the gathered array unclamped.
			if !g.float || g.idx.stride != 1 || g.clamped() {
				return
			}
			k.gat, k.gatX = g, ast.Unparen(f)
		} else {
			return
		}
	}
	if direct > 0 && fc.buildTape(k, rhs, iter, 0) >= 0 {
		lk.acc = name
		lk.fuse(kindReduce, k)
	}
}

// matchHist recognizes the canonical array-reduction body — a single
// statement updating a 1-D array through an int-array gather subscript:
//
//	A[B[affine(i)]]++            (and --)
//	A[B[affine(i)]] op= inv      (op ∈ + - * & | ^; float: + - *)
//
// Division, modulo and shifts keep their per-iteration trap semantics
// on the dispatch path, and float ++/-- stays there too. The kernel
// reads the target through the environment's pointer slot, so on a
// worker's cloned environment it updates that worker's private copy.
func (fc *funcCompiler) matchHist(lk *loopKernel, lhs ast.Expr, op token.Kind, rhs ast.Expr) {
	arith := op == token.ADD || op == token.SUB || op == token.MUL
	if !arith && op != token.AND && op != token.OR && op != token.XOR {
		return
	}
	iter := lk.iterSym
	g, ok := fc.matchGather(lhs, iter)
	if !ok || g.clamped() || !g.named {
		return // only 1-D named bases: a nested index chain means 2-D
	}
	if g.float && (rhs == nil || !arith) {
		return
	}
	k := &fusedKernel{sink: sinkScatter, gat: g, op: op, f32: g.f32}
	// The update value — 1 for ++/-- (a nil invariant), otherwise a
	// hoistable invariant — is the kernel's one invariant: the index
	// expression is a single load.
	switch {
	case rhs != nil && (!fc.hoistable(rhs, iter) || !fc.effectFree(rhs)):
		return
	case rhs != nil && !g.float:
		if t := ast.Unparen(rhs).Checked(); t == nil || t.Kind != types.Int {
			return
		}
	}
	k.invX = []ast.Expr{rhs}
	if fc.buildTape(k, ast.Unparen(lhs).(*ast.IndexExpr).Index, iter, 0) >= 0 {
		lk.fuse(kindHist, k)
	}
}

// matchMinMax recognizes the min/max fold of ast.MinMaxUpdate over a
// unit-stride operand of the accumulator's kind: m a local int or
// float scalar that neither is the iterator nor feeds the bounds (the
// dispatch loop re-evaluates those per iteration).
func (fc *funcCompiler) matchMinMax(lk *loopKernel, m *ast.Ident, data ast.Expr, dir token.Kind) {
	sym := fc.prog.info.Ref[m]
	if sym == nil || sym.Kind == sema.SymGlobal || sym == lk.iterSym {
		return
	}
	sl, global := fc.slotOf(sym, m)
	if global || sl.kind == slotPtr || fc.usesSym(lk.lowerX, sym) || fc.usesSym(lk.upperX, sym) || fc.usesSym(data, sym) {
		return
	}
	x, ok := fc.matchKAccess(data, lk.iterSym)
	if !ok || x.stride != 1 || x.float != (sl.kind == slotFloat) {
		return
	}
	k := &fusedKernel{sink: sinkMax, acc: sl.idx, float: x.float,
		f32: sym.Type != nil && sym.Type.Kind == types.Float && sym.Type.CSize == 4}
	if dir == token.LSS {
		k.sink = sinkMin
	}
	if fc.buildTape(k, data, lk.iterSym, 0) >= 0 {
		lk.acc, lk.dir = m.Name, dir
		lk.fuse(kindMinMax, k)
	}
}

// ----------------------------------------------------------------------------
// Operands

// kAccess is one array operand of a fused kernel: an
// iterator-invariant base pointer and offset (evaluated once per
// launch) plus a constant iterator stride (walked per iteration).
type kAccess struct {
	baseX ast.Expr
	offX  []kTerm // loop-invariant offset Σ c·x, empty means 0
	// base and off are the launch registers baseX and offX land in (a
	// local's own slot for a plain local base; off < 0 for no offset).
	base, off int32
	stride    int64 // constant iterator coefficient, 0 = invariant access
	float     bool
	f32       bool // stored C type is 4 bytes (float32 rounding at stores)
}

// kGather is a gathered operand x[idx[c*i+d]]: the gathered array's
// hoisted base, the affine int operand that supplies the element
// indices, and an optional ?:-clamp of those indices (open sides are
// the int64 extremes).
type kGather struct {
	baseX  ast.Expr
	base   int32 // launch register of baseX
	idx    kAccess
	lo, hi int64
	float  bool
	f32    bool
	named  bool // the gathered array is a plain identifier
}

func (g *kGather) clamped() bool { return g.lo != math.MinInt64 || g.hi != math.MaxInt64 }

// matchGather matches x[idx[affine]] against the iterator: a 1-D int
// or float array x (declared, or a unit-stride pointer expression that
// is invariant and effect-free, so it hoists to one evaluation), and a
// data-dependent subscript that is an affine int access, possibly
// wrapped in a ?:-min/max clamp with constant bounds.
func (fc *funcCompiler) matchGather(e ast.Expr, iter *sema.Symbol) (kGather, bool) {
	gx, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return kGather{}, false
	}
	t := gx.Checked()
	if t == nil || (t.Kind != types.Int && t.Kind != types.Float) {
		return kGather{}, false
	}
	baseID, named := ast.Unparen(gx.X).(*ast.Ident)
	if named {
		if sym := fc.symOf(baseID); sym.IsArray() && len(sym.Dims) != 1 {
			return kGather{}, false
		}
	}
	bt := gx.X.Checked()
	if bt == nil || !bt.IsPtr() || bt.Elem == nil || int64(bt.Elem.Cells()) != 1 {
		return kGather{}, false
	}
	if fc.usesSym(gx.X, iter) || !fc.effectFree(gx.X) {
		return kGather{}, false
	}
	sub, lo, hi, ok := fc.matchClamp(ast.Unparen(gx.Index))
	if !ok {
		return kGather{}, false
	}
	idx, ok := fc.matchKAccess(sub, iter)
	if !ok || idx.float {
		return kGather{}, false
	}
	return kGather{
		baseX: gx.X, idx: idx, lo: lo, hi: hi,
		float: t.Kind == types.Float,
		f32:   t.Kind == types.Float && t.CSize == 4,
		named: named,
	}, true
}

// matchClamp peels a ?:-min/max clamp off a gather subscript:
//
//	v < L ? L : rest   (lower clamp; also L > v ? L : rest)
//	v > H ? H : rest   (upper clamp; also H < v ? H : rest)
//
// where rest is v itself or a nested clamp of the same v (sameExpr).
// It returns the clamped access v and the accumulated
// bounds (math.MinInt64/MaxInt64 when a side is unclamped); a
// non-ternary subscript passes through with open bounds. ok is false
// for ternaries that are not clamps — those stay on the dispatch path.
func (fc *funcCompiler) matchClamp(e ast.Expr) (inner ast.Expr, lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	ce, isCond := e.(*ast.CondExpr)
	if !isCond {
		return e, lo, hi, true
	}
	cond, isBin := ast.Unparen(ce.Cond).(*ast.BinaryExpr)
	if !isBin {
		return nil, 0, 0, false
	}
	v, bound, op := ast.Unparen(cond.X), ast.Unparen(cond.Y), cond.Op
	k, isLit := intLitValue(bound)
	if !isLit {
		// Mirrored form: L > v ? L : rest.
		if k2, isLit2 := intLitValue(v); isLit2 {
			v, k, isLit = bound, k2, true
			switch op {
			case token.LSS:
				op = token.GTR
			case token.GTR:
				op = token.LSS
			default:
				return nil, 0, 0, false
			}
		}
	}
	if !isLit {
		return nil, 0, 0, false
	}
	// The taken arm must be the bound constant.
	if tk, isTk := intLitValue(ast.Unparen(ce.Then)); !isTk || tk != k {
		return nil, 0, 0, false
	}
	rest, rlo, rhi, okR := fc.matchClamp(ast.Unparen(ce.Else))
	if !okR || !fc.sameExpr(rest, v) {
		return nil, 0, 0, false
	}
	switch op {
	case token.LSS:
		lo = k
	case token.GTR:
		hi = k
	default:
		return nil, 0, 0, false
	}
	if rlo > lo {
		lo = rlo
	}
	if rhi < hi {
		hi = rhi
	}
	return rest, lo, hi, true
}

// sameExpr reports whether a and b are the same syntax over the same
// symbols: after inlining, a callee's global and a caller's local may
// print alike.
func (fc *funcCompiler) sameExpr(a, b ast.Expr) bool {
	ia, ib := ast.Idents(a), ast.Idents(b)
	if len(ia) != len(ib) || ast.PrintExpr(a) != ast.PrintExpr(b) {
		return false
	}
	for i := range ia {
		if fc.prog.info.Ref[ia[i]] != fc.prog.info.Ref[ib[i]] {
			return false
		}
	}
	return true
}

// intLitValue evaluates an integer literal, allowing a leading unary
// minus.
func intLitValue(e ast.Expr) (int64, bool) {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.SUB {
		if v, ok2 := intLitValue(ast.Unparen(u.X)); ok2 {
			return -v, true
		}
		return 0, false
	}
	lit, ok := e.(*ast.IntLit)
	if !ok {
		return 0, false
	}
	return lit.Value, true
}

// matchKAccess matches an affine scalar array access against the loop
// iterator: a declared array fully indexed with affine subscripts, or
// a pointer expression indexed by one affine subscript. The result
// decomposes the flat cell index as stride*iter + offset with a
// constant stride ≥ 0 and a hoisted invariant offset.
func (fc *funcCompiler) matchKAccess(e ast.Expr, iter *sema.Symbol) (kAccess, bool) {
	x, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return kAccess{}, false
	}
	t := e.Checked()
	if t == nil || (t.Kind != types.Int && t.Kind != types.Float) {
		return kAccess{}, false
	}
	// Declared (possibly multi-dimensional) array, fully subscripted:
	// row-major flattening with per-dimension strides.
	subs, base := ast.IndexChain(x)
	if id, okID := base.(*ast.Ident); okID {
		if sym := fc.prog.info.Ref[id]; sym != nil && sym.IsArray() {
			if len(subs) != len(sym.Dims) {
				return kAccess{}, false
			}
			acc := kAccess{
				baseX: id,
				float: t.Kind == types.Float,
				f32:   t.Kind == types.Float && t.CSize == 4,
			}
			dimStride := int64(1)
			for d := len(subs) - 1; d >= 0; d-- {
				coef, inv, okA := fc.affineInIter(subs[d], iter)
				if !okA {
					return kAccess{}, false
				}
				acc.stride += coef * dimStride
				acc.offX = append(acc.offX, scaleTerms(inv, dimStride)...)
				dimStride *= int64(sym.Dims[d])
			}
			return acc, acc.stride >= 0
		}
	}
	// General chain: pointer base, single affine subscript over scalar
	// elements. The base must be invariant and effect-free — it hoists
	// to one evaluation (fused stores write int/float cells, so they
	// can never modify the pointer cells the base may load from).
	bt := x.X.Checked()
	if bt == nil || !bt.IsPtr() || bt.Elem == nil || int64(bt.Elem.Cells()) != 1 {
		return kAccess{}, false
	}
	if bt.Elem.Kind != types.Int && bt.Elem.Kind != types.Float {
		return kAccess{}, false
	}
	if fc.usesSym(x.X, iter) || !fc.effectFree(x.X) {
		return kAccess{}, false
	}
	coef, inv, okA := fc.affineInIter(x.Index, iter)
	if !okA || coef < 0 {
		return kAccess{}, false
	}
	return kAccess{
		baseX:  x.X,
		offX:   inv,
		stride: coef,
		float:  bt.Elem.Kind == types.Float,
		f32:    bt.Elem.Kind == types.Float && bt.Elem.CSize == 4,
	}, true
}

// kTerm is one term c·x of an invariant offset.
type kTerm struct {
	x ast.Expr
	c int64
}

// affineInIter decomposes an integer expression as coef*iter + inv
// with a compile-time constant coef and a hoistable invariant inv, a
// sum of terms (none = 0). It accepts sums, differences and constant
// multiples of the iterator — i, i+c, c+i, i-c, 2*i, i*3, 2*i+c, N-1-i
// (negative coefficients are decomposed correctly and rejected by the
// callers).
func (fc *funcCompiler) affineInIter(e ast.Expr, iter *sema.Symbol) (int64, []kTerm, bool) {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok && fc.prog.info.Ref[id] == iter {
		return 1, nil, true
	}
	if fc.hoistable(e, iter) {
		t := e.Checked()
		if t == nil || t.Kind != types.Int {
			return 0, nil, false
		}
		return 0, []kTerm{{e, 1}}, true
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB:
			ca, ia, oka := fc.affineInIter(x.X, iter)
			cb, ib, okb := fc.affineInIter(x.Y, iter)
			if !oka || !okb {
				return 0, nil, false
			}
			if x.Op == token.SUB {
				cb, ib = -cb, scaleTerms(ib, -1)
			}
			return ca + cb, append(ia, ib...), true
		case token.MUL:
			c, okC := sema.ConstInt(x.X)
			scaled := x.Y
			if !okC {
				c, okC = sema.ConstInt(x.Y)
				scaled = x.X
			}
			if okC {
				cs, is, oks := fc.affineInIter(scaled, iter)
				return c * cs, scaleTerms(is, c), oks
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			c, i, ok := fc.affineInIter(x.X, iter)
			return -c, scaleTerms(i, -1), ok
		}
	}
	return 0, nil, false
}

// scaleTerms multiplies every term by c in place; a zero factor drops
// the terms (they are never evaluated).
func scaleTerms(ts []kTerm, c int64) []kTerm {
	if c == 0 {
		return nil
	}
	for i := range ts {
		ts[i].c *= c
	}
	return ts
}

// hoistable reports whether e is loop-invariant, effect-free and free
// of memory reads, so evaluating it once per kernel launch cannot be
// observed even when the fused store aliases other arrays. Scalar
// variables qualify (the single array-store body cannot modify frame
// or global scalar slots); array loads do not (the store may alias
// them).
func (fc *funcCompiler) hoistable(e ast.Expr, iter *sema.Symbol) bool {
	ok := true
	ast.Walk(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			sym := fc.prog.info.Ref[x]
			if sym == nil || sym == iter || sym.IsArray() ||
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
			switch x.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
				token.AND, token.OR, token.XOR, token.SHL, token.SHR:
			default:
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
	})
	return ok
}

// effectFree reports whether evaluating e cannot write any state —
// required of operand base expressions, which hoist to one evaluation
// per launch.
func (fc *funcCompiler) effectFree(e ast.Expr) bool {
	ok := true
	ast.Walk(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignExpr, *ast.PostfixExpr, *ast.CallExpr:
			ok = false
		case *ast.UnaryExpr:
			if x.Op == token.INC || x.Op == token.DEC {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// usesSym reports whether the expression references the symbol.
func (fc *funcCompiler) usesSym(e ast.Expr, sym *sema.Symbol) bool {
	found := false
	ast.Walk(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && fc.prog.info.Ref[id] == sym {
			found = true
		}
		return !found
	})
	return found
}

// ----------------------------------------------------------------------------
// Launch-time operand preparation

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

// span reads base and offset from their launch registers and locates
// the operand's cells for iterations [lo, hi]; a null base has no
// segment.
func (a *kAccess) span(e *env, lo, hi int64) kspan {
	p := e.P[a.base]
	off := int64(p.Off)
	if a.off >= 0 {
		off += e.I[a.off]
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
