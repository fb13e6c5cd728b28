package comp

import (
	"fmt"
	"math"

	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// compileError aborts compilation of a function; compile() recovers it.
type compileError struct{ err error }

type funcCompiler struct {
	prog *Program
	cf   *cfunc
	// slots maps local/param symbols to frame slots.
	slots map[*sema.Symbol]slot
	// declSym maps declarations to their symbols.
	declSym map[*ast.VarDecl]*sema.Symbol
	sig     *sema.Sig
	// Leaf-pure inlining state (inline.go): the rewrite of every call
	// site decided so far, the calls the depth cap left as calls, and
	// the types of the nodes the rewrites synthesized.
	inlined   map[*ast.CallExpr]ast.Expr
	keepCall  map[*ast.CallExpr]bool
	synthType map[ast.Expr]*types.Type
	// talloc manages the temp register space shared by the function's
	// tapes and scratch is the compile's tape working memory, both while
	// the body compiles under EngineTape (nil under EngineClosure).
	talloc  *tapeAlloc
	scratch *tapeScratch
}

func (fc *funcCompiler) errorf(n ast.Node, format string, args ...any) {
	pos := ""
	if n != nil {
		pos = n.Pos().String() + ": "
	}
	panic(compileError{fmt.Errorf("%s%s%s", pos, fmt.Sprintf(format, args...), "")})
}

// compile translates the function body into cf.
func (fc *funcCompiler) compile() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				err = fmt.Errorf("compile %s: %v", fc.cf.name, ce.err)
				return
			}
			panic(r)
		}
	}()
	fc.sig = fc.prog.info.Funcs[fc.cf.name]
	fc.slots = map[*sema.Symbol]slot{}
	fc.declSym = map[*ast.VarDecl]*sema.Symbol{}
	locals := fc.prog.info.FuncLocals[fc.cf.name]
	for _, sym := range locals {
		if sym.Decl != nil {
			fc.declSym[sym.Decl] = sym
		}
		var sl slot
		switch {
		case sym.IsArray():
			sl = slot{slotPtr, fc.cf.nP}
			fc.cf.nP++
			kind, kerr := cellKindOf(sym.ElemType())
			if kerr != nil {
				fc.errorf(sym.Decl, "%v", kerr)
			}
			cells := 1
			for _, d := range sym.Dims {
				cells *= d
			}
			fc.cf.arrays = append(fc.cf.arrays, arrayAlloc{
				slot: sl.idx, kind: kind, cells: cells,
				name: fc.cf.name + "." + sym.Name,
			})
		case sym.Type.Kind == types.Struct:
			sl = slot{slotPtr, fc.cf.nP}
			fc.cf.nP++
			fc.cf.arrays = append(fc.cf.arrays, arrayAlloc{
				slot: sl.idx, kind: mem.CellMixed, cells: structCells(sym.Type),
				name: fc.cf.name + "." + sym.Name,
			})
		default:
			k, kerr := slotForType(sym.Type)
			if kerr != nil {
				fc.errorf(sym.Decl, "%v", kerr)
			}
			switch k {
			case slotInt:
				sl = slot{slotInt, fc.cf.nI}
				fc.cf.nI++
			case slotFloat:
				sl = slot{slotFloat, fc.cf.nF}
				fc.cf.nF++
			case slotPtr:
				sl = slot{slotPtr, fc.cf.nP}
				fc.cf.nP++
			}
		}
		fc.slots[sym] = sl
		if sym.Kind == sema.SymParam {
			fc.cf.params = append(fc.cf.params, sl)
		}
	}
	if fc.sig != nil {
		if fc.sig.Ret.IsVoid() {
			fc.cf.retVoid = true
		} else {
			k, kerr := slotForType(fc.sig.Ret)
			if kerr != nil {
				fc.errorf(fc.cf.decl, "%v", kerr)
			}
			fc.cf.retKind = k
		}
	}
	if fc.prog.engine == EngineTape {
		fc.compileTapeBody()
	} else {
		fc.cf.body = fc.block(fc.cf.decl.Body)
	}
	return nil
}

// symOf resolves an identifier use.
func (fc *funcCompiler) symOf(id *ast.Ident) *sema.Symbol {
	sym := fc.prog.info.Ref[id]
	if sym == nil {
		fc.errorf(id, "unresolved identifier %s", id.Name)
	}
	return sym
}

// typeOf returns the checked type of an expression.
func (fc *funcCompiler) typeOf(e ast.Expr) *types.Type {
	t := fc.exprType(e)
	if t == nil {
		fc.errorf(e, "expression has no type information (was the file re-checked after transformation?)")
	}
	return t
}

// ----------------------------------------------------------------------------
// Typed expression compilation

// num compiles an arithmetic expression to a float closure, converting
// integers.
func (fc *funcCompiler) num(e ast.Expr) fltFn {
	t := fc.typeOf(e)
	if t.Kind == types.Float {
		return fc.flt(e)
	}
	f := fc.integer(e)
	return func(env *env) float64 { return float64(f(env)) }
}

// integer compiles an expression of integer type (coercing floats by C
// truncation when needed).
func (fc *funcCompiler) integer(e ast.Expr) intFn {
	t := fc.typeOf(e)
	if t.Kind == types.Float {
		f := fc.flt(e)
		return func(env *env) int64 { return int64(f(env)) }
	}
	if t.Kind == types.Ptr {
		fc.errorf(e, "pointer used in integer context")
	}
	return fc.intExpr(e)
}

func (fc *funcCompiler) intExpr(e ast.Expr) intFn {
	switch x := e.(type) {
	case *ast.IntLit:
		v := x.Value
		return func(*env) int64 { return v }
	case *ast.CharLit:
		v := x.Value
		return func(*env) int64 { return v }
	case *ast.Ident:
		sym := fc.symOf(x)
		sl, global := fc.slotOf(sym, x)
		if global {
			idx := sl.idx
			return func(e *env) int64 { return e.p.gI[idx] }
		}
		idx := sl.idx
		return func(e *env) int64 { return e.I[idx] }
	case *ast.ParenExpr:
		return fc.intExpr(x.X)
	case *ast.BinaryExpr:
		return fc.intBinary(x)
	case *ast.UnaryExpr:
		return fc.intUnary(x)
	case *ast.PostfixExpr:
		// x++ as int expression: return old value
		get, set := fc.intLvalue(x.X)
		delta := int64(1)
		if x.Op == token.DEC {
			delta = -1
		}
		return func(e *env) int64 {
			v := get(e)
			set(e, v+delta)
			return v
		}
	case *ast.AssignExpr:
		eff, val := fc.assign(x)
		return func(e *env) int64 {
			eff(e)
			return val.i(e)
		}
	case *ast.CondExpr:
		c := fc.cond(x.Cond)
		a := fc.integer(x.Then)
		b := fc.integer(x.Else)
		return func(e *env) int64 {
			if c(e) {
				return a(e)
			}
			return b(e)
		}
	case *ast.IndexExpr:
		addr := fc.addr(x)
		return func(e *env) int64 { return addr(e).LoadInt() }
	case *ast.MemberExpr:
		addr := fc.addr(x)
		return func(e *env) int64 { return addr(e).LoadInt() }
	case *ast.CastExpr:
		t := fc.typeOf(x)
		switch t.Kind {
		case types.Int:
			inner := fc.typeOf(x.X)
			if inner.Kind == types.Float {
				f := fc.flt(x.X)
				return func(e *env) int64 { return int64(f(e)) }
			}
			return fc.intExpr(x.X)
		}
		fc.errorf(e, "unsupported cast to %s in integer context", t)
	case *ast.SizeofExpr:
		v := fc.sizeofValue(x)
		return func(*env) int64 { return v }
	case *ast.CallExpr:
		return fc.callInt(x)
	case *ast.StringLit:
		fc.errorf(e, "string literal in integer context")
	}
	fc.errorf(e, "unsupported integer expression %T", e)
	return nil
}

func (fc *funcCompiler) sizeofValue(x *ast.SizeofExpr) int64 {
	if x.Type != nil {
		t, err := types.FromAST(x.Type, func(tag string) (*types.Type, error) {
			if st, ok := fc.prog.info.Structs[tag]; ok {
				return st, nil
			}
			return nil, fmt.Errorf("unknown struct %s", tag)
		})
		if err != nil {
			fc.errorf(x, "%v", err)
		}
		return int64(t.CSize)
	}
	t := fc.typeOf(x.X)
	return int64(t.CSize)
}

func (fc *funcCompiler) intBinary(x *ast.BinaryExpr) intFn {
	tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
	// comparisons and logical ops
	switch x.Op {
	case token.LAND:
		a, b := fc.cond(x.X), fc.cond(x.Y)
		return func(e *env) int64 {
			if !a(e) {
				return 0
			}
			if b(e) {
				return 1
			}
			return 0
		}
	case token.LOR:
		a, b := fc.cond(x.X), fc.cond(x.Y)
		return func(e *env) int64 {
			if a(e) {
				return 1
			}
			if b(e) {
				return 1
			}
			return 0
		}
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return fc.compare(x)
	}
	if tl.IsPtr() || tr.IsPtr() {
		// pointer difference
		if x.Op == token.SUB && tl.IsPtr() && tr.IsPtr() {
			a, b := fc.ptr(x.X), fc.ptr(x.Y)
			stride := elemStride(tl.Elem)
			return func(e *env) int64 {
				d, err := a(e).DiffChecked(b(e))
				if err != nil {
					rtPanic("%v", err)
				}
				return d / stride
			}
		}
		fc.errorf(x, "invalid pointer arithmetic in integer context")
	}
	a := fc.integer(x.X)
	b := fc.integer(x.Y)
	switch x.Op {
	case token.ADD:
		return func(e *env) int64 { return a(e) + b(e) }
	case token.SUB:
		return func(e *env) int64 { return a(e) - b(e) }
	case token.MUL:
		return func(e *env) int64 { return a(e) * b(e) }
	case token.QUO:
		return func(e *env) int64 {
			d := b(e)
			if d == 0 {
				rtPanic("integer division by zero")
			}
			return a(e) / d
		}
	case token.REM:
		return func(e *env) int64 {
			d := b(e)
			if d == 0 {
				rtPanic("integer modulo by zero")
			}
			return a(e) % d
		}
	case token.AND:
		return func(e *env) int64 { return a(e) & b(e) }
	case token.OR:
		return func(e *env) int64 { return a(e) | b(e) }
	case token.XOR:
		return func(e *env) int64 { return a(e) ^ b(e) }
	case token.SHL:
		return func(e *env) int64 { return a(e) << uint(b(e)) }
	case token.SHR:
		return func(e *env) int64 { return a(e) >> uint(b(e)) }
	}
	fc.errorf(x, "unsupported integer operator %s", x.Op)
	return nil
}

// compare compiles a comparison of arithmetic or pointer operands.
func (fc *funcCompiler) compare(x *ast.BinaryExpr) intFn {
	tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
	if tl.IsPtr() && tr.IsPtr() {
		a, b := fc.ptr(x.X), fc.ptr(x.Y)
		op := x.Op
		return func(e *env) int64 {
			pa, pb := a(e), b(e)
			var r bool
			switch op {
			case token.EQL:
				r = pa == pb
			case token.NEQ:
				r = pa != pb
			case token.LSS:
				r = pa.Off < pb.Off
			case token.LEQ:
				r = pa.Off <= pb.Off
			case token.GTR:
				r = pa.Off > pb.Off
			case token.GEQ:
				r = pa.Off >= pb.Off
			}
			if r {
				return 1
			}
			return 0
		}
	}
	if tl.Kind == types.Float || tr.Kind == types.Float {
		a, b := fc.num(x.X), fc.num(x.Y)
		op := x.Op
		return func(e *env) int64 {
			va, vb := a(e), b(e)
			var r bool
			switch op {
			case token.EQL:
				r = va == vb
			case token.NEQ:
				r = va != vb
			case token.LSS:
				r = va < vb
			case token.LEQ:
				r = va <= vb
			case token.GTR:
				r = va > vb
			case token.GEQ:
				r = va >= vb
			}
			if r {
				return 1
			}
			return 0
		}
	}
	a, b := fc.integer(x.X), fc.integer(x.Y)
	op := x.Op
	return func(e *env) int64 {
		va, vb := a(e), b(e)
		var r bool
		switch op {
		case token.EQL:
			r = va == vb
		case token.NEQ:
			r = va != vb
		case token.LSS:
			r = va < vb
		case token.LEQ:
			r = va <= vb
		case token.GTR:
			r = va > vb
		case token.GEQ:
			r = va >= vb
		}
		if r {
			return 1
		}
		return 0
	}
}

func (fc *funcCompiler) intUnary(x *ast.UnaryExpr) intFn {
	switch x.Op {
	case token.SUB:
		a := fc.integer(x.X)
		return func(e *env) int64 { return -a(e) }
	case token.NOT:
		a := fc.cond(x.X)
		return func(e *env) int64 {
			if a(e) {
				return 0
			}
			return 1
		}
	case token.TILDE:
		a := fc.integer(x.X)
		return func(e *env) int64 { return ^a(e) }
	case token.MUL:
		addr := fc.addr(x)
		return func(e *env) int64 { return addr(e).LoadInt() }
	case token.INC, token.DEC:
		get, set := fc.intLvalue(x.X)
		delta := int64(1)
		if x.Op == token.DEC {
			delta = -1
		}
		return func(e *env) int64 {
			v := get(e) + delta
			set(e, v)
			return v
		}
	}
	fc.errorf(x, "unsupported unary operator %s in integer context", x.Op)
	return nil
}

// cond compiles any scalar expression to a boolean closure.
func (fc *funcCompiler) cond(e ast.Expr) func(*env) bool {
	t := fc.typeOf(e)
	switch t.Kind {
	case types.Float:
		f := fc.flt(e)
		return func(env *env) bool { return f(env) != 0 }
	case types.Ptr:
		p := fc.ptr(e)
		return func(env *env) bool { return !p(env).IsNull() }
	default:
		f := fc.intExpr(e)
		return func(env *env) bool { return f(env) != 0 }
	}
}

// flt compiles a float-typed expression.
func (fc *funcCompiler) flt(e ast.Expr) fltFn {
	switch x := e.(type) {
	case *ast.FloatLit:
		v := x.Value
		return func(*env) float64 { return v }
	case *ast.IntLit:
		v := float64(x.Value)
		return func(*env) float64 { return v }
	case *ast.Ident:
		sym := fc.symOf(x)
		sl, global := fc.slotOf(sym, x)
		if global {
			idx := sl.idx
			return func(e *env) float64 { return e.p.gF[idx] }
		}
		idx := sl.idx
		return func(e *env) float64 { return e.F[idx] }
	case *ast.ParenExpr:
		return fc.flt(x.X)
	case *ast.BinaryExpr:
		a, b := fc.num(x.X), fc.num(x.Y)
		switch x.Op {
		case token.ADD:
			return func(e *env) float64 { return a(e) + b(e) }
		case token.SUB:
			return func(e *env) float64 { return a(e) - b(e) }
		case token.MUL:
			return func(e *env) float64 { return a(e) * b(e) }
		case token.QUO:
			return func(e *env) float64 { return a(e) / b(e) }
		}
		fc.errorf(x, "unsupported float operator %s", x.Op)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			a := fc.num(x.X)
			return func(e *env) float64 { return -a(e) }
		case token.MUL:
			addr := fc.addr(x)
			return func(e *env) float64 { return addr(e).LoadFloat() }
		case token.INC, token.DEC:
			get, set := fc.fltLvalue(x.X)
			d := 1.0
			if x.Op == token.DEC {
				d = -1
			}
			return func(e *env) float64 {
				v := get(e) + d
				set(e, v)
				return v
			}
		}
		fc.errorf(x, "unsupported unary %s in float context", x.Op)
	case *ast.PostfixExpr:
		get, set := fc.fltLvalue(x.X)
		d := 1.0
		if x.Op == token.DEC {
			d = -1
		}
		return func(e *env) float64 {
			v := get(e)
			set(e, v+d)
			return v
		}
	case *ast.AssignExpr:
		eff, val := fc.assign(x)
		return func(e *env) float64 {
			eff(e)
			return val.f(e)
		}
	case *ast.CondExpr:
		c := fc.cond(x.Cond)
		a := fc.num(x.Then)
		b := fc.num(x.Else)
		return func(e *env) float64 {
			if c(e) {
				return a(e)
			}
			return b(e)
		}
	case *ast.IndexExpr:
		addr := fc.addr(x)
		return func(e *env) float64 { return addr(e).LoadFloat() }
	case *ast.MemberExpr:
		addr := fc.addr(x)
		return func(e *env) float64 { return addr(e).LoadFloat() }
	case *ast.CastExpr:
		inner := fc.typeOf(x.X)
		if inner.Kind == types.Float {
			f := fc.flt(x.X)
			if fc.typeOf(x).CSize == 4 {
				// (float) cast of a double: round through float32 like C.
				return func(e *env) float64 { return float64(float32(f(e))) }
			}
			return f
		}
		g := fc.integer(x.X)
		if fc.typeOf(x).CSize == 4 {
			// (float) of an int rounds through float32 like any other
			// conversion to float; below 2^24 there is nothing to round.
			return func(e *env) float64 {
				v := g(e)
				if v > -1<<24 && v < 1<<24 {
					return float64(v)
				}
				return float64(float32(v))
			}
		}
		return func(e *env) float64 { return float64(g(e)) }
	case *ast.CallExpr:
		return fc.callFlt(x)
	}
	fc.errorf(e, "unsupported float expression %T", e)
	return nil
}

// ptr compiles a pointer-typed expression.
func (fc *funcCompiler) ptr(e ast.Expr) ptrFn {
	switch x := e.(type) {
	case *ast.Ident:
		sym := fc.symOf(x)
		sl, global := fc.slotOf(sym, x)
		if global {
			idx := sl.idx
			return func(e *env) mem.Pointer { return e.p.gP[idx] }
		}
		idx := sl.idx
		return func(e *env) mem.Pointer { return e.P[idx] }
	case *ast.ParenExpr:
		return fc.ptr(x.X)
	case *ast.IndexExpr:
		// Partial indexing of a multi-dimensional array yields a row
		// pointer; full indexing of a pointer-element array loads it.
		if pf, ok := fc.partialArrayIndex(x); ok {
			return pf
		}
		addr := fc.addr(x)
		return func(e *env) mem.Pointer { return addr(e).LoadPtr() }
	case *ast.MemberExpr:
		// Array field decays to pointer; pointer field loads.
		st, fld := fc.fieldOf(x)
		base := fc.structBase(x)
		off := fld.Offset
		_ = st
		if fld.Count > 1 {
			return func(e *env) mem.Pointer { return base(e).Add(int64(off)) }
		}
		return func(e *env) mem.Pointer { return base(e).Add(int64(off)).LoadPtr() }
	case *ast.CastExpr:
		// (T*)malloc(bytes) — the only way to materialize fresh memory.
		if call, ok := stripParens(x.X).(*ast.CallExpr); ok && call.Fun.Name == "malloc" {
			return fc.mallocCall(x, call)
		}
		inner := fc.typeOf(x.X)
		if inner.Kind == types.Ptr {
			return fc.ptr(x.X)
		}
		if inner.Kind == types.Int {
			// Null-pointer constants.
			g := fc.integer(x.X)
			return func(e *env) mem.Pointer {
				if g(e) != 0 {
					rtPanic("cast of non-zero integer to pointer")
				}
				return mem.Pointer{}
			}
		}
		fc.errorf(x, "unsupported pointer cast from %s", inner)
	case *ast.BinaryExpr:
		tl, tr := fc.typeOf(x.X), fc.typeOf(x.Y)
		switch {
		case tl.IsPtr() && tr.Kind == types.Int:
			p := fc.ptr(x.X)
			i := fc.integer(x.Y)
			stride := elemStride(tl.Elem)
			if x.Op == token.SUB {
				return func(e *env) mem.Pointer { return addScaled(p(e), -i(e), stride) }
			}
			return func(e *env) mem.Pointer { return addScaled(p(e), i(e), stride) }
		case tr.IsPtr() && tl.Kind == types.Int && x.Op == token.ADD:
			p := fc.ptr(x.Y)
			i := fc.integer(x.X)
			stride := elemStride(tr.Elem)
			return func(e *env) mem.Pointer { return addScaled(p(e), i(e), stride) }
		}
		fc.errorf(x, "unsupported pointer arithmetic")
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return fc.addr(x.X)
		case token.MUL:
			addr := fc.addr(x)
			return func(e *env) mem.Pointer { return addr(e).LoadPtr() }
		}
		fc.errorf(x, "unsupported unary %s in pointer context", x.Op)
	case *ast.CondExpr:
		c := fc.cond(x.Cond)
		a := fc.ptr(x.Then)
		b := fc.ptr(x.Else)
		return func(e *env) mem.Pointer {
			if c(e) {
				return a(e)
			}
			return b(e)
		}
	case *ast.AssignExpr:
		eff, val := fc.assign(x)
		return func(e *env) mem.Pointer {
			eff(e)
			return val.p(e)
		}
	case *ast.CallExpr:
		if x.Fun.Name == "malloc" {
			fc.errorf(x, "malloc must be cast to its target pointer type, e.g. (int*)malloc(n)")
		}
		return fc.callPtr(x)
	case *ast.IntLit:
		if x.Value == 0 {
			return func(*env) mem.Pointer { return mem.Pointer{} }
		}
		fc.errorf(e, "non-zero integer used as pointer")
	case *ast.StringLit:
		seg := mem.NewSegment(mem.CellInt, len(x.Value)+1, "string")
		for i := 0; i < len(x.Value); i++ {
			seg.I[i] = int64(x.Value[i]) //lint:rawmem fresh segment sized len+1, i < len by the loop bound
		}
		p := mem.Pointer{Seg: seg}
		return func(*env) mem.Pointer { return p }
	}
	fc.errorf(e, "unsupported pointer expression %T", e)
	return nil
}

// partialArrayIndex handles a[i] (or a[i][j]...) where a is a declared
// multi-dimensional array indexed with fewer subscripts than dimensions:
// the result is a pointer into the flattened segment.
func (fc *funcCompiler) partialArrayIndex(x *ast.IndexExpr) (ptrFn, bool) {
	subs, base := collectSubs(x)
	id, ok := base.(*ast.Ident)
	if !ok {
		return nil, false
	}
	sym := fc.prog.info.Ref[id]
	if sym == nil || !sym.IsArray() || len(subs) >= len(sym.Dims) {
		return nil, false
	}
	basePtr := fc.ptr(id)
	offFn := fc.flatOffset(sym, subs)
	// Remaining dimensions contribute a stride multiplier.
	stride := int64(1)
	for _, d := range sym.Dims[len(subs):] {
		stride *= int64(d)
	}
	return func(e *env) mem.Pointer { return basePtr(e).Add(offFn(e) * stride) }, true
}

// flatOffset compiles the row-major offset of the given subscripts over
// the leading dims of sym, in units of the remaining-dimension stride.
func (fc *funcCompiler) flatOffset(sym *sema.Symbol, subs []ast.Expr) intFn {
	fns := make([]intFn, len(subs))
	strides := make([]int64, len(subs))
	for i := range subs {
		fns[i] = fc.integer(subs[i])
		stride := int64(1)
		for _, d := range sym.Dims[i+1 : len(subs)] {
			stride *= int64(d)
		}
		strides[i] = stride
	}
	if len(fns) == 1 {
		f := fns[0]
		return f
	}
	return func(e *env) int64 {
		off := int64(0)
		for i, f := range fns {
			off += f(e) * strides[i]
		}
		return off
	}
}

func collectSubs(e ast.Expr) ([]ast.Expr, ast.Expr) {
	var subs []ast.Expr
	cur := e
	for {
		ix, ok := cur.(*ast.IndexExpr)
		if !ok {
			return subs, cur
		}
		subs = append([]ast.Expr{ix.Index}, subs...)
		cur = ix.X
	}
}

func stripParens(e ast.Expr) ast.Expr { return ast.Unparen(e) }

// mallocCall compiles (T*)malloc(bytes): the segment kind and cell count
// derive from the cast's element type.
func (fc *funcCompiler) mallocCall(cast *ast.CastExpr, call *ast.CallExpr) ptrFn {
	if len(call.Args) != 1 {
		fc.errorf(call, "malloc takes one argument")
	}
	bytesFn := fc.integer(call.Args[0])
	t := fc.typeOf(cast)
	if !t.IsPtr() {
		fc.errorf(cast, "malloc cast must be a pointer type")
	}
	elem := t.Elem
	var kind mem.CellKind
	var cellBytes int64
	if elem.Kind == types.Struct {
		kind = mem.CellMixed
		cellBytes = int64(elem.CSize) / int64(structCells(elem))
	} else {
		k, err := cellKindOf(elem)
		if err != nil {
			fc.errorf(cast, "%v", err)
		}
		kind = k
		cellBytes = int64(elem.CSize)
		if cellBytes == 0 {
			cellBytes = 8
		}
	}
	name := "malloc@" + fc.cf.name
	return func(e *env) mem.Pointer {
		b := bytesFn(e)
		cells := b / cellBytes
		if b%cellBytes != 0 {
			cells++
		}
		return e.p.heap.Malloc(kind, int(cells), name)
	}
}

// ----------------------------------------------------------------------------
// Addresses and lvalues

// addr compiles the address of an lvalue cell.
func (fc *funcCompiler) addr(e ast.Expr) ptrFn {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fc.addr(x.X)
	case *ast.IndexExpr:
		subs, base := collectSubs(x)
		if id, ok := base.(*ast.Ident); ok {
			sym := fc.symOf(id)
			if sym.IsArray() && len(subs) == len(sym.Dims) {
				basePtr := fc.ptr(id)
				offFn := fc.flatOffset(sym, subs)
				return func(e *env) mem.Pointer { return basePtr(e).Add(offFn(e)) }
			}
		}
		// General chain: evaluate the base as a pointer, add index.
		bt := fc.typeOf(x.X)
		if !bt.IsPtr() {
			fc.errorf(x, "indexing non-pointer")
		}
		basePtr := fc.ptr(x.X)
		idxFn := fc.integer(x.Index)
		stride := elemStride(bt.Elem)
		return func(e *env) mem.Pointer { return basePtr(e).Add(idxFn(e) * stride) }
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return fc.ptr(x.X)
		}
	case *ast.MemberExpr:
		_, fld := fc.fieldOf(x)
		base := fc.structBase(x)
		off := int64(fld.Offset)
		return func(e *env) mem.Pointer { return base(e).Add(off) }
	case *ast.Ident:
		sym := fc.symOf(x)
		if sym.IsArray() || (sym.Type != nil && sym.Type.Kind == types.Struct) {
			return fc.ptr(x)
		}
		fc.errorf(x, "cannot take the address of scalar %s (frame storage)", x.Name)
	}
	fc.errorf(e, "expression is not addressable")
	return nil
}

// fieldOf resolves the struct field of a member expression.
func (fc *funcCompiler) fieldOf(x *ast.MemberExpr) (*types.Type, types.Field) {
	bt := fc.typeOf(x.X)
	st := bt
	if x.Arrow {
		st = bt.Elem
	}
	if st == nil || st.Kind != types.Struct {
		fc.errorf(x, "member access on non-struct")
	}
	for _, f := range st.Fields {
		if f.Name == x.Name {
			return st, f
		}
	}
	fc.errorf(x, "struct %s has no field %s", st.Tag, x.Name)
	return nil, types.Field{}
}

// structBase compiles the base pointer of a member access.
func (fc *funcCompiler) structBase(x *ast.MemberExpr) ptrFn {
	if x.Arrow {
		return fc.ptr(x.X)
	}
	// value access: the struct lives in a segment referenced by its slot
	return fc.addrOfStruct(x.X)
}

func (fc *funcCompiler) addrOfStruct(e ast.Expr) ptrFn {
	switch x := e.(type) {
	case *ast.Ident:
		return fc.ptr(x) // struct local slot holds segment pointer
	case *ast.ParenExpr:
		return fc.addrOfStruct(x.X)
	case *ast.IndexExpr:
		return fc.addr(x)
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return fc.ptr(x.X)
		}
	case *ast.MemberExpr:
		_, fld := fc.fieldOf(x)
		base := fc.structBase(x)
		off := int64(fld.Offset)
		return func(e *env) mem.Pointer { return base(e).Add(off) }
	}
	fc.errorf(e, "unsupported struct expression")
	return nil
}

// slotOf resolves a symbol to its slot, reporting whether it is global.
func (fc *funcCompiler) slotOf(sym *sema.Symbol, n ast.Node) (slot, bool) {
	if sym.Kind == sema.SymGlobal {
		sl, ok := fc.prog.globalSlots[sym]
		if !ok {
			fc.errorf(n, "global %s has no storage", sym.Name)
		}
		return sl, true
	}
	sl, ok := fc.slots[sym]
	if !ok {
		fc.errorf(n, "local %s has no slot", sym.Name)
	}
	return sl, false
}

// intLvalue returns load/store closures for an integer lvalue.
func (fc *funcCompiler) intLvalue(e ast.Expr) (func(*env) int64, func(*env, int64)) {
	switch x := stripParens(e).(type) {
	case *ast.Ident:
		sym := fc.symOf(x)
		sl, global := fc.slotOf(sym, x)
		idx := sl.idx
		if global {
			return func(e *env) int64 { return e.p.gI[idx] }, func(e *env, v int64) { e.p.gI[idx] = v }
		}
		return func(e *env) int64 { return e.I[idx] }, func(e *env, v int64) { e.I[idx] = v }
	default:
		addr := fc.addr(e)
		return func(e *env) int64 { return addr(e).LoadInt() },
			func(e *env, v int64) { addr(e).StoreInt(v) }
	}
}

// fltLvalue returns load/store closures for a float lvalue.
func (fc *funcCompiler) fltLvalue(e ast.Expr) (func(*env) float64, func(*env, float64)) {
	switch x := stripParens(e).(type) {
	case *ast.Ident:
		sym := fc.symOf(x)
		sl, global := fc.slotOf(sym, x)
		idx := sl.idx
		if global {
			return func(e *env) float64 { return e.p.gF[idx] }, func(e *env, v float64) { e.p.gF[idx] = v }
		}
		return func(e *env) float64 { return e.F[idx] }, func(e *env, v float64) { e.F[idx] = v }
	default:
		addr := fc.addr(e)
		return func(e *env) float64 { return addr(e).LoadFloat() },
			func(e *env, v float64) { addr(e).StoreFloat(v) }
	}
}

// ptrLvalue returns load/store closures for a pointer lvalue.
func (fc *funcCompiler) ptrLvalue(e ast.Expr) (func(*env) mem.Pointer, func(*env, mem.Pointer)) {
	switch x := stripParens(e).(type) {
	case *ast.Ident:
		sym := fc.symOf(x)
		sl, global := fc.slotOf(sym, x)
		idx := sl.idx
		if global {
			return func(e *env) mem.Pointer { return e.p.gP[idx] }, func(e *env, v mem.Pointer) { e.p.gP[idx] = v }
		}
		return func(e *env) mem.Pointer { return e.P[idx] }, func(e *env, v mem.Pointer) { e.P[idx] = v }
	default:
		addr := fc.addr(e)
		return func(e *env) mem.Pointer { return addr(e).LoadPtr() },
			func(e *env, v mem.Pointer) { addr(e).StorePtr(v) }
	}
}

// valueFns packages typed value closures for assignment results.
type valueFns struct {
	kind slotKind
	i    intFn
	f    fltFn
	p    ptrFn
}

// assign compiles an assignment, returning an effect closure plus value
// closures for expression contexts.
func (fc *funcCompiler) assign(x *ast.AssignExpr) (func(*env), valueFns) {
	tl := fc.typeOf(x.LHS)
	switch tl.Kind {
	case types.Float:
		get, set := fc.fltLvalue(x.LHS)
		var rhs fltFn
		if bin, ok := x.Op.AssignBinOp(); ok {
			r := fc.num(x.RHS)
			switch bin {
			case token.ADD:
				rhs = func(e *env) float64 { return get(e) + r(e) }
			case token.SUB:
				rhs = func(e *env) float64 { return get(e) - r(e) }
			case token.MUL:
				rhs = func(e *env) float64 { return get(e) * r(e) }
			case token.QUO:
				rhs = func(e *env) float64 { return get(e) / r(e) }
			default:
				fc.errorf(x, "unsupported compound float assignment %s", x.Op)
			}
		} else {
			rhs = fc.num(x.RHS)
		}
		// C float (4 bytes) rounds every stored value through float32.
		if tl.CSize == 4 {
			inner := rhs
			rhs = func(e *env) float64 { return float64(float32(inner(e))) }
		}
		eff := func(e *env) { set(e, rhs(e)) }
		return eff, valueFns{kind: slotFloat, f: func(e *env) float64 { v := rhs(e); set(e, v); return v }}
	case types.Ptr:
		get, set := fc.ptrLvalue(x.LHS)
		var rhs ptrFn
		if bin, ok := x.Op.AssignBinOp(); ok {
			r := fc.integer(x.RHS)
			stride := elemStride(tl.Elem)
			switch bin {
			case token.ADD:
				rhs = func(e *env) mem.Pointer { return addScaled(get(e), r(e), stride) }
			case token.SUB:
				rhs = func(e *env) mem.Pointer { return addScaled(get(e), -r(e), stride) }
			default:
				fc.errorf(x, "unsupported compound pointer assignment %s", x.Op)
			}
		} else {
			rhs = fc.ptr(x.RHS)
		}
		eff := func(e *env) { set(e, rhs(e)) }
		return eff, valueFns{kind: slotPtr, p: func(e *env) mem.Pointer { v := rhs(e); set(e, v); return v }}
	default:
		get, set := fc.intLvalue(x.LHS)
		var rhs intFn
		if bin, ok := x.Op.AssignBinOp(); ok {
			r := fc.integer(x.RHS)
			switch bin {
			case token.ADD:
				rhs = func(e *env) int64 { return get(e) + r(e) }
			case token.SUB:
				rhs = func(e *env) int64 { return get(e) - r(e) }
			case token.MUL:
				rhs = func(e *env) int64 { return get(e) * r(e) }
			case token.QUO:
				rhs = func(e *env) int64 {
					d := r(e)
					if d == 0 {
						rtPanic("integer division by zero")
					}
					return get(e) / d
				}
			case token.REM:
				rhs = func(e *env) int64 {
					d := r(e)
					if d == 0 {
						rtPanic("integer modulo by zero")
					}
					return get(e) % d
				}
			case token.AND:
				rhs = func(e *env) int64 { return get(e) & r(e) }
			case token.OR:
				rhs = func(e *env) int64 { return get(e) | r(e) }
			case token.XOR:
				rhs = func(e *env) int64 { return get(e) ^ r(e) }
			case token.SHL:
				rhs = func(e *env) int64 { return get(e) << uint(r(e)) }
			case token.SHR:
				rhs = func(e *env) int64 { return get(e) >> uint(r(e)) }
			}
		} else {
			rhs = fc.integer(x.RHS)
		}
		eff := func(e *env) { set(e, rhs(e)) }
		return eff, valueFns{kind: slotInt, i: func(e *env) int64 { v := rhs(e); set(e, v); return v }}
	}
}

// effect compiles an expression for its side effects only.
func (fc *funcCompiler) effect(e ast.Expr) func(*env) {
	switch x := e.(type) {
	case *ast.AssignExpr:
		eff, _ := fc.assign(x)
		return eff
	case *ast.PostfixExpr, *ast.UnaryExpr:
		// ++/--; other unaries are pure but legal statements.
		t := fc.typeOf(e)
		switch t.Kind {
		case types.Float:
			f := fc.flt(e)
			return func(env *env) { f(env) }
		case types.Ptr:
			f := fc.ptr(e)
			return func(env *env) { f(env) }
		default:
			f := fc.intExpr(e)
			return func(env *env) { f(env) }
		}
	case *ast.CallExpr:
		return fc.callEffect(x)
	case *ast.ParenExpr:
		return fc.effect(x.X)
	default:
		t := fc.typeOf(e)
		switch t.Kind {
		case types.Float:
			f := fc.flt(e)
			return func(env *env) { f(env) }
		case types.Ptr:
			f := fc.ptr(e)
			return func(env *env) { f(env) }
		default:
			f := fc.integer(e)
			return func(env *env) { f(env) }
		}
	}
}

var _ = math.Abs // referenced by builtins in call.go
