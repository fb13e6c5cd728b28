package comp

// Leaf-pure inlining: a value call of a pure function whose body is
// exactly `return <expr>;` compiles as that expression, on the tape —
// `next[i][j] = avg(cur[i-1], cur[i], cur[i+1], j)` compiles to the
// stencil it is, which the lifter (lift.go) reads as a kernel, and no
// frame is built for it. This is the -O2 inlining both GCC and ICC
// perform, made unconditional for the one shape where it cannot lose:
// the paper measured the extracted heat stencil at 87.8 vs 47.5 G
// instructions against the hand-inlined loop (Sect. 4.3.2); here the
// two sources compile to the same kernels.
//
// A value call inlines when all three conditions hold:
//
//  1. the callee is pure and its body is a single `return <expr>;`
//     whose parameters and result are scalars or pointers;
//  2. the expression is effect-free and mentions only parameters,
//     globals, literals, builtins and calls of other pure functions
//     (leaf callees among those inline in turn, maxInlineDepth deep);
//  3. the call is not one the memo table counts as bypassed.
//
// The call takes the ordinary call path (userCall): each argument is
// evaluated once, left to right, converted to its parameter's type, so
// traps come in argument order, as on the interpreter. Where the tCall
// would be, the callee's expression compiles, converted to the return
// type, and a read of a parameter (by symbol: the callee's global
// `scale` stays that global beside a caller local `scale`) yields its
// argument's operand — a name or a literal costs no instruction. The
// callee's checked tree is only read.

import (
	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// maxInlineDepth bounds nested expansion (a leaf body calling a leaf);
// a call reached deeper stays a call.
const maxInlineDepth = 4

// leafInfo is the callee's half of the inlining decision, computed
// once per Program.
type leafInfo struct {
	checked bool
	ret     ast.Expr       // the returned expression; nil when not a leaf
	params  []*sema.Symbol // in declaration order
}

// boundParam is a parameter of a callee being inlined and the operand
// its argument evaluated to.
type boundParam struct {
	sym *sema.Symbol
	o   opnd
}

// leafOf decides conditions 1 and 2 for a callee.
func (fc *funcCompiler) leafOf(callee *cfunc) *leafInfo {
	lf := &callee.leaf
	if lf.checked {
		return lf
	}
	lf.checked = true
	body := callee.decl.Body
	if !callee.pure || body == nil || len(body.List) != 1 {
		return lf
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || ret.X == nil {
		return lf
	}
	sig := fc.prog.info.Funcs[callee.name]
	if sig == nil || !inlinableType(sig.Ret) {
		return lf
	}
	for _, pt := range sig.Params {
		if !inlinableType(pt) {
			return lf
		}
	}
	for _, sym := range fc.prog.info.FuncLocals[callee.name] {
		if sym.Kind == sema.SymParam {
			lf.params = append(lf.params, sym)
		}
	}
	if len(lf.params) == len(sig.Params) && !hasSideEffects(fc, ret.X) {
		lf.ret = ret.X
	}
	return lf
}

func inlinableType(t *types.Type) bool {
	return t != nil && (t.Kind == types.Int || t.Kind == types.Float || t.Kind == types.Ptr)
}

// inlines reports whether a value call of callee compiles as its
// return expression: conditions 1 to 3, within the depth cap.
func (fc *funcCompiler) inlines(callee *cfunc) bool {
	return fc.depth < maxInlineDepth && fc.leafOf(callee).ret != nil && !fc.countsAsBypass(callee.name)
}

// inline compiles callee's return expression as a value of the kind,
// its parameters bound to fc.bound[first:]; from is the temp level
// before the arguments. While the expression compiles, its parameters
// are visible and the argument temps are held: no emitter overwrites
// them in place. A result in a temp keeps them allocated until its
// consumer frees its operands.
func (tc *tapeCompiler) inline(callee *cfunc, first int, from [3]int32, kind int, hint int32) opnd {
	fc := tc.fc
	active, held := fc.active, tc.ta.held
	fc.active, tc.ta.held = len(fc.bound), tc.ta.next
	fc.depth++
	fc.prog.inlinedCalls++
	ret := callee.leaf.ret
	f32 := kind == tkF && fc.prog.info.Funcs[callee.name].Ret.CSize == 4 && !fc.f32Exact(ret)
	o := tc.operand(ret, kind, hint, f32)
	fc.depth--
	fc.active, tc.ta.held, fc.bound = active, held, fc.bound[:first]
	if o.k == oImm || o.k == oGlob || o.k == oReg && o.r < from[kind] {
		tc.ta.restore(from) // the result holds no temp: free the arguments'
	}
	return o
}

// param is the operand bound to x when x names a parameter of a callee
// being inlined; the innermost expansion binds last and wins.
func (fc *funcCompiler) param(x *ast.Ident) (opnd, bool) {
	if fc.active > 0 {
		sym := fc.prog.info.Ref[x]
		for i := fc.active - 1; i >= 0; i-- {
			if fc.bound[i].sym == sym {
				return fc.bound[i].o, true
			}
		}
	}
	return opnd{}, false
}

// f32Exact reports whether the value of e is provably representable as
// a float32, so that rounding it again is the identity: what a 4-byte
// float cell or parameter of an inlined callee holds, what a conversion
// to float or a float-returning function just rounded, and literals
// that survive the round trip.
func (fc *funcCompiler) f32Exact(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.FloatLit:
		return float64(float32(x.Value)) == x.Value
	case *ast.IntLit:
		return float64(float32(x.Value)) == float64(x.Value)
	}
	t := e.Checked()
	if t == nil || t.Kind != types.Float || t.CSize != 4 {
		return false
	}
	switch x := e.(type) {
	case *ast.Ident:
		_, bound := fc.param(x)
		return bound
	case *ast.IndexExpr, *ast.MemberExpr, *ast.CastExpr:
		return true
	case *ast.UnaryExpr:
		return x.Op == token.MUL
	case *ast.CallExpr:
		_, user := fc.prog.funcs[x.Fun.Name]
		return user
	}
	return false
}
