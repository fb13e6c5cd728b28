package comp

// Leaf-pure inlining: a call of a pure function whose body is exactly
// `return <expr>;` is rewritten, as syntax, into that expression when
// the tape compiles it — `next[i][j] = avg(cur[i-1], cur[i], cur[i+1],
// j)` compiles to the stencil it is, which the lifter (lift.go) reads
// as a kernel, and the expression compilers never build a frame for it. This is
// the -O2 inlining both GCC and ICC perform, made unconditional for the
// one shape where it cannot lose: the paper measured the extracted heat
// stencil at 87.8 vs 47.5 G instructions against the hand-inlined loop
// (Sect. 4.3.2); here the two sources compile to the same kernels.
//
// A call site is rewritten when all five conditions hold:
//
//  1. the callee is pure and its body is a single `return <expr>;`
//     whose parameters and result are scalars or pointers;
//  2. the expression is effect-free and mentions only parameters,
//     globals, literals, builtins and calls of other pure functions
//     (leaf callees among those inline in turn, maxInlineDepth deep);
//  3. every argument is effect-free, because a substituted argument is
//     evaluated where the parameter was read;
//  4. a parameter read more than twice, or never, has a trivial
//     argument (a name or a literal), and one read twice has an
//     argument free of calls — so the rewrite duplicates no real work
//     and drops no argument that could trap;
//  5. the call is not one the memo table counts as bypassed.
//
// The rewrite is the C-equivalent expression: each parameter becomes
// its argument converted to the parameter's type, the whole converted
// to the return type, with conversions that cannot change the value
// (int to int, pointer to pointer, a float32 cell to float) left out.
// Callee nodes are resolved through sema symbols — the callee's global
// `scale` stays that global beside a caller local of the same name —
// and the types of synthesized nodes live in a per-function overlay,
// because the sema.Info of a Program may be shared by other compiles.
//
// What stays observable: evaluation happens at the read, not at the
// call, so when several operands of one call would trap, which trap is
// reported may differ from the call's argument order — the freedom C
// gives argument evaluation anyway.

import (
	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// maxInlineDepth bounds nested expansion (leaf calling leaf, calls in
// arguments); a call reached deeper stays a call.
const maxInlineDepth = 4

// leafInfo is the callee's half of the inlining decision, computed
// once per Program.
type leafInfo struct {
	checked bool
	ret     ast.Expr       // the returned expression; nil when not a leaf
	params  []*sema.Symbol // in declaration order
	uses    []int          // reads of each parameter in ret
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
	if len(lf.params) != len(sig.Params) || hasSideEffects(fc, ret.X) {
		return lf
	}
	lf.uses = make([]int, len(lf.params))
	ok = true
	ast.Walk(ret.X, func(n ast.Node) bool {
		if id, isID := n.(*ast.Ident); isID {
			sym := fc.prog.info.Ref[id]
			switch {
			case sym == nil:
				ok = false
			case sym.Kind == sema.SymParam:
				lf.uses[lf.paramIndex(sym)]++
			case sym.Kind == sema.SymLocal:
				ok = false
			}
		}
		return ok
	})
	if ok {
		lf.ret = ret.X
	}
	return lf
}

// paramIndex locates a parameter symbol (signatures are short).
func (lf *leafInfo) paramIndex(sym *sema.Symbol) int {
	for i, p := range lf.params {
		if p == sym {
			return i
		}
	}
	return -1
}

func inlinableType(t *types.Type) bool {
	return t != nil && (t.Kind == types.Int || t.Kind == types.Float || t.Kind == types.Ptr)
}

// inlineCall is the inlining decision: the expression that replaces the
// call, or false when it stays a call. Every compiler of a call —
// callFlt, callInt, callPtr — asks here, and asks once per call site:
// the verdict is cached, so every compile of the site sees the same
// rewrite.
func (fc *funcCompiler) inlineCall(x *ast.CallExpr) (ast.Expr, bool) {
	return fc.inlineAt(x, 0)
}

func (fc *funcCompiler) inlineAt(x *ast.CallExpr, depth int) (ast.Expr, bool) {
	if e, ok := fc.inlined[x]; ok {
		return e, true
	}
	e := fc.expandCall(x, depth)
	if e == nil {
		return nil, false
	}
	if fc.inlined == nil {
		fc.inlined = map[*ast.CallExpr]ast.Expr{}
	}
	fc.inlined[x] = e
	return e, true
}

// expandCall builds the replacement of one call, or nil.
func (fc *funcCompiler) expandCall(x *ast.CallExpr, depth int) ast.Expr {
	callee, ok := fc.prog.funcs[x.Fun.Name]
	if !ok || fc.keepCall[x] {
		return nil
	}
	lf := fc.leafOf(callee)
	if lf.ret == nil || len(x.Args) != len(lf.params) || fc.countsAsBypass(callee.name) {
		return nil
	}
	for i, a := range x.Args {
		if hasSideEffects(fc, a) || !fc.substitutable(a, lf.uses[i]) {
			return nil
		}
	}
	if depth >= maxInlineDepth {
		// The node outlives this expansion inside the rewritten
		// expression; compiling it there must not start over at depth 0.
		if fc.keepCall == nil {
			fc.keepCall = map[*ast.CallExpr]bool{}
		}
		fc.keepCall[x] = true
		return nil
	}
	sig := fc.prog.info.Funcs[callee.name]
	sub := &paramSub{leaf: lf, args: make([]ast.Expr, len(lf.params))}
	for i := range lf.params {
		arg := fc.subst(x.Args[i], nil, depth+1)
		sub.args[i] = fc.convertTo(arg, sig.Params[i], callee.decl.Params[i].Type)
	}
	fc.prog.inlinedCalls++
	return fc.convertTo(fc.subst(lf.ret, sub, depth+1), sig.Ret, callee.decl.Ret)
}

// substitutable decides condition 4 for one argument and the number of
// times its parameter is read.
func (fc *funcCompiler) substitutable(arg ast.Expr, uses int) bool {
	arg = ast.Unparen(arg)
	for c, ok := arg.(*ast.CastExpr); ok; c, ok = arg.(*ast.CastExpr) {
		arg = ast.Unparen(c.X) // converting a name or a literal is still no work
	}
	switch a := arg.(type) {
	case *ast.Ident:
		// A multi-dimensional array indexes flat where the pointer it
		// decays to loads a row pointer: the two must not be confused.
		sym := fc.prog.info.Ref[a]
		return sym != nil && len(sym.Dims) <= 1
	case *ast.IntLit, *ast.FloatLit, *ast.CharLit:
		return true
	}
	if uses == 2 {
		return len(ast.Calls(arg)) == 0
	}
	return uses == 1
}

// paramSub binds the parameters of a leaf callee to the converted
// arguments of one call.
type paramSub struct {
	leaf *leafInfo
	args []ast.Expr
}

// subst copies e with parameters replaced (sub, inside a callee body)
// and inlinable calls expanded; untouched subtrees are shared. With a
// nil sub, e is caller source: its calls are the cache keys of
// inlineAt.
func (fc *funcCompiler) subst(e ast.Expr, sub *paramSub, depth int) ast.Expr {
	var out ast.Expr
	switch x := e.(type) {
	case *ast.Ident:
		if sub != nil {
			if i := sub.leaf.paramIndex(fc.prog.info.Ref[x]); i >= 0 {
				return sub.args[i]
			}
		}
		return x
	case *ast.ParenExpr:
		in := fc.subst(x.X, sub, depth)
		if in == x.X {
			return x
		}
		out = &ast.ParenExpr{LPos: x.LPos, X: in}
	case *ast.BinaryExpr:
		a, b := fc.subst(x.X, sub, depth), fc.subst(x.Y, sub, depth)
		if a == x.X && b == x.Y {
			return x
		}
		out = &ast.BinaryExpr{X: a, Op: x.Op, Y: b}
	case *ast.UnaryExpr:
		if x.Op == token.INC || x.Op == token.DEC {
			return x
		}
		in := fc.subst(x.X, sub, depth)
		if in == x.X {
			return x
		}
		out = &ast.UnaryExpr{OpPos: x.OpPos, Op: x.Op, X: in}
	case *ast.CondExpr:
		c, a, b := fc.subst(x.Cond, sub, depth), fc.subst(x.Then, sub, depth), fc.subst(x.Else, sub, depth)
		if c == x.Cond && a == x.Then && b == x.Else {
			return x
		}
		out = &ast.CondExpr{Cond: c, Then: a, Else: b}
	case *ast.IndexExpr:
		a, b := fc.subst(x.X, sub, depth), fc.subst(x.Index, sub, depth)
		if a == x.X && b == x.Index {
			return x
		}
		out = &ast.IndexExpr{X: a, Index: b}
	case *ast.MemberExpr:
		in := fc.subst(x.X, sub, depth)
		if in == x.X {
			return x
		}
		out = &ast.MemberExpr{X: in, Name: x.Name, Arrow: x.Arrow}
	case *ast.CastExpr:
		in := fc.subst(x.X, sub, depth)
		if in == x.X {
			return x
		}
		out = &ast.CastExpr{LPos: x.LPos, Type: x.Type, X: in}
	case *ast.CallExpr:
		if sub == nil {
			if inl, ok := fc.inlineAt(x, depth); ok {
				return inl
			}
			return x
		}
		// A call in a callee body: every expansion gets its own node, so
		// the depth verdict recorded for it concerns this expansion only.
		n := &ast.CallExpr{Fun: x.Fun, Args: make([]ast.Expr, len(x.Args))}
		for i, a := range x.Args {
			n.Args[i] = fc.subst(a, sub, depth)
		}
		n.SetChecked(x.Checked())
		if inl := fc.expandCall(n, depth); inl != nil {
			return inl
		}
		return n
	default:
		// Literals and sizeof have nothing to replace; assignments and
		// ++/-- cannot occur in a leaf body and stay as written in
		// caller source.
		return e
	}
	out.SetChecked(e.Checked())
	return out
}

// convertTo wraps e in the C conversion to dst (spelled te) unless the
// conversion cannot change the value.
func (fc *funcCompiler) convertTo(e ast.Expr, dst *types.Type, te *ast.TypeExpr) ast.Expr {
	src := e.Checked()
	var same bool
	switch dst.Kind {
	case types.Float:
		same = src.Kind == types.Float && (dst.CSize != 4 || fc.f32Exact(e))
	default:
		same = src.Kind == dst.Kind
	}
	if same {
		return e
	}
	c := &ast.CastExpr{LPos: e.Pos(), Type: te, X: e}
	c.SetChecked(dst)
	return c
}

// f32Exact reports whether the value of e is provably representable as
// a float32, so that rounding it again is the identity: what a 4-byte
// float cell holds, what a conversion to float or a float-returning
// function just rounded, and literals that survive the round trip.
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
