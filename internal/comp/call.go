package comp

// Calls on the tape. A call evaluates its arguments into consecutive
// registers of each kind, then one op runs the callee — a user function
// on a frame pushed on the caller's stack, a memoized one behind the
// memo table, or printf — reading them through its site. A value call
// of a leaf pure function evaluates its arguments the same way and then
// compiles as the expression the callee returns (inline.go). The
// fixed-arity builtins are plain register ops.

import (
	"fmt"
	"math"
	"strings"

	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/memo"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// mathFns are the float builtins: f1 unary (tMath1), f2 binary (tMath2).
var mathFns = [...]struct {
	name string
	f1   func(float64) float64
	f2   func(float64, float64) float64
}{
	{name: "sin", f1: math.Sin}, {name: "cos", f1: math.Cos}, {name: "tan", f1: math.Tan},
	{name: "asin", f1: math.Asin}, {name: "acos", f1: math.Acos}, {name: "atan", f1: math.Atan},
	{name: "exp", f1: math.Exp}, {name: "log", f1: math.Log}, {name: "log10", f1: math.Log10},
	{name: "sqrt", f1: math.Sqrt}, {name: "fabs", f1: math.Abs}, {name: "floor", f1: math.Floor},
	{name: "ceil", f1: math.Ceil}, {name: "expf", f1: math.Exp}, {name: "sqrtf", f1: math.Sqrt},
	{name: "fabsf", f1: math.Abs},
	{name: "pow", f2: math.Pow}, {name: "atan2", f2: math.Atan2}, {name: "fmod", f2: math.Mod},
	{name: "fmin", f2: math.Min}, {name: "fmax", f2: math.Max},
}

// mathFn finds a float builtin by name.
func mathFn(name string) (int, bool) {
	for i := range mathFns {
		if mathFns[i].name == name {
			return i, true
		}
	}
	return 0, false
}

// intBuiltins are the two-argument int builtins and their ops.
var intBuiltins = map[string]topcode{"floord": tFloorD, "ceild": tCeilD, "imin": tMinI, "imax": tMaxI}

// callSite is the site of a tCall: the callee, where its arguments
// sit, the result kind, and how the call meets the memo table.
type callSite struct {
	fn   *cfunc
	args regSpan
	ret  slotKind
	void bool
	// memo serves the call from the memo table (a memoizable callee at a
	// value call site, all arguments scalar); bypass counts it as a pure
	// call the table could not serve.
	memo, bypass bool
	seed         uint64
}

// run executes the call, leaving the result in register dst of e.
func (cs *callSite) run(e *env, dst int32) {
	if cs.memo {
		cs.runMemo(e, dst)
		return
	}
	if t := e.p.memo; cs.bypass && t != nil {
		t.Bypass()
	}
	ne := cs.enter(e)
	cs.fn.run(ne)
	switch {
	case cs.void:
	case cs.ret == slotInt:
		e.I[dst] = ne.retI
	case cs.ret == slotFloat:
		e.F[dst] = ne.retF
	default:
		e.P[dst] = ne.retP
	}
	e.fs.pop(ne)
}

// enter pushes the callee's frame and copies the arguments into its
// parameter slots, in order (parameters are the first locals of their
// kind, see funcCompiler.compile).
func (cs *callSite) enter(e *env) *env {
	ne := e.call(cs.fn)
	next := cs.args.first
	for _, p := range cs.fn.params {
		r := next[p.kind]
		next[p.kind]++
		switch p.kind {
		case slotInt:
			ne.I[p.idx] = e.I[r]
		case slotFloat:
			ne.F[p.idx] = e.F[r]
		default:
			ne.P[p.idx] = e.P[r]
		}
	}
	return ne
}

// runMemo is run for a memoized call: the argument bits form a
// memo.Key, a table hit returns the cached result bits, and a miss
// executes the callee once and stores the result. Only functions the
// purity analysis marked memoizable (scalar signature, global-free
// body) qualify, so the cached result is bit-identical to execution.
func (cs *callSite) runMemo(e *env, dst int32) {
	k := memo.Key{Fn: cs.fn.name, N: uint8(len(cs.fn.params))}
	next := cs.args.first
	for j, p := range cs.fn.params {
		r := next[p.kind]
		next[p.kind]++
		if p.kind == slotInt {
			k.Args[j] = uint64(e.I[r])
		} else {
			k.Args[j] = math.Float64bits(e.F[r])
		}
	}
	tab := e.p.memo
	v, hit := uint64(0), false
	if tab != nil {
		v, hit = tab.GetSeeded(cs.seed, k)
	}
	if !hit {
		ne := cs.enter(e)
		cs.fn.run(ne)
		v = uint64(ne.retI)
		if cs.ret == slotFloat {
			v = math.Float64bits(ne.retF)
		}
		e.fs.pop(ne)
		if tab != nil {
			tab.PutSeeded(cs.seed, k, v)
		}
	}
	if cs.ret == slotFloat {
		e.F[dst] = math.Float64frombits(v)
	} else {
		e.I[dst] = int64(v)
	}
}

// paramType resolves the declared type of callee's i-th parameter.
func (fc *funcCompiler) paramType(callee *cfunc, i int) (*types.Type, error) {
	return sema.FromAST(callee.decl.Params[i].Type, func(tag string) (*types.Type, error) {
		if st, ok := fc.prog.info.Structs[tag]; ok {
			return st, nil
		}
		return nil, fmt.Errorf("unknown struct %s", tag)
	})
}

// countsAsBypass reports whether value calls of name increment the memo
// bypass counter: pure calls memoization cannot serve (pointer
// arguments, oversized signatures, global-reading bodies). Only
// consulted when the Program memoizes.
func (fc *funcCompiler) countsAsBypass(name string) bool {
	if !fc.prog.memoize {
		return false
	}
	cf, ok := fc.prog.funcs[name]
	return ok && cf.pure && !cf.memoizable
}

// memoizes reports whether a value call of callee is served from the
// memo table: a memoizable callee whose arguments the key can hold and
// whose signature is all int/float.
func (fc *funcCompiler) memoizes(x *ast.CallExpr, callee *cfunc) bool {
	if !fc.prog.memoize || !callee.memoizable || len(x.Args) != len(callee.decl.Params) || len(x.Args) > memo.MaxArgs {
		return false
	}
	sig := fc.prog.info.Funcs[callee.name]
	if sig == nil || sig.Ret == nil || (sig.Ret.Kind != types.Int && sig.Ret.Kind != types.Float) {
		return false
	}
	for i := range x.Args {
		pt, err := fc.paramType(callee, i)
		if err != nil {
			fc.errorf(x, "%v", err)
		}
		if pt.Kind != types.Int && pt.Kind != types.Float {
			return false
		}
	}
	return true
}

// userCall compiles a call of a user-defined function: the arguments,
// left to right, converted to their parameters' types (a 4-byte float
// parameter rounds its value through float32, like every C conversion
// to float), then the tCall, whose result lands in hint when set — or,
// for a value call of a leaf callee, the callee's expression over the
// arguments' operands (inline.go). ret is the result kind, ignored for
// a call in statement position.
func (tc *tapeCompiler) userCall(x *ast.CallExpr, ret slotKind, value bool, hint int32) opnd {
	fc := tc.fc
	name := x.Fun.Name
	callee, ok := fc.prog.funcs[name]
	if !ok {
		fc.errorf(x, "call of unknown function %s", name)
	}
	if len(x.Args) != len(callee.decl.Params) {
		fc.errorf(x, "function %s expects %d arguments, got %d", name, len(callee.decl.Params), len(x.Args))
	}
	inline := value && fc.inlines(callee)
	memoized := !inline && value && fc.memoizes(x, callee)
	from, first := tc.ta.level(), len(fc.bound)
	for i, arg := range x.Args {
		pt, err := fc.paramType(callee, i)
		if err != nil {
			fc.errorf(x, "%v", err)
		}
		k, err := slotForType(pt)
		if err != nil {
			fc.errorf(x, "%v", err)
		}
		f32 := k == slotFloat && pt.CSize == 4 && !fc.f32Exact(arg)
		if !inline {
			tc.argInto(arg, int(k), f32)
			continue
		}
		// The operand is read where the callee reads its parameter; a
		// pending product is computed now, once for every read.
		o := tc.operand(arg, int(k), -1, f32)
		for _, next := range x.Args[i+1:] {
			tc.hold(&o, int(k), next)
		}
		if o.k == oMul {
			o = reg(tc.toReg(o, tkF, -1))
		}
		fc.bound = append(fc.bound, boundParam{sym: callee.leaf.params[i], o: o})
	}
	if inline {
		return tc.inline(callee, first, from, int(ret), hint)
	}
	cs := callSite{fn: callee, args: tc.ta.span(from), ret: ret, void: !value, memo: memoized,
		bypass: fc.prog.memoize && callee.pure && (!value || !callee.memoizable)}
	if memoized {
		cs.seed = memo.FnSeed(name)
	}
	tc.ta.restore(from)
	var dst int32
	if value {
		dst = tc.dest(from, int(ret), hint)
	}
	tc.tp.calls = append(tc.tp.calls, cs)
	tc.emit(tinstr{op: tCall, a: dst, b: int32(len(tc.tp.calls) - 1)})
	return reg(dst)
}

// argInto compiles a site argument into the next temp of its kind.
func (tc *tapeCompiler) argInto(arg ast.Expr, kind int, f32 bool) {
	t := tc.ta.alloc(kind)
	lvl := tc.ta.level()
	tc.toReg(tc.operand(arg, kind, t, f32), kind, t)
	tc.ta.restore(lvl)
}

// callInt compiles an int-valued call.
func (tc *tapeCompiler) callInt(x *ast.CallExpr, hint int32) opnd {
	lvl := tc.ta.level()
	in := tinstr{}
	switch name := x.Fun.Name; name {
	case "abs":
		in = tinstr{op: tAbsI, b: tc.toReg(tc.intOp(x.Args[0], -1), tkI, -1)}
	case "floord", "ceild", "imin", "imax":
		l := tc.intOp(x.Args[0], -1)
		tc.hold(&l, tkI, x.Args[1])
		r := tc.intOp(x.Args[1], -1)
		in = tinstr{op: intBuiltins[name], b: tc.toReg(l, tkI, -1), c: tc.toReg(r, tkI, -1)}
	case "rand":
		// a deterministic LCG, so runs are reproducible
		in.op = tRand
	case "printf":
		tc.printf(x)
		return immI(0)
	case "clock":
		return immI(0)
	default:
		if i, ok := mathFn(name); ok && mathFns[i].f1 != nil {
			in = tinstr{op: tF2I, b: tc.toReg(tc.callFlt(x, -1), tkF, -1)}
			break
		}
		return tc.userCall(x, slotInt, true, hint)
	}
	in.a = tc.dest(lvl, tkI, hint)
	tc.emit(in)
	return reg(in.a)
}

// callFlt compiles a float-valued call.
func (tc *tapeCompiler) callFlt(x *ast.CallExpr, hint int32) opnd {
	fc := tc.fc
	name := x.Fun.Name
	i, ok := mathFn(name)
	if !ok {
		return tc.userCall(x, slotFloat, true, hint)
	}
	lvl := tc.ta.level()
	var in tinstr
	if mathFns[i].f1 != nil {
		if len(x.Args) != 1 {
			fc.errorf(x, "%s takes one argument", name)
		}
		in = tinstr{op: tMath1, b: tc.toReg(tc.fltOp(x.Args[0], -1, false), tkF, -1), c: int32(i)}
	} else {
		if len(x.Args) != 2 {
			fc.errorf(x, "%s takes two arguments", name)
		}
		l := tc.fltOp(x.Args[0], -1, false)
		tc.hold(&l, tkF, x.Args[1])
		r := tc.fltOp(x.Args[1], -1, false)
		in = tinstr{op: tMath2, b: tc.toReg(l, tkF, -1), c: tc.toReg(r, tkF, -1), aux: int64(i)}
	}
	in.a = tc.dest(lvl, tkF, hint)
	tc.emit(in)
	return reg(in.a)
}

// callPtr compiles a pointer-valued user call.
func (tc *tapeCompiler) callPtr(x *ast.CallExpr, hint int32) opnd {
	return tc.userCall(x, slotPtr, true, hint)
}

// callEffect compiles a call in statement position. A pure user call
// there never consults the memo table (its result is discarded), so it
// counts as bypassed — even when the function is memoizable at value
// call sites.
func (tc *tapeCompiler) callEffect(x *ast.CallExpr) {
	fc := tc.fc
	switch name := x.Fun.Name; name {
	case "free":
		if len(x.Args) != 1 {
			fc.errorf(x, "free takes one argument")
		}
		tc.emit(tinstr{op: tFree, b: tc.toReg(tc.ptrOp(x.Args[0], -1), tkP, -1)})
		return
	case "printf":
		tc.printf(x)
		return
	case "srand":
		tc.emit(tinstr{op: tSrand, b: tc.toReg(tc.intOp(x.Args[0], -1), tkI, -1)})
		return
	}
	if _, ok := mathFn(x.Fun.Name); ok {
		tc.callFlt(x, -1)
		return
	}
	tc.userCall(x, 0, false, -1)
}

// ----------------------------------------------------------------------------
// printf

// printfSite is the site of a tPrintf: the parsed constant format and
// the registers holding one argument per conversion.
type printfSite struct {
	pieces []sema.FormatPiece
	args   regSpan
}

// printf compiles a printf whose format sema.Check has held to its
// arguments: one argument per conversion, evaluated in order;
// arguments past the last conversion are never evaluated.
func (tc *tapeCompiler) printf(x *ast.CallExpr) {
	pieces := sema.ParseFormat(ast.Unparen(x.Args[0]).(*ast.StringLit).Value)
	from := tc.ta.level()
	ai := 1
	for _, pc := range pieces {
		if pc.Verb != 0 {
			tc.argInto(x.Args[ai], verbKind(pc.Verb), false)
			ai++
		}
	}
	tc.tp.printfs = append(tc.tp.printfs, printfSite{pieces: pieces, args: tc.ta.span(from)})
	tc.ta.restore(from)
	tc.emit(tinstr{op: tPrintf, b: int32(len(tc.tp.printfs) - 1)})
}

// verbKind is the register kind of a conversion's argument.
func verbKind(v byte) int {
	switch v {
	case 'f', 'g', 'e':
		return tkF
	case 's':
		return tkP
	}
	return tkI
}

// run formats the arguments and writes the result in one piece.
func (ps *printfSite) run(e *env) {
	var b strings.Builder
	next := ps.args.first
	for _, pc := range ps.pieces {
		if pc.Verb == 0 {
			b.WriteString(pc.Text)
			continue
		}
		k := verbKind(pc.Verb)
		r := next[k]
		next[k]++
		switch pc.Verb {
		case 'd', 'i', 'u':
			fmt.Fprintf(&b, "%d", e.I[r])
		case 'x':
			fmt.Fprintf(&b, "%x", e.I[r])
		case 'c':
			fmt.Fprintf(&b, "%c", rune(e.I[r]))
		case 'f':
			fmt.Fprintf(&b, "%f", e.F[r])
		case 'g':
			fmt.Fprintf(&b, "%g", e.F[r])
		case 'e':
			fmt.Fprintf(&b, "%e", e.F[r])
		case 's':
			b.WriteString(cString(e.P[r]))
		}
	}
	fmt.Fprint(e.p.stdout, b.String())
}

// cString reads a NUL-terminated string from an int segment.
func cString(p mem.Pointer) string {
	if p.IsNull() {
		return "(null)"
	}
	if p.Seg.Freed() {
		// The poisoned backing slice would read as an empty string and
		// mask the use-after-free; trap it like any other stale access.
		rtPanic("use after free of %s", p.Seg.Name)
	}
	var b strings.Builder
	for off := p.Off; off < len(p.Seg.I); off++ {
		c := p.Seg.I[off] //lint:rawmem NUL scan bounded by len() on the same slice; freed checked above
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// ----------------------------------------------------------------------------
// Memory

// mallocSite is the site of a tMalloc: the cell kind and size the cast
// target gives the segment, and its name.
type mallocSite struct {
	kind      mem.CellKind
	cellBytes int64
	name      string
}

// alloc allocates the cells holding b bytes.
func (m *mallocSite) alloc(e *env, b int64) mem.Pointer {
	cells := b / m.cellBytes
	if b%m.cellBytes != 0 {
		cells++
	}
	return e.p.heap.Malloc(m.kind, int(cells), m.name)
}

// malloc compiles (T*)malloc(bytes): the segment kind and cell count
// derive from the cast's element type. sema.Check refuses every malloc
// that is not the operand of a pointer cast.
func (tc *tapeCompiler) malloc(cast *ast.CastExpr, call *ast.CallExpr, hint int32) int32 {
	fc := tc.fc
	if len(call.Args) != 1 {
		fc.errorf(call, "malloc takes one argument")
	}
	lvl := tc.ta.level()
	b := tc.toReg(tc.intOp(call.Args[0], -1), tkI, -1)
	t := fc.typeOf(cast)
	m := mallocSite{name: "malloc@" + fc.cf.name}
	if elem := t.Elem; elem.Kind == types.Struct {
		m.kind, m.cellBytes = mem.CellMixed, int64(elem.CSize)/int64(elem.Cells())
	} else {
		k, err := cellKindOf(elem)
		if err != nil {
			fc.errorf(cast, "%v", err)
		}
		m.kind, m.cellBytes = k, int64(elem.CSize)
		if m.cellBytes == 0 {
			m.cellBytes = 8
		}
	}
	tc.tp.mallocs = append(tc.tp.mallocs, m)
	r := tc.dest(lvl, tkP, hint)
	tc.emit(tinstr{op: tMalloc, a: r, b: int32(len(tc.tp.mallocs) - 1), c: b})
	return r
}

// stringLit materializes a string literal's segment at compile time; the
// tape loads its pointer.
func (tc *tapeCompiler) stringLit(x *ast.StringLit, hint int32) int32 {
	seg := mem.NewSegment(mem.CellInt, len(x.Value)+1, "string")
	for i := 0; i < len(x.Value); i++ {
		seg.I[i] = int64(x.Value[i]) //lint:rawmem fresh segment sized len+1, i < len by the loop bound
	}
	tc.tp.constP = append(tc.tp.constP, mem.Pointer{Seg: seg})
	r := tc.dest(tc.ta.level(), tkP, hint)
	tc.emit(tinstr{op: tConstP, a: r, b: int32(len(tc.tp.constP) - 1)})
	return r
}

func floorDiv(a, b int64) int64 {
	if b == 0 {
		rtPanic("floord division by zero")
	}
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	if b == 0 {
		rtPanic("ceild division by zero")
	}
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// ----------------------------------------------------------------------------
// Effects and traps, for inlining and evaluation order

// hasSideEffects conservatively reports whether evaluating e twice could
// change program behaviour.
func hasSideEffects(fc *funcCompiler, e ast.Expr) bool {
	effects, _ := fc.risk(e)
	return effects
}

// risk reports whether evaluating e can write state (effects: an
// assignment, ++/--, a call of a builtin with effects or of a non-pure
// function) and whether it can trap (a load, a division, pointer
// arithmetic or an int-to-pointer cast, any call).
func (fc *funcCompiler) risk(e ast.Expr) (effects, traps bool) {
	ast.Walk(e, func(n ast.Node) bool {
		switch y := n.(type) {
		case *ast.AssignExpr, *ast.PostfixExpr:
			effects, traps = true, true
		case *ast.UnaryExpr:
			switch y.Op {
			case token.INC, token.DEC:
				effects, traps = true, true
			case token.MUL:
				traps = true
			}
		case *ast.CallExpr:
			traps = true
			if !sema.IsPureBuiltin(y.Fun.Name) || y.Fun.Name == "malloc" || y.Fun.Name == "free" {
				if cf, ok := fc.prog.funcs[y.Fun.Name]; !ok || !cf.pure {
					effects = true
				}
			}
		case *ast.IndexExpr, *ast.MemberExpr:
			traps = true
		case *ast.BinaryExpr:
			if t := y.Checked(); y.Op == token.QUO || y.Op == token.REM || (t != nil && t.IsPtr()) {
				traps = true
			}
		case *ast.CastExpr:
			if t := y.Checked(); t != nil && t.IsPtr() {
				traps = true
			}
		}
		return !effects
	})
	return effects, traps
}

// addrRisk is risk for computing the address of lvalue e: its own cell
// is not read.
func (fc *funcCompiler) addrRisk(e ast.Expr) (effects, traps bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return false, false
	case *ast.IndexExpr:
		subs, base := ast.IndexChain(x)
		if id, ok := base.(*ast.Ident); ok {
			if sym := fc.prog.info.Ref[id]; sym != nil && sym.IsArray() && len(subs) == len(sym.Dims) {
				for _, s := range subs {
					e, t := fc.risk(s)
					effects, traps = effects || e, traps || t
				}
				return effects, traps
			}
		}
		e1, t1 := fc.risk(x.X)
		e2, t2 := fc.risk(x.Index)
		return e1 || e2, t1 || t2
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return fc.risk(x.X)
		}
	case *ast.MemberExpr:
		if x.Arrow {
			return fc.risk(x.X)
		}
		return fc.addrRisk(x.X)
	}
	return fc.risk(e)
}
