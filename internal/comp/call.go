package comp

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

// mathBuiltins maps unary float builtins to Go implementations.
var mathUnary = map[string]func(float64) float64{
	"sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
	"asin": math.Asin, "acos": math.Acos, "atan": math.Atan,
	"exp": math.Exp, "log": math.Log, "log10": math.Log10,
	"sqrt": math.Sqrt, "fabs": math.Abs, "floor": math.Floor,
	"ceil": math.Ceil, "expf": math.Exp, "sqrtf": math.Sqrt,
	"fabsf": math.Abs,
}

var mathBinary = map[string]func(float64, float64) float64{
	"pow": math.Pow, "atan2": math.Atan2, "fmod": math.Mod,
	"fmin": math.Min, "fmax": math.Max,
}

// memoArg is one compiled scalar argument of a memoized call (the
// callee frame slot is resolved at run time — the callee may not have
// been compiled yet when the call site is).
type memoArg struct {
	kind slotKind
	i    intFn
	f    fltFn
}

// tryMemo compiles a memoized pure call: the scalar argument values
// form a memo.Key, a table hit returns the cached result bits, and a
// miss executes the callee once and stores the result. Only functions
// the purity analysis marked memoizable (scalar signature, global-free
// body) qualify, so the cached result is bit-identical to execution.
// Argument expressions are evaluated exactly once, matching the direct
// call path even when they have side effects.
func (fc *funcCompiler) tryMemo(x *ast.CallExpr) (valueFns, bool) {
	if !fc.prog.memoize {
		return valueFns{}, false
	}
	callee, ok := fc.prog.funcs[x.Fun.Name]
	if !ok || !callee.memoizable || len(x.Args) != len(callee.decl.Params) {
		return valueFns{}, false
	}
	// Guard against an externally supplied Options.Memoizable entry the
	// key cannot hold; the call falls back to direct execution.
	if len(x.Args) > memo.MaxArgs {
		return valueFns{}, false
	}
	// The callee's frame layout may not be compiled yet, so the return
	// kind comes from the semantic signature (memoizable guarantees it
	// is scalar).
	sig := fc.prog.info.Funcs[x.Fun.Name]
	if sig == nil || sig.Ret == nil {
		return valueFns{}, false
	}
	var retKind slotKind
	switch sig.Ret.Kind {
	case types.Int:
		retKind = slotInt
	case types.Float:
		retKind = slotFloat
	default:
		return valueFns{}, false
	}
	// Compile the argument evaluators by parameter type, mirroring
	// userCall's setters (memoizable guarantees all-scalar parameters).
	args := make([]memoArg, len(x.Args))
	for i, arg := range x.Args {
		pt, err := fc.paramType(callee, i)
		if err != nil {
			fc.errorf(x, "%v", err)
		}
		switch pt.Kind {
		case types.Int:
			args[i] = memoArg{kind: slotInt, i: fc.integer(arg)}
		case types.Float:
			args[i] = memoArg{kind: slotFloat, f: fc.argFlt(arg, pt)}
		default:
			return valueFns{}, false
		}
	}
	name := x.Fun.Name
	nargs := uint8(len(x.Args))
	seed := memo.FnSeed(name)
	// run executes the callee with the already-evaluated argument bits
	// (the miss path and the no-table fallback).
	run := func(e *env, k *memo.Key) (int64, float64) {
		ne := e.call(callee)
		for j, a := range args {
			if a.kind == slotInt {
				ne.I[callee.params[j].idx] = int64(k.Args[j])
			} else {
				ne.F[callee.params[j].idx] = math.Float64frombits(k.Args[j])
			}
		}
		callee.body(ne)
		ri, rf := ne.retI, ne.retF
		e.fs.pop(ne)
		return ri, rf
	}
	makeKey := func(e *env) memo.Key {
		k := memo.Key{Fn: name, N: nargs}
		for j, a := range args {
			if a.kind == slotInt {
				k.Args[j] = uint64(a.i(e))
			} else {
				k.Args[j] = math.Float64bits(a.f(e))
			}
		}
		return k
	}
	out := valueFns{kind: retKind}
	if retKind == slotFloat {
		out.f = func(e *env) float64 {
			k := makeKey(e)
			tab := e.p.memo
			if tab != nil {
				if v, ok := tab.GetSeeded(seed, k); ok {
					return math.Float64frombits(v)
				}
			}
			_, rf := run(e, &k)
			if tab != nil {
				tab.PutSeeded(seed, k, math.Float64bits(rf))
			}
			return rf
		}
	} else {
		out.i = func(e *env) int64 {
			k := makeKey(e)
			tab := e.p.memo
			if tab != nil {
				if v, ok := tab.GetSeeded(seed, k); ok {
					return int64(v)
				}
			}
			ri, _ := run(e, &k)
			if tab != nil {
				tab.PutSeeded(seed, k, uint64(ri))
			}
			return ri
		}
	}
	return out, true
}

// countsAsBypass reports whether calls of name should increment the
// memo bypass counter: pure calls memoization cannot serve (pointer
// arguments, oversized signatures, global-reading bodies). Only
// consulted when the Program memoizes.
func (fc *funcCompiler) countsAsBypass(name string) bool {
	if !fc.prog.memoize {
		return false
	}
	cf, ok := fc.prog.funcs[name]
	return ok && cf.pure && !cf.memoizable
}

// wrapBypass wraps exec to count a memo bypass for calls of name, or
// returns exec unchanged when such calls are not bypassed pure calls.
func (fc *funcCompiler) wrapBypass(name string, exec func(*env) *env) func(*env) *env {
	if !fc.countsAsBypass(name) {
		return exec
	}
	return func(e *env) *env {
		if t := e.p.memo; t != nil {
			t.Bypass()
		}
		return exec(e)
	}
}

// paramType resolves the declared type of callee's i-th parameter
// (shared by userCall's setters and tryMemo's key builders so the two
// call paths cannot diverge).
func (fc *funcCompiler) paramType(callee *cfunc, i int) (*types.Type, error) {
	return types.FromAST(callee.decl.Params[i].Type, func(tag string) (*types.Type, error) {
		if st, ok := fc.prog.info.Structs[tag]; ok {
			return st, nil
		}
		return nil, fmt.Errorf("unknown struct %s", tag)
	})
}

// argFlt compiles a float argument converted to its parameter type: a
// 4-byte float parameter rounds the value through float32, like every
// other C conversion to float.
func (fc *funcCompiler) argFlt(arg ast.Expr, pt *types.Type) fltFn {
	a := fc.num(arg)
	if pt.CSize != 4 || fc.f32Exact(arg) {
		return a
	}
	return func(e *env) float64 { return float64(float32(a(e))) }
}

// hasSideEffects conservatively reports whether evaluating e twice could
// change program behaviour.
func hasSideEffects(fc *funcCompiler, e ast.Expr) bool {
	effect := false
	ast.Walk(e, func(n ast.Node) bool {
		switch y := n.(type) {
		case *ast.AssignExpr, *ast.PostfixExpr:
			effect = true
		case *ast.UnaryExpr:
			if y.Op == token.INC || y.Op == token.DEC {
				effect = true
			}
		case *ast.CallExpr:
			if !sema.IsPureBuiltin(y.Fun.Name) || y.Fun.Name == "malloc" || y.Fun.Name == "free" {
				if cf, ok := fc.prog.funcs[y.Fun.Name]; !ok || !cf.pure {
					effect = true
				}
			}
		}
		return !effect
	})
	return effect
}

// callFlt compiles a float-returning call.
func (fc *funcCompiler) callFlt(x *ast.CallExpr) fltFn {
	name := x.Fun.Name
	if f1, ok := mathUnary[name]; ok {
		if len(x.Args) != 1 {
			fc.errorf(x, "%s takes one argument", name)
		}
		a := fc.num(x.Args[0])
		return func(e *env) float64 { return f1(a(e)) }
	}
	if f2, ok := mathBinary[name]; ok {
		if len(x.Args) != 2 {
			fc.errorf(x, "%s takes two arguments", name)
		}
		a, b := fc.num(x.Args[0]), fc.num(x.Args[1])
		return func(e *env) float64 { return f2(a(e), b(e)) }
	}
	if inl, ok := fc.inlineCall(x); ok {
		return fc.flt(inl)
	}
	if m, ok := fc.tryMemo(x); ok && m.kind == slotFloat {
		return m.f
	}
	exec := fc.wrapBypass(name, fc.userCall(x))
	return func(e *env) float64 {
		ne := exec(e)
		v := ne.retF
		e.fs.pop(ne)
		return v
	}
}

// callInt compiles an int-returning call.
func (fc *funcCompiler) callInt(x *ast.CallExpr) intFn {
	name := x.Fun.Name
	switch name {
	case "abs":
		a := fc.integer(x.Args[0])
		return func(e *env) int64 {
			v := a(e)
			if v < 0 {
				return -v
			}
			return v
		}
	case "floord":
		a, b := fc.integer(x.Args[0]), fc.integer(x.Args[1])
		return func(e *env) int64 { return floorDiv(a(e), b(e)) }
	case "ceild":
		a, b := fc.integer(x.Args[0]), fc.integer(x.Args[1])
		return func(e *env) int64 { return ceilDiv(a(e), b(e)) }
	case "imin":
		a, b := fc.integer(x.Args[0]), fc.integer(x.Args[1])
		return func(e *env) int64 {
			va, vb := a(e), b(e)
			if va < vb {
				return va
			}
			return vb
		}
	case "imax":
		a, b := fc.integer(x.Args[0]), fc.integer(x.Args[1])
		return func(e *env) int64 {
			va, vb := a(e), b(e)
			if va > vb {
				return va
			}
			return vb
		}
	case "rand":
		// Deterministic LCG so runs are reproducible.
		return func(e *env) int64 { return e.p.nextRand() }
	case "printf":
		eff := fc.printfCall(x)
		return func(e *env) int64 {
			eff(e)
			return 0
		}
	case "clock":
		return func(*env) int64 { return 0 }
	}
	if _, ok := mathUnary[name]; ok {
		f := fc.callFlt(x)
		return func(e *env) int64 { return int64(f(e)) }
	}
	if inl, ok := fc.inlineCall(x); ok {
		return fc.intExpr(inl)
	}
	if m, ok := fc.tryMemo(x); ok && m.kind == slotInt {
		return m.i
	}
	exec := fc.wrapBypass(name, fc.userCall(x))
	return func(e *env) int64 {
		ne := exec(e)
		v := ne.retI
		e.fs.pop(ne)
		return v
	}
}

// callPtr compiles a pointer-returning user call.
func (fc *funcCompiler) callPtr(x *ast.CallExpr) ptrFn {
	if inl, ok := fc.inlineCall(x); ok {
		return fc.ptr(inl)
	}
	exec := fc.wrapBypass(x.Fun.Name, fc.userCall(x))
	return func(e *env) mem.Pointer {
		ne := exec(e)
		v := ne.retP
		e.fs.pop(ne)
		return v
	}
}

// callEffect compiles a call in statement position.
func (fc *funcCompiler) callEffect(x *ast.CallExpr) func(*env) {
	name := x.Fun.Name
	switch name {
	case "free":
		if len(x.Args) != 1 {
			fc.errorf(x, "free takes one argument")
		}
		p := fc.ptr(x.Args[0])
		return func(e *env) {
			if err := e.p.heap.Free(p(e)); err != nil {
				rtPanic("%v", err)
			}
		}
	case "printf":
		return fc.printfCall(x)
	case "srand":
		a := fc.integer(x.Args[0])
		return func(e *env) { e.p.randState.Store(uint64(a(e))) }
	case "malloc":
		fc.errorf(x, "malloc result must be used (cast and assign it)")
	}
	if _, ok := mathUnary[name]; ok {
		f := fc.callFlt(x)
		return func(e *env) { f(e) }
	}
	if _, ok := mathBinary[name]; ok {
		f := fc.callFlt(x)
		return func(e *env) { f(e) }
	}
	exec := fc.userCall(x)
	if cf, ok := fc.prog.funcs[name]; ok && fc.prog.memoize && cf.pure {
		// A pure call in statement position never consults the table
		// (its result is discarded), so it counts as bypassed — even
		// when the function is memoizable at value call sites.
		return func(e *env) {
			if t := e.p.memo; t != nil {
				t.Bypass()
			}
			e.fs.pop(exec(e))
		}
	}
	return func(e *env) { e.fs.pop(exec(e)) }
}

// userCall compiles a call of a user-defined function into a closure
// that runs the callee on a frame pushed on the caller's stack and
// returns the finished activation; the call site reads the result it
// wants and pops it.
func (fc *funcCompiler) userCall(x *ast.CallExpr) func(*env) *env {
	name := x.Fun.Name
	callee, ok := fc.prog.funcs[name]
	if !ok {
		fc.errorf(x, "call of unknown function %s", name)
	}
	if len(x.Args) != len(callee.decl.Params) {
		fc.errorf(x, "function %s expects %d arguments, got %d", name, len(callee.decl.Params), len(x.Args))
	}
	// Compile argument closures by the parameter's slot kind. Parameter
	// slot layout is params-first, mirroring funcCompiler.compile.
	type argSetter func(caller *env, ne *env)
	var setters []argSetter
	for i, arg := range x.Args {
		pt, err := fc.paramType(callee, i)
		if err != nil {
			fc.errorf(x, "%v", err)
		}
		k, err := slotForType(pt)
		if err != nil {
			fc.errorf(x, "%v", err)
		}
		idx := i
		switch k {
		case slotInt:
			a := fc.integer(arg)
			setters = append(setters, func(c *env, ne *env) { ne.I[callee.params[idx].idx] = a(c) })
		case slotFloat:
			a := fc.argFlt(arg, pt)
			setters = append(setters, func(c *env, ne *env) { ne.F[callee.params[idx].idx] = a(c) })
		case slotPtr:
			a := fc.ptr(arg)
			setters = append(setters, func(c *env, ne *env) { ne.P[callee.params[idx].idx] = a(c) })
		}
	}
	return func(e *env) *env {
		ne := e.call(callee)
		for _, s := range setters {
			s(e, ne)
		}
		callee.body(ne)
		return ne
	}
}

// printfCall compiles a printf with a constant format string.
func (fc *funcCompiler) printfCall(x *ast.CallExpr) func(*env) {
	if len(x.Args) == 0 {
		fc.errorf(x, "printf needs a format string")
	}
	lit, ok := stripParens(x.Args[0]).(*ast.StringLit)
	if !ok {
		fc.errorf(x, "printf format must be a string literal")
	}
	format := lit.Value
	type piece struct {
		text string
		verb byte // 0 for plain text
		long bool
	}
	var pieces []piece
	i := 0
	for i < len(format) {
		j := strings.IndexByte(format[i:], '%')
		if j < 0 {
			pieces = append(pieces, piece{text: format[i:]})
			break
		}
		if j > 0 {
			pieces = append(pieces, piece{text: format[i : i+j]})
		}
		i += j + 1
		// skip flags/width/precision
		long := false
		for i < len(format) && (format[i] == '-' || format[i] == '+' || format[i] == ' ' ||
			format[i] == '0' || format[i] == '.' || (format[i] >= '0' && format[i] <= '9')) {
			i++
		}
		for i < len(format) && format[i] == 'l' {
			long = true
			i++
		}
		if i >= len(format) {
			break
		}
		v := format[i]
		i++
		if v == '%' {
			pieces = append(pieces, piece{text: "%"})
			continue
		}
		pieces = append(pieces, piece{verb: v, long: long})
	}
	// Compile value closures for each verb in order.
	ai := 1
	type valFn struct {
		verb byte
		i    intFn
		f    fltFn
		p    ptrFn
	}
	var vals []valFn
	for _, pc := range pieces {
		if pc.verb == 0 {
			continue
		}
		if ai >= len(x.Args) {
			fc.errorf(x, "printf: not enough arguments for format %q", format)
		}
		arg := x.Args[ai]
		ai++
		switch pc.verb {
		case 'd', 'i', 'u', 'x', 'c':
			vals = append(vals, valFn{verb: pc.verb, i: fc.integer(arg)})
		case 'f', 'g', 'e':
			vals = append(vals, valFn{verb: pc.verb, f: fc.num(arg)})
		case 's':
			vals = append(vals, valFn{verb: pc.verb, p: fc.ptr(arg)})
		default:
			fc.errorf(x, "printf: unsupported verb %%%c", pc.verb)
		}
	}
	return func(e *env) {
		var b strings.Builder
		vi := 0
		for _, pc := range pieces {
			if pc.verb == 0 {
				b.WriteString(pc.text)
				continue
			}
			v := vals[vi]
			vi++
			switch pc.verb {
			case 'd', 'i', 'u':
				fmt.Fprintf(&b, "%d", v.i(e))
			case 'x':
				fmt.Fprintf(&b, "%x", v.i(e))
			case 'c':
				fmt.Fprintf(&b, "%c", rune(v.i(e)))
			case 'f':
				fmt.Fprintf(&b, "%f", v.f(e))
			case 'g':
				fmt.Fprintf(&b, "%g", v.f(e))
			case 'e':
				fmt.Fprintf(&b, "%e", v.f(e))
			case 's':
				b.WriteString(cString(v.p(e)))
			}
		}
		fmt.Fprint(e.p.stdout, b.String())
	}
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
