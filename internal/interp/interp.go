// Package interp is a boxed-value, tree-walking interpreter for checked
// mini-C programs. It executes everything sequentially, serving as the
// semantic oracle: the compiler (internal/comp) with either statement
// engine, any backend and any team size must produce the same observable results. Tests
// compare the two on the paper's applications and on generated programs.
//
// OpenMP pragmas have no scheduling effect here, but New validates every
// omp parallel-for pragma with the compiler's own reader (internal/omp):
// a malformed one — a clause binding no update, a non-canonical loop,
// an unknown schedule — fails the load with the compiler's text instead
// of being silently ignored. Execution of the loop itself
// stays sequential — the oracle defines the serial accumulation order,
// which integer reductions must match bit-for-bit on every backend and
// team size (floats are only guaranteed to match on inline/serial runs;
// parallel float reductions follow the runtime's fixed-combine-order
// determinism contract instead).
package interp

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/omp"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// Value is a boxed runtime value.
type Value struct {
	K types.Kind // Int, Float or Ptr (Void for none)
	I int64
	F float64
	P mem.Pointer
}

// IntV boxes an int.
func IntV(v int64) Value { return Value{K: types.Int, I: v} }

// FloatV boxes a float.
func FloatV(v float64) Value { return Value{K: types.Float, F: v} }

// PtrV boxes a pointer.
func PtrV(p mem.Pointer) Value { return Value{K: types.Ptr, P: p} }

// AsFloat converts the value to float64.
func (v Value) AsFloat() float64 {
	if v.K == types.Float {
		return v.F
	}
	return float64(v.I)
}

// AsInt converts the value to int64 (C truncation).
func (v Value) AsInt() int64 {
	if v.K == types.Float {
		return int64(v.F)
	}
	return v.I
}

// Truthy reports C truth.
func (v Value) Truthy() bool {
	switch v.K {
	case types.Float:
		return v.F != 0
	case types.Ptr:
		return !v.P.IsNull()
	default:
		return v.I != 0
	}
}

// Interp executes a checked file.
type Interp struct {
	info    *sema.Info
	globals map[*sema.Symbol]*cell
	heap    mem.Heap
	stdout  io.Writer
	rand    uint64
	// depth counts the live activations (see mem.MaxCallDepth).
	depth int
}

// cell is one scalar storage location or an array/struct segment handle.
type cell struct {
	v   Value
	sym *sema.Symbol
}

type frame struct {
	vars map[*sema.Symbol]*cell
}

type ctrlKind int

const (
	ctrlNext ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type ctrl struct {
	kind ctrlKind
	val  Value
}

// New loads a program into a fresh interpreter. A malformed omp
// parallel-for pragma anywhere in the program is a load error.
func New(info *sema.Info, stdout io.Writer) (*Interp, error) {
	if stdout == nil {
		stdout = io.Discard
	}
	if err := checkPragmas(info); err != nil {
		return nil, err
	}
	in := &Interp{info: info, globals: map[*sema.Symbol]*cell{}, stdout: stdout}
	if err := in.Reset(); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset reinitializes globals. A global array over mem.MaxSegmentCells
// is an "interp runtime error", as a trap during a call would be.
func (in *Interp) Reset() (err error) {
	defer func() {
		if r := recover(); r != nil {
			trap, ok := r.(mem.Trap)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("interp runtime error: %s", trap)
		}
	}()
	in.heap.Reset()
	for _, g := range in.info.Globals {
		c := &cell{sym: g}
		if g.IsArray() || g.Type.Kind == types.Struct {
			c.v = PtrV(mem.Pointer{Seg: mem.NewSegment(cellKind(g.ElemType()), g.Cells(), "global "+g.Name)})
		} else if g.Decl != nil && g.Decl.Init != nil {
			v, f, ok := sema.ConstScalar(g.Type, g.Decl.Init)
			switch {
			case !ok:
				return fmt.Errorf("global %s: non-constant initializer", g.Name)
			case g.Type.Kind == types.Float:
				c.v = FloatV(f)
			default:
				c.v = IntV(v)
			}
		} else {
			c.v = zeroOf(g.Type)
		}
		in.globals[g] = c
	}
	return nil
}

func zeroOf(t *types.Type) Value {
	switch t.Kind {
	case types.Float:
		return FloatV(0)
	case types.Ptr:
		return PtrV(mem.Pointer{})
	default:
		return IntV(0)
	}
}

func cellKind(t *types.Type) mem.CellKind {
	switch t.Kind {
	case types.Float:
		return mem.CellFloat
	case types.Ptr:
		return mem.CellPtr
	case types.Struct:
		return mem.CellMixed
	default:
		return mem.CellInt
	}
}

// RunMain executes main() and returns its int result.
func (in *Interp) RunMain() (ret int64, err error) {
	v, err := in.Call("main")
	if err != nil {
		return 0, err
	}
	return v.AsInt(), nil
}

// Call executes a named function with boxed arguments.
func (in *Interp) Call(name string, args ...Value) (v Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprint(r)
			if re, ok := r.(runtime.Error); ok {
				// Go's own text already starts with "runtime error: ".
				msg = strings.TrimPrefix(re.Error(), "runtime error: ")
			}
			err = fmt.Errorf("interp runtime error: %s", msg)
		}
	}()
	in.depth = 0 // a trapped earlier call left its activations counted
	v, _ = in.call(name, args)
	return v, nil
}

// GlobalPtr returns a global pointer/array value for verification.
func (in *Interp) GlobalPtr(name string) (mem.Pointer, error) {
	g, ok := in.info.GlobalMap[name]
	if !ok {
		return mem.Pointer{}, fmt.Errorf("no global %s", name)
	}
	return in.globals[g].v.P, nil
}

// GlobalValue returns a global scalar value for verification.
func (in *Interp) GlobalValue(name string) (Value, error) {
	g, ok := in.info.GlobalMap[name]
	if !ok {
		return Value{}, fmt.Errorf("no global %s", name)
	}
	return in.globals[g].v, nil
}

func (in *Interp) call(name string, args []Value) (Value, ctrl) {
	fd := in.info.File.LookupFunc(name)
	if fd == nil || fd.Body == nil {
		panic(fmt.Sprintf("call of undefined function %s", name))
	}
	if in.depth >= mem.MaxCallDepth {
		panic(mem.StackOverflow())
	}
	in.depth++
	fr := &frame{vars: map[*sema.Symbol]*cell{}}
	// Bind parameters: FuncLocals lists params first in order.
	locals := in.info.FuncLocals[name]
	pi := 0
	for _, sym := range locals {
		if sym.Kind != sema.SymParam {
			continue
		}
		c := &cell{sym: sym}
		if pi < len(args) {
			c.v = args[pi]
		} else {
			c.v = zeroOf(sym.Type)
		}
		pi++
		fr.vars[sym] = c
	}
	c := in.stmts(fd.Body.List, fr)
	in.depth--
	if c.kind == ctrlReturn {
		return c.val, ctrl{}
	}
	return Value{}, ctrl{}
}

func (in *Interp) stmts(list []ast.Stmt, fr *frame) ctrl {
	for _, s := range list {
		if c := in.stmt(s, fr); c.kind != ctrlNext {
			return c
		}
	}
	return ctrl{}
}

// checkPragmas binds every omp parallel-for pragma of the program to
// the loop it annotates with omp.Bind — the compiler's validation — in
// the order the compiler meets them, so a malformed pragma fails at
// load with the compiler's text, even in a function main never calls.
func checkPragmas(info *sema.Info) error {
	var err error
	var visit ast.Visitor
	visit = func(n ast.Node) bool {
		var list []ast.Stmt
		switch x := n.(type) {
		case *ast.BlockStmt:
			list = x.List
		case *ast.CaseClause:
			list = x.Body
		default:
			return err == nil
		}
		for i, s := range list {
			if f, ok := s.(*ast.ForStmt); ok && i > 0 && err == nil {
				if pr, ok := list[i-1].(*ast.PragmaStmt); ok {
					_, err = omp.Bind(info, pr, f)
				}
			}
			ast.Walk(s, visit)
		}
		return false
	}
	ast.Walk(info.File, visit)
	return err
}

func (in *Interp) stmt(s ast.Stmt, fr *frame) ctrl {
	switch x := s.(type) {
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			in.declare(d, fr)
		}
	case *ast.ExprStmt:
		in.eval(x.X, fr)
	case *ast.EmptyStmt, *ast.PragmaStmt:
	case *ast.BlockStmt:
		return in.stmts(x.List, fr)
	case *ast.IfStmt:
		if in.eval(x.Cond, fr).Truthy() {
			return in.stmt(x.Then, fr)
		}
		if x.Else != nil {
			return in.stmt(x.Else, fr)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			in.stmt(x.Init, fr)
		}
		for x.Cond == nil || in.eval(x.Cond, fr).Truthy() {
			c := in.stmt(x.Body, fr)
			if c.kind == ctrlBreak {
				break
			}
			if c.kind == ctrlReturn {
				return c
			}
			if x.Post != nil {
				in.eval(x.Post, fr)
			}
		}
	case *ast.WhileStmt:
		for in.eval(x.Cond, fr).Truthy() {
			c := in.stmt(x.Body, fr)
			if c.kind == ctrlBreak {
				break
			}
			if c.kind == ctrlReturn {
				return c
			}
		}
	case *ast.DoStmt:
		for {
			c := in.stmt(x.Body, fr)
			if c.kind == ctrlBreak {
				break
			}
			if c.kind == ctrlReturn {
				return c
			}
			if !in.eval(x.Cond, fr).Truthy() {
				break
			}
		}
	case *ast.ReturnStmt:
		var v Value
		if x.X != nil {
			v = in.eval(x.X, fr)
			// round float returns of float(4) functions like C
			if sig := in.sigOfReturn(x); sig != nil && sig.Ret.Kind == types.Float && sig.Ret.CSize == 4 {
				v = FloatV(float64(float32(v.AsFloat())))
			}
		}
		return ctrl{kind: ctrlReturn, val: v}
	case *ast.BreakStmt:
		return ctrl{kind: ctrlBreak}
	case *ast.ContinueStmt:
		return ctrl{kind: ctrlContinue}
	case *ast.SwitchStmt:
		return in.switchStmt(x, fr)
	}
	return ctrl{}
}

// sigOfReturn finds the signature of the function containing the return
// (by scanning declarations; cached lookups are not worth it here).
func (in *Interp) sigOfReturn(ret *ast.ReturnStmt) *sema.Sig {
	for _, d := range in.info.File.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		found := false
		ast.Walk(fd.Body, func(n ast.Node) bool {
			if n == ast.Node(ret) {
				found = true
			}
			return !found
		})
		if found {
			return in.info.Funcs[fd.Name]
		}
	}
	return nil
}

func (in *Interp) switchStmt(x *ast.SwitchStmt, fr *frame) ctrl {
	v := in.eval(x.Tag, fr).AsInt()
	start := -1
	for i, c := range x.Cases {
		if c.Value != nil {
			if cv, ok := sema.ConstInt(c.Value); ok && cv == v {
				start = i
				break
			}
		}
	}
	if start < 0 {
		for i, c := range x.Cases {
			if c.Value == nil {
				start = i
				break
			}
		}
	}
	if start < 0 {
		return ctrl{}
	}
	for i := start; i < len(x.Cases); i++ {
		c := in.stmts(x.Cases[i].Body, fr)
		if c.kind == ctrlBreak {
			return ctrl{}
		}
		if c.kind == ctrlReturn || c.kind == ctrlContinue {
			return c
		}
	}
	return ctrl{}
}

func (in *Interp) declare(d *ast.VarDecl, fr *frame) {
	sym := in.symForDecl(d)
	if sym == nil {
		panic(fmt.Sprintf("no symbol for declaration of %s", d.Name))
	}
	c := &cell{sym: sym}
	if sym.IsArray() {
		c.v = PtrV(mem.Pointer{Seg: mem.NewSegment(cellKind(sym.ElemType()), sym.Cells(), "arr "+d.Name)})
	} else if sym.Type.Kind == types.Struct {
		c.v = PtrV(mem.Pointer{Seg: mem.NewSegment(mem.CellMixed, sym.Cells(), "struct "+d.Name)})
	} else if d.Init != nil {
		c.v = in.convert(in.eval(d.Init, fr), sym.Type)
	} else {
		c.v = zeroOf(sym.Type)
	}
	fr.vars[sym] = c
}

func (in *Interp) symForDecl(d *ast.VarDecl) *sema.Symbol {
	for _, syms := range in.info.FuncLocals {
		for _, s := range syms {
			if s.Decl == d {
				return s
			}
		}
	}
	return nil
}

// convert adapts a value to a declared type (C float rounding).
func (in *Interp) convert(v Value, t *types.Type) Value {
	switch t.Kind {
	case types.Float:
		f := v.AsFloat()
		if t.CSize == 4 {
			f = float64(float32(f))
		}
		return FloatV(f)
	case types.Int:
		return IntV(v.AsInt())
	case types.Ptr:
		if v.K != types.Ptr {
			if v.AsInt() == 0 {
				return PtrV(mem.Pointer{})
			}
			panic("non-pointer assigned to pointer")
		}
		return v
	}
	return v
}

// lvalue resolution: either a frame/global cell or a memory location.
type location struct {
	cell *cell
	ptr  mem.Pointer
	kind mem.CellKind
	t    *types.Type
}

func (in *Interp) lvalue(e ast.Expr, fr *frame) location {
	switch x := e.(type) {
	case *ast.Ident:
		sym := in.info.Ref[x]
		if sym == nil {
			panic("unresolved " + x.Name)
		}
		if c, ok := fr.vars[sym]; ok {
			return location{cell: c, t: sym.Type}
		}
		if c, ok := in.globals[sym]; ok {
			return location{cell: c, t: sym.Type}
		}
		panic("no storage for " + x.Name)
	case *ast.ParenExpr:
		return in.lvalue(x.X, fr)
	case *ast.IndexExpr:
		subs, base := ast.IndexChain(x)
		if id, ok := base.(*ast.Ident); ok {
			sym := in.info.Ref[id]
			if sym != nil && sym.IsArray() && len(subs) == len(sym.Dims) {
				p := in.load(id, fr).P
				off := int64(0)
				stride := int64(sym.ElemType().Cells())
				for i := len(subs) - 1; i >= 0; i-- {
					off += in.eval(subs[i], fr).AsInt() * stride
					stride *= int64(sym.Dims[i])
				}
				et := sym.ElemType()
				return location{ptr: p.Add(off), kind: cellKind(et), t: et}
			}
		}
		bt := in.typeOf(x.X)
		p := in.eval(x.X, fr).P
		idx := in.eval(x.Index, fr).AsInt()
		return location{ptr: p.Add(idx * int64(bt.Elem.Cells())), kind: cellKind(bt.Elem), t: bt.Elem}
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			bt := in.typeOf(x.X)
			p := in.eval(x.X, fr).P
			return location{ptr: p, kind: cellKind(bt.Elem), t: bt.Elem}
		}
	case *ast.MemberExpr:
		st, fld := in.fieldOf(x)
		_ = st
		var base mem.Pointer
		if x.Arrow {
			base = in.eval(x.X, fr).P
		} else {
			base = in.structBase(x.X, fr)
		}
		return location{ptr: base.Add(int64(fld.Offset)), kind: cellKind(fld.Type), t: fld.Type}
	}
	panic(fmt.Sprintf("not an lvalue: %T", e))
}

func (in *Interp) structBase(e ast.Expr, fr *frame) mem.Pointer {
	switch x := e.(type) {
	case *ast.Ident:
		return in.load(x, fr).P
	case *ast.ParenExpr:
		return in.structBase(x.X, fr)
	case *ast.IndexExpr:
		loc := in.lvalue(x, fr)
		return loc.ptr
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return in.eval(x.X, fr).P
		}
	case *ast.MemberExpr:
		_, fld := in.fieldOf(x)
		var base mem.Pointer
		if x.Arrow {
			base = in.eval(x.X, fr).P
		} else {
			base = in.structBase(x.X, fr)
		}
		return base.Add(int64(fld.Offset))
	}
	panic("unsupported struct base")
}

func (in *Interp) fieldOf(x *ast.MemberExpr) (*types.Type, types.Field) {
	bt := in.typeOf(x.X)
	st := bt
	if x.Arrow {
		st = bt.Elem
	}
	for _, f := range st.Fields {
		if f.Name == x.Name {
			return st, f
		}
	}
	panic("no field " + x.Name)
}

func (loc location) get() Value {
	if loc.cell != nil {
		return loc.cell.v
	}
	switch loc.kind {
	case mem.CellFloat:
		return FloatV(loc.ptr.LoadFloat())
	case mem.CellPtr:
		return PtrV(loc.ptr.LoadPtr())
	default:
		return IntV(loc.ptr.LoadInt())
	}
}

func (in *Interp) set(loc location, v Value) {
	if loc.cell != nil {
		loc.cell.v = in.convert(v, loc.t)
		return
	}
	switch loc.kind {
	case mem.CellFloat:
		f := v.AsFloat()
		if loc.t != nil && loc.t.CSize == 4 {
			f = float64(float32(f))
		}
		loc.ptr.StoreFloat(f)
	case mem.CellPtr:
		loc.ptr.StorePtr(v.P)
	default:
		loc.ptr.StoreInt(v.AsInt())
	}
}

func (in *Interp) typeOf(e ast.Expr) *types.Type {
	t := e.Checked()
	if t == nil {
		panic("untyped expression")
	}
	return t
}

func (in *Interp) load(id *ast.Ident, fr *frame) Value {
	sym := in.info.Ref[id]
	if sym == nil {
		panic("unresolved " + id.Name)
	}
	if c, ok := fr.vars[sym]; ok {
		return c.v
	}
	if c, ok := in.globals[sym]; ok {
		return c.v
	}
	panic("no storage for " + id.Name)
}

func (in *Interp) eval(e ast.Expr, fr *frame) Value {
	switch x := e.(type) {
	case *ast.IntLit:
		return IntV(x.Value)
	case *ast.FloatLit:
		return FloatV(x.Value)
	case *ast.CharLit:
		return IntV(x.Value)
	case *ast.StringLit:
		seg := mem.NewSegment(mem.CellInt, len(x.Value)+1, "string")
		for i := 0; i < len(x.Value); i++ {
			seg.I[i] = int64(x.Value[i]) //lint:rawmem fresh segment sized len+1, i < len by the loop bound
		}
		return PtrV(mem.Pointer{Seg: seg})
	case *ast.Ident:
		return in.load(x, fr)
	case *ast.ParenExpr:
		return in.eval(x.X, fr)
	case *ast.BinaryExpr:
		return in.binary(x, fr)
	case *ast.UnaryExpr:
		return in.unary(x, fr)
	case *ast.PostfixExpr:
		loc := in.lvalue(x.X, fr)
		old := loc.get()
		d := int64(1)
		if x.Op == token.DEC {
			d = -1
		}
		in.set(loc, addValue(old, d, in.typeOf(x.X)))
		return old
	case *ast.AssignExpr:
		return in.assign(x, fr)
	case *ast.CondExpr:
		if in.eval(x.Cond, fr).Truthy() {
			return in.eval(x.Then, fr)
		}
		return in.eval(x.Else, fr)
	case *ast.CallExpr:
		return in.callExpr(x, fr)
	case *ast.IndexExpr:
		// partial array indexing yields a pointer
		subs, base := ast.IndexChain(x)
		if id, ok := base.(*ast.Ident); ok {
			sym := in.info.Ref[id]
			if sym != nil && sym.IsArray() && len(subs) < len(sym.Dims) {
				p := in.load(id, fr).P
				stride := int64(sym.ElemType().Cells())
				for _, d := range sym.Dims[len(subs):] {
					stride *= int64(d)
				}
				off := int64(0)
				rowStride := stride
				for i := len(subs) - 1; i >= 0; i-- {
					off += in.eval(subs[i], fr).AsInt() * rowStride
					rowStride *= int64(sym.Dims[i])
				}
				return PtrV(p.Add(off))
			}
		}
		loc := in.lvalue(x, fr)
		return loc.get()
	case *ast.MemberExpr:
		_, fld := in.fieldOf(x)
		if fld.Count > 1 {
			// array field decays
			var base mem.Pointer
			if x.Arrow {
				base = in.eval(x.X, fr).P
			} else {
				base = in.structBase(x.X, fr)
			}
			return PtrV(base.Add(int64(fld.Offset)))
		}
		return in.lvalue(x, fr).get()
	case *ast.CastExpr:
		t := in.typeOf(x)
		// (T*)malloc(n)
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok && call.Fun.Name == "malloc" && t.IsPtr() {
			bytes := in.eval(call.Args[0], fr).AsInt()
			elem := t.Elem
			var kind mem.CellKind
			cellBytes := int64(elem.CSize)
			if elem.Kind == types.Struct {
				kind = mem.CellMixed
				cellBytes = int64(elem.CSize) / int64(elem.Cells())
			} else {
				kind = cellKind(elem)
			}
			if cellBytes == 0 {
				cellBytes = 8
			}
			cells := bytes / cellBytes
			if bytes%cellBytes != 0 {
				cells++
			}
			return PtrV(in.heap.Malloc(kind, int(cells), "malloc"))
		}
		return in.convert(in.eval(x.X, fr), t)
	case *ast.SizeofExpr:
		if x.Type != nil {
			t, err := sema.FromAST(x.Type, func(tag string) (*types.Type, error) {
				if st, ok := in.info.Structs[tag]; ok {
					return st, nil
				}
				return nil, fmt.Errorf("unknown struct %s", tag)
			})
			if err != nil {
				panic(err)
			}
			return IntV(int64(t.CSize))
		}
		return IntV(int64(in.typeOf(x.X).CSize))
	}
	panic(fmt.Sprintf("unsupported expression %T", e))
}

func addValue(v Value, d int64, t *types.Type) Value {
	switch v.K {
	case types.Float:
		return FloatV(v.F + float64(d))
	case types.Ptr:
		var stride int64 = 1
		if t != nil {
			stride = int64(t.Elem.Cells())
		}
		return PtrV(v.P.Add(d * stride))
	default:
		return IntV(v.I + d)
	}
}

func (in *Interp) binary(x *ast.BinaryExpr, fr *frame) Value {
	switch x.Op {
	case token.LAND:
		if !in.eval(x.X, fr).Truthy() {
			return IntV(0)
		}
		return IntV(b2i(in.eval(x.Y, fr).Truthy()))
	case token.LOR:
		if in.eval(x.X, fr).Truthy() {
			return IntV(1)
		}
		return IntV(b2i(in.eval(x.Y, fr).Truthy()))
	}
	a := in.eval(x.X, fr)
	b := in.eval(x.Y, fr)
	switch x.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return IntV(b2i(compare(a, b, x.Op)))
	}
	// pointer arithmetic
	ta, tb := in.typeOf(x.X), in.typeOf(x.Y)
	if ta.IsPtr() || tb.IsPtr() {
		switch {
		case ta.IsPtr() && tb.Kind == types.Int:
			stride := strideOf(ta)
			if x.Op == token.SUB {
				return PtrV(a.P.Add(-b.AsInt() * stride))
			}
			return PtrV(a.P.Add(b.AsInt() * stride))
		case tb.IsPtr() && ta.Kind == types.Int && x.Op == token.ADD:
			return PtrV(b.P.Add(a.AsInt() * strideOf(tb)))
		case ta.IsPtr() && tb.IsPtr() && x.Op == token.SUB:
			d, err := a.P.DiffChecked(b.P)
			if err != nil {
				panic(err)
			}
			return IntV(d / strideOf(ta))
		}
		panic("bad pointer arithmetic")
	}
	if a.K == types.Float || b.K == types.Float {
		af, bf := a.AsFloat(), b.AsFloat()
		switch x.Op {
		case token.ADD:
			return FloatV(af + bf)
		case token.SUB:
			return FloatV(af - bf)
		case token.MUL:
			return FloatV(af * bf)
		case token.QUO:
			return FloatV(af / bf)
		}
		panic("bad float op " + x.Op.String())
	}
	ai, bi := a.I, b.I
	switch x.Op {
	case token.ADD:
		return IntV(ai + bi)
	case token.SUB:
		return IntV(ai - bi)
	case token.MUL:
		return IntV(ai * bi)
	case token.QUO:
		if bi == 0 {
			panic("integer division by zero")
		}
		return IntV(ai / bi)
	case token.REM:
		if bi == 0 {
			panic("integer modulo by zero")
		}
		return IntV(ai % bi)
	case token.AND:
		return IntV(ai & bi)
	case token.OR:
		return IntV(ai | bi)
	case token.XOR:
		return IntV(ai ^ bi)
	case token.SHL:
		return IntV(ai << uint(bi))
	case token.SHR:
		return IntV(ai >> uint(bi))
	}
	panic("bad int op " + x.Op.String())
}

func strideOf(t *types.Type) int64 { return int64(t.Elem.Cells()) }

func compare(a, b Value, op token.Kind) bool {
	if a.K == types.Ptr || b.K == types.Ptr {
		switch op {
		case token.EQL:
			return a.P == b.P
		case token.NEQ:
			return a.P != b.P
		case token.LSS:
			return a.P.Off < b.P.Off
		case token.LEQ:
			return a.P.Off <= b.P.Off
		case token.GTR:
			return a.P.Off > b.P.Off
		default:
			return a.P.Off >= b.P.Off
		}
	}
	if a.K == types.Float || b.K == types.Float {
		af, bf := a.AsFloat(), b.AsFloat()
		switch op {
		case token.EQL:
			return af == bf
		case token.NEQ:
			return af != bf
		case token.LSS:
			return af < bf
		case token.LEQ:
			return af <= bf
		case token.GTR:
			return af > bf
		default:
			return af >= bf
		}
	}
	switch op {
	case token.EQL:
		return a.I == b.I
	case token.NEQ:
		return a.I != b.I
	case token.LSS:
		return a.I < b.I
	case token.LEQ:
		return a.I <= b.I
	case token.GTR:
		return a.I > b.I
	default:
		return a.I >= b.I
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (in *Interp) unary(x *ast.UnaryExpr, fr *frame) Value {
	switch x.Op {
	case token.SUB:
		v := in.eval(x.X, fr)
		if v.K == types.Float {
			return FloatV(-v.F)
		}
		return IntV(-v.I)
	case token.NOT:
		return IntV(b2i(!in.eval(x.X, fr).Truthy()))
	case token.TILDE:
		return IntV(^in.eval(x.X, fr).AsInt())
	case token.MUL:
		return in.lvalue(x, fr).get()
	case token.AND:
		loc := in.lvalue(x.X, fr)
		if loc.cell != nil {
			panic("address of register variable")
		}
		return PtrV(loc.ptr)
	case token.INC, token.DEC:
		loc := in.lvalue(x.X, fr)
		d := int64(1)
		if x.Op == token.DEC {
			d = -1
		}
		nv := addValue(loc.get(), d, in.typeOf(x.X))
		in.set(loc, nv)
		return nv
	}
	panic("bad unary " + x.Op.String())
}

func (in *Interp) assign(x *ast.AssignExpr, fr *frame) Value {
	loc := in.lvalue(x.LHS, fr)
	rhs := in.eval(x.RHS, fr)
	if bin, ok := x.Op.AssignBinOp(); ok {
		cur := loc.get()
		tl := in.typeOf(x.LHS)
		if tl.IsPtr() {
			d := rhs.AsInt() * strideOf(tl)
			if bin == token.SUB {
				d = -d
			}
			rhs = PtrV(cur.P.Add(d))
		} else if tl.Kind == types.Float || rhs.K == types.Float {
			a, b := cur.AsFloat(), rhs.AsFloat()
			switch bin {
			case token.ADD:
				rhs = FloatV(a + b)
			case token.SUB:
				rhs = FloatV(a - b)
			case token.MUL:
				rhs = FloatV(a * b)
			case token.QUO:
				rhs = FloatV(a / b)
			default:
				panic("bad float compound op")
			}
		} else {
			a, b := cur.I, rhs.AsInt()
			switch bin {
			case token.ADD:
				rhs = IntV(a + b)
			case token.SUB:
				rhs = IntV(a - b)
			case token.MUL:
				rhs = IntV(a * b)
			case token.QUO:
				if b == 0 {
					panic("integer division by zero")
				}
				rhs = IntV(a / b)
			case token.REM:
				if b == 0 {
					panic("integer modulo by zero")
				}
				rhs = IntV(a % b)
			case token.AND:
				rhs = IntV(a & b)
			case token.OR:
				rhs = IntV(a | b)
			case token.XOR:
				rhs = IntV(a ^ b)
			case token.SHL:
				rhs = IntV(a << uint(b))
			case token.SHR:
				rhs = IntV(a >> uint(b))
			}
		}
	}
	in.set(loc, rhs)
	return loc.get()
}

func (in *Interp) callExpr(x *ast.CallExpr, fr *frame) Value {
	name := x.Fun.Name
	if f, ok := mathUnary[name]; ok {
		return FloatV(f(in.eval(x.Args[0], fr).AsFloat()))
	}
	if f, ok := mathBinary[name]; ok {
		return FloatV(f(in.eval(x.Args[0], fr).AsFloat(), in.eval(x.Args[1], fr).AsFloat()))
	}
	switch name {
	case "abs":
		v := in.eval(x.Args[0], fr).AsInt()
		if v < 0 {
			v = -v
		}
		return IntV(v)
	case "floord":
		a, b := in.eval(x.Args[0], fr).AsInt(), in.eval(x.Args[1], fr).AsInt()
		q := a / b
		if (a%b != 0) && ((a < 0) != (b < 0)) {
			q--
		}
		return IntV(q)
	case "ceild":
		a, b := in.eval(x.Args[0], fr).AsInt(), in.eval(x.Args[1], fr).AsInt()
		q := a / b
		if (a%b != 0) && ((a < 0) == (b < 0)) {
			q++
		}
		return IntV(q)
	case "imin":
		a, b := in.eval(x.Args[0], fr).AsInt(), in.eval(x.Args[1], fr).AsInt()
		if a < b {
			return IntV(a)
		}
		return IntV(b)
	case "imax":
		a, b := in.eval(x.Args[0], fr).AsInt(), in.eval(x.Args[1], fr).AsInt()
		if a > b {
			return IntV(a)
		}
		return IntV(b)
	case "malloc":
		panic("malloc must be cast to its target pointer type")
	case "free":
		if err := in.heap.Free(in.eval(x.Args[0], fr).P); err != nil {
			panic(err)
		}
		return Value{}
	case "printf":
		in.printf(x, fr)
		return IntV(0)
	case "rand":
		in.rand = in.rand*6364136223846793005 + 1442695040888963407
		return IntV(int64((in.rand >> 33) & 0x7fffffff))
	case "srand":
		in.rand = uint64(in.eval(x.Args[0], fr).AsInt())
		return Value{}
	case "clock":
		return IntV(0)
	}
	// user function
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		args[i] = in.eval(a, fr)
	}
	// convert args to parameter types
	if sig, ok := in.info.Funcs[name]; ok {
		for i := range args {
			if i < len(sig.Params) {
				args[i] = in.convert(args[i], sig.Params[i])
			}
		}
	}
	v, _ := in.call(name, args)
	return v
}

func (in *Interp) printf(x *ast.CallExpr, fr *frame) {
	lit, ok := ast.Unparen(x.Args[0]).(*ast.StringLit)
	if !ok {
		panic("printf format must be a literal")
	}
	format := lit.Value
	var b strings.Builder
	ai := 1
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		i++
		for i < len(format) && strings.IndexByte("-+ 0123456789.l", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			break
		}
		verb := format[i]
		i++
		if verb == '%' {
			b.WriteByte('%')
			continue
		}
		v := in.eval(x.Args[ai], fr)
		ai++
		switch verb {
		case 'd', 'i', 'u':
			fmt.Fprintf(&b, "%d", v.AsInt())
		case 'x':
			fmt.Fprintf(&b, "%x", v.AsInt())
		case 'c':
			fmt.Fprintf(&b, "%c", rune(v.AsInt()))
		case 'f':
			fmt.Fprintf(&b, "%f", v.AsFloat())
		case 'g':
			fmt.Fprintf(&b, "%g", v.AsFloat())
		case 'e':
			fmt.Fprintf(&b, "%e", v.AsFloat())
		case 's':
			p := v.P
			if p.IsNull() {
				b.WriteString("(null)") // match the compiled backend
				break
			}
			if p.Seg.Freed() {
				// The poisoned backing slice would read as an empty
				// string and mask the use-after-free; trap it like any
				// other stale access.
				panic(fmt.Sprintf("use after free of %s", p.Seg.Name))
			}
			//lint:rawmem NUL scan bounded by len() on the same slice; freed checked above
			for off := p.Off; off < len(p.Seg.I) && p.Seg.I[off] != 0; off++ {
				b.WriteByte(byte(p.Seg.I[off])) //lint:rawmem same bounded scan
			}
		}
	}
	fmt.Fprint(in.stdout, b.String())
}

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
