package comp

import (
	"fmt"

	"purec/internal/ast"
	"purec/internal/sema"
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
	// Leaf-pure inlining state (inline.go): the parameters of the
	// callees being inlined, each bound to its argument's operand (the
	// first active of them visible), and the number of expansions open.
	bound         []boundParam
	active, depth int
	// talloc manages the temp register space shared by the function's
	// tapes and scratch is the compile's tape working memory, both while
	// the body compiles.
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
		case sym.IsArray() || sym.Type.Kind == types.Struct:
			// Arrays and structs live in a segment referenced from a P
			// slot.
			sl = slot{slotPtr, fc.cf.nP}
			fc.cf.nP++
			kind, kerr := cellKindOf(sym.ElemType())
			if kerr != nil {
				fc.errorf(sym.Decl, "%v", kerr)
			}
			fc.cf.arrays = append(fc.cf.arrays, arrayAlloc{
				slot: sl.idx, kind: kind, cells: sym.Cells(),
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
	fc.compileTapeBody()
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
	t := e.Checked()
	if t == nil {
		fc.errorf(e, "expression has no type information (was the file re-checked after transformation?)")
	}
	return t
}

func (fc *funcCompiler) sizeofValue(x *ast.SizeofExpr) int64 {
	if x.Type != nil {
		t, err := sema.FromAST(x.Type, func(tag string) (*types.Type, error) {
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
