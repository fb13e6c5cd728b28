package vra

import (
	"fmt"
	"sort"
	"strings"

	"purec/internal/ast"
	"purec/internal/sema"
	"purec/internal/token"
	"purec/internal/types"
)

// Target is an exact points-to resolution: the pointer always holds
// region base + Off elements (when its defining store has executed).
type Target struct {
	// Region names the pointed-to storage: a declared array's name, or
	// a synthetic "malloc@pos" id unique to one allocation site.
	Region string
	// Array is the declared array symbol when Region is one, nil for
	// malloc regions.
	Array *sema.Symbol
	// Off is the element offset of the pointer into the region.
	Off int64
	// DeclInit reports that the single store is the pointer's own
	// declaration initializer, which dominates every later use in the
	// function — the form bounds proofs may rely on.
	DeclInit bool
}

// AliasResult is the flow-insensitive points-to map for guest
// pointers. A pointer is either exactly resolved (single store, affine
// chain to one region), bounded to a may-point-to region set, or
// unknown (may point anywhere).
type AliasResult struct {
	exact map[*sema.Symbol]Target
	may   map[*sema.Symbol][]string
}

// Resolve returns the exact target of a pointer, when its value is a
// compile-time region + offset.
func (r *AliasResult) Resolve(sym *sema.Symbol) (Target, bool) {
	if r == nil {
		return Target{}, false
	}
	t, ok := r.exact[sym]
	return t, ok
}

// ResolveExact is the scop-facing form of Resolve.
func (r *AliasResult) ResolveExact(sym *sema.Symbol) (region string, off int64, ok bool) {
	t, ok := r.Resolve(sym)
	return t.Region, t.Off, ok
}

// MayPointTo returns the may-point-to region set of a pointer; nil
// means unknown (anything).
func (r *AliasResult) MayPointTo(sym *sema.Symbol) []string {
	if r == nil {
		return nil
	}
	if t, ok := r.exact[sym]; ok {
		return []string{t.Region}
	}
	return r.may[sym]
}

// Describe renders one pointer's points-to fact for reports.
func (r *AliasResult) Describe(sym *sema.Symbol) string {
	if t, ok := r.Resolve(sym); ok {
		return fmt.Sprintf("%s -> %s[+%d]", sym.Name, t.Region, t.Off)
	}
	if set := r.MayPointTo(sym); len(set) > 0 {
		return fmt.Sprintf("%s -> {%s}", sym.Name, strings.Join(set, ", "))
	}
	return fmt.Sprintf("%s -> anything", sym.Name)
}

// analyzeAliases computes the points-to result from the program-wide
// pointer store sets gathered syntactically.
func (a *analyzer) analyzeAliases() *AliasResult {
	res := &AliasResult{
		exact: map[*sema.Symbol]Target{},
		may:   map[*sema.Symbol][]string{},
	}

	// Gather every store to every pointer variable.
	type ptrStore struct {
		rhs      ast.Expr // nil for ++/--/compound ops (unresolvable)
		declInit bool
	}
	stores := map[*sema.Symbol][]ptrStore{}
	isPtr := func(sym *sema.Symbol) bool {
		return sym != nil && !sym.IsArray() && sym.Type != nil && sym.Type.Kind == types.Ptr
	}
	note := func(sym *sema.Symbol, s ptrStore) {
		if isPtr(sym) {
			stores[sym] = append(stores[sym], s)
		}
	}
	ast.Walk(a.info.File, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignExpr:
			if id, ok := ast.Unparen(x.LHS).(*ast.Ident); ok {
				rhs := x.RHS
				if x.Op != token.ASSIGN {
					rhs = nil
				}
				note(a.info.Ref[id], ptrStore{rhs: rhs})
			}
		case *ast.UnaryExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && (x.Op == token.INC || x.Op == token.DEC) {
				note(a.info.Ref[id], ptrStore{})
			}
		case *ast.PostfixExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				note(a.info.Ref[id], ptrStore{})
			}
		case *ast.VarDecl:
			if x.Init != nil {
				note(a.declToSym[x], ptrStore{rhs: x.Init, declInit: true})
			}
		}
		return true
	})

	// targetOf resolves an rvalue to a region + element offset,
	// chasing pointer copies through other single-store pointers.
	visiting := map[*sema.Symbol]bool{}
	var resolveSym func(sym *sema.Symbol) (Target, bool)
	var targetOf func(e ast.Expr) (Target, bool)

	targetOf = func(e ast.Expr) (Target, bool) {
		e = stripCasts(e)
		switch x := e.(type) {
		case *ast.Ident:
			sym := a.info.Ref[x]
			if sym == nil {
				return Target{}, false
			}
			if sym.IsArray() && len(sym.Dims) == 1 {
				return Target{Region: sym.Name, Array: sym}, true // array decay
			}
			return resolveSym(sym)
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return Target{}, false
			}
			switch op := ast.Unparen(x.X).(type) {
			case *ast.Ident: // &arr
				sym := a.info.Ref[op]
				if sym != nil && sym.IsArray() && len(sym.Dims) == 1 {
					return Target{Region: sym.Name, Array: sym}, true
				}
			case *ast.IndexExpr: // &arr[c], &p[c]
				k, okK := sema.ConstInt(op.Index)
				if !okK {
					return Target{}, false
				}
				t, ok := targetOf(op.X)
				if !ok {
					return Target{}, false
				}
				t.Off += k
				return t, true
			}
		case *ast.BinaryExpr: // p + c, p - c, c + p
			if c, ok := sema.ConstInt(x.Y); ok {
				t, okT := targetOf(x.X)
				if !okT {
					return Target{}, false
				}
				switch x.Op {
				case token.ADD:
					t.Off += c
					return t, true
				case token.SUB:
					t.Off -= c
					return t, true
				}
				return Target{}, false
			}
			if c, ok := sema.ConstInt(x.X); ok && x.Op == token.ADD {
				t, okT := targetOf(x.Y)
				if !okT {
					return Target{}, false
				}
				t.Off += c
				return t, true
			}
		case *ast.CallExpr:
			if x.Fun.Name == "malloc" && len(x.Args) == 1 {
				return Target{Region: fmt.Sprintf("malloc@%s", x.Pos())}, true
			}
		}
		return Target{}, false
	}

	resolveSym = func(sym *sema.Symbol) (Target, bool) {
		if t, ok := res.exact[sym]; ok {
			return t, true
		}
		if !isPtr(sym) || sym.Kind == sema.SymParam || a.addrTaken[sym] ||
			visiting[sym] || len(stores[sym]) != 1 {
			return Target{}, false
		}
		st := stores[sym][0]
		if st.rhs == nil {
			return Target{}, false
		}
		visiting[sym] = true
		t, ok := targetOf(st.rhs)
		delete(visiting, sym)
		if !ok {
			return Target{}, false
		}
		t.DeclInit = st.declInit
		res.exact[sym] = t
		return t, true
	}

	for sym, sts := range stores {
		if _, ok := resolveSym(sym); ok {
			continue
		}
		if sym.Kind == sema.SymParam || a.addrTaken[sym] {
			continue // unknown: no entry in either map
		}
		// Multi-store pointer: the may set is the union of each store's
		// region, unknown if any store fails to resolve.
		set := map[string]bool{}
		ok := true
		for _, st := range sts {
			if st.rhs == nil {
				ok = false
				break
			}
			t, okT := targetOf(st.rhs)
			if !okT {
				ok = false
				break
			}
			set[t.Region] = true
		}
		if ok && len(set) > 0 {
			regions := make([]string, 0, len(set))
			for r := range set {
				regions = append(regions, r)
			}
			sort.Strings(regions)
			res.may[sym] = regions
		}
	}
	return res
}

func stripCasts(e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		if c, ok := e.(*ast.CastExpr); ok {
			e = c.X
			continue
		}
		return e
	}
}
