// Package types defines the semantic types of the mini-C subset.
//
// The model is deliberately small: all integer base types collapse onto
// Int (with their C size kept for sizeof), float and double collapse onto
// Float (again with size kept), plus Void, Struct and Ptr. Pointer levels
// carry the pure and const qualifiers that the paper's compiler pass
// enforces.
package types

import "strings"

// Kind classifies a semantic type.
type Kind int

// Semantic type kinds.
const (
	Void Kind = iota
	Int
	Float
	Struct
	Ptr
)

// Type is a semantic type. Types are immutable after construction and may
// be shared freely.
type Type struct {
	Kind   Kind
	CSize  int    // sizeof in bytes
	CName  string // C spelling of the base ("int", "float", "double", ...)
	Elem   *Type  // pointee for Ptr
	Pure   bool   // pure qualifier on this pointer level (paper's extension)
	Const  bool
	Fields []Field // for Struct
	Tag    string  // struct tag
}

// Field is one struct member with its byte-less index layout: the memory
// model addresses fields by flattened cell index, so Offset counts cells.
type Field struct {
	Name   string
	Type   *Type
	Count  int // flattened cell count (arrays of scalars)
	Offset int // cell offset within the struct
}

// Predeclared singleton types.
var (
	VoidType     = &Type{Kind: Void, CName: "void"}
	IntType      = &Type{Kind: Int, CSize: 4, CName: "int"}
	CharType     = &Type{Kind: Int, CSize: 1, CName: "char"}
	ShortType    = &Type{Kind: Int, CSize: 2, CName: "short"}
	LongType     = &Type{Kind: Int, CSize: 8, CName: "long"}
	UnsignedType = &Type{Kind: Int, CSize: 4, CName: "unsigned"}
	FloatType    = &Type{Kind: Float, CSize: 4, CName: "float"}
	DoubleType   = &Type{Kind: Float, CSize: 8, CName: "double"}
)

// PointerTo returns a pointer type to elem with the given qualifiers.
func PointerTo(elem *Type, pure, cnst bool) *Type {
	return &Type{Kind: Ptr, CSize: 8, CName: "*", Elem: elem, Pure: pure, Const: cnst}
}

// IsArith reports whether t participates in arithmetic (Int or Float).
func (t *Type) IsArith() bool { return t != nil && (t.Kind == Int || t.Kind == Float) }

// IsPtr reports whether t is a pointer.
func (t *Type) IsPtr() bool { return t != nil && t.Kind == Ptr }

// IsVoid reports whether t is void.
func (t *Type) IsVoid() bool { return t == nil || t.Kind == Void }

// BaseElem follows pointer levels to the ultimate non-pointer element.
func (t *Type) BaseElem() *Type {
	for t != nil && t.Kind == Ptr {
		t = t.Elem
	}
	return t
}

// String renders the type in C-like syntax, innermost base first.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Ptr:
		var b strings.Builder
		b.WriteString(t.Elem.String())
		if t.Pure {
			b.WriteString(" pure")
		}
		if t.Const {
			b.WriteString(" const")
		}
		b.WriteString("*")
		return b.String()
	case Struct:
		return "struct " + t.Tag
	default:
		return t.CName
	}
}

// Equal reports structural equality ignoring qualifiers.
func Equal(a, b *Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Ptr:
		return Equal(a.Elem, b.Elem)
	case Struct:
		return a.Tag == b.Tag
	default:
		return a.CName == b.CName
	}
}

// AssignableLoose reports whether a value of type src may be assigned to
// dst under the subset's forgiving conversion rules (arithmetic types
// interconvert; pointers convert to pointers of equal shape or via void*).
func AssignableLoose(dst, src *Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if dst.IsArith() && src.IsArith() {
		return true
	}
	if dst.Kind == Ptr && src.Kind == Ptr {
		if dst.Elem.IsVoid() || src.Elem.IsVoid() {
			return true
		}
		return Equal(dst, src)
	}
	if dst.Kind == Ptr && src.Kind == Int {
		return true // NULL-style literals
	}
	if dst.Kind == Struct && src.Kind == Struct {
		return dst.Tag == src.Tag
	}
	return false
}

// Resolver maps struct tags to their declared types.
type Resolver func(tag string) (*Type, error)

// Cells returns how many memory cells one value of t occupies: a
// struct's flattened field cells (at least one), one for any other type.
// Indexing into an array of t strides by it.
func (t *Type) Cells() int {
	if t == nil || t.Kind != Struct {
		return 1
	}
	n := 0
	for _, f := range t.Fields {
		n += f.Count
	}
	return max(n, 1)
}

// Promote returns the arithmetic result type of a binary operation on a
// and b: Float wins over Int; the wider size wins within a kind.
func Promote(a, b *Type) *Type {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.Kind == Float || b.Kind == Float {
		if a.Kind == Float && a.CSize == 8 || b.Kind == Float && b.CSize == 8 {
			return DoubleType
		}
		return FloatType
	}
	if a.CSize >= 8 || b.CSize >= 8 {
		return LongType
	}
	return IntType
}
