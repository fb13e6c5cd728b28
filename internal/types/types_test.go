package types

import "testing"

func TestString(t *testing.T) {
	cases := []struct {
		t    *Type
		want string
	}{
		{IntType, "int"},
		{FloatType, "float"},
		{DoubleType, "double"},
		{PointerTo(FloatType, false, false), "float*"},
		{PointerTo(FloatType, true, false), "float pure*"},
		{PointerTo(PointerTo(FloatType, false, false), false, false), "float**"},
		{PointerTo(IntType, false, true), "int const*"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !Equal(PointerTo(IntType, true, false), PointerTo(IntType, false, true)) {
		t.Error("qualifiers must not affect Equal")
	}
	if Equal(PointerTo(IntType, false, false), IntType) {
		t.Error("ptr != scalar")
	}
	if Equal(FloatType, DoubleType) {
		t.Error("float != double")
	}
}

func TestAssignableLoose(t *testing.T) {
	ip := PointerTo(IntType, false, false)
	vp := PointerTo(VoidType, false, false)
	if !AssignableLoose(IntType, FloatType) || !AssignableLoose(FloatType, IntType) {
		t.Error("arithmetic interconversion")
	}
	if !AssignableLoose(ip, vp) || !AssignableLoose(vp, ip) {
		t.Error("void* interconversion")
	}
	if AssignableLoose(ip, PointerTo(FloatType, false, false)) {
		t.Error("int* from float* must fail")
	}
	if !AssignableLoose(ip, IntType) {
		t.Error("NULL-style 0 assignment")
	}
}

func TestPromote(t *testing.T) {
	if Promote(IntType, FloatType) != FloatType {
		t.Error("int+float=float")
	}
	if Promote(FloatType, DoubleType) != DoubleType {
		t.Error("float+double=double")
	}
	if Promote(IntType, LongType) != LongType {
		t.Error("int+long=long")
	}
	if Promote(CharType, ShortType) != IntType {
		t.Error("char+short=int")
	}
}

func TestBaseElem(t *testing.T) {
	pp := PointerTo(PointerTo(FloatType, false, false), false, false)
	if pp.BaseElem() != FloatType {
		t.Errorf("base elem: %s", pp.BaseElem())
	}
	if IntType.BaseElem() != IntType {
		t.Error("scalar base elem is itself")
	}
}

func TestSizes(t *testing.T) {
	if IntType.CSize != 4 || LongType.CSize != 8 || FloatType.CSize != 4 ||
		DoubleType.CSize != 8 || CharType.CSize != 1 {
		t.Error("C sizes wrong")
	}
	if PointerTo(IntType, false, false).CSize != 8 {
		t.Error("pointer size must be 8")
	}
}
