package mem

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSegmentKinds(t *testing.T) {
	f := NewSegment(CellFloat, 8, "f")
	if f.Len() != 8 || f.F == nil || f.I != nil {
		t.Fatalf("float segment: %+v", f)
	}
	i := NewSegment(CellInt, 4, "i")
	if i.Len() != 4 || i.I == nil {
		t.Fatalf("int segment: %+v", i)
	}
	p := NewSegment(CellPtr, 2, "p")
	if p.Len() != 2 || p.P == nil {
		t.Fatalf("ptr segment: %+v", p)
	}
	m := NewSegment(CellMixed, 3, "m")
	if m.I == nil || m.F == nil || m.P == nil {
		t.Fatalf("mixed segment: %+v", m)
	}
}

func TestPointerArithmetic(t *testing.T) {
	s := NewSegment(CellFloat, 10, "s")
	p := Pointer{Seg: s}
	q := p.Add(3)
	q.StoreFloat(1.5)
	if s.F[3] != 1.5 {
		t.Fatal("store through offset pointer")
	}
	if q.LoadFloat() != 1.5 {
		t.Fatal("load")
	}
	if q.Diff(p) != 3 || p.Diff(q) != -3 {
		t.Fatal("diff")
	}
	r := q.Add(-1)
	if r.Off != 2 {
		t.Fatal("negative add")
	}
}

func TestNullPointer(t *testing.T) {
	var p Pointer
	if !p.IsNull() {
		t.Fatal("zero pointer must be null")
	}
	if p.String() != "NULL" {
		t.Fatalf("string: %s", p.String())
	}
}

func TestHeapMallocFree(t *testing.T) {
	var h Heap
	p := h.Malloc(CellInt, 4, "x")
	if p.IsNull() || p.Seg.Len() != 4 {
		t.Fatal("malloc")
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err == nil {
		t.Fatal("double free must error")
	}
	if s := h.Stats(); s.Allocs != 1 || s.Frees != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestFreeInteriorPointer(t *testing.T) {
	var h Heap
	p := h.Malloc(CellInt, 4, "x")
	if err := h.Free(p.Add(1)); err == nil {
		t.Fatal("interior free must error")
	}
}

func TestFreeNull(t *testing.T) {
	var h Heap
	if err := h.Free(Pointer{}); err != nil {
		t.Fatalf("free(NULL) must be a no-op: %v", err)
	}
}

func TestUseAfterFreePanics(t *testing.T) {
	var h Heap
	p := h.Malloc(CellInt, 4, "x")
	p.StoreInt(7)
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	for name, access := range map[string]func(){
		"load":  func() { p.LoadInt() },
		"store": func() { p.StoreInt(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after free must panic", name)
				}
			}()
			access()
		}()
	}
}

func TestFreePoisonsAllCellKinds(t *testing.T) {
	var h Heap
	for _, k := range []CellKind{CellInt, CellFloat, CellPtr, CellMixed} {
		p := h.Malloc(k, 2, "x")
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
		if p.Seg.I != nil || p.Seg.F != nil || p.Seg.P != nil {
			t.Fatalf("%v segment not poisoned after free", k)
		}
	}
}

func TestDiffChecked(t *testing.T) {
	s := NewSegment(CellFloat, 10, "s")
	p := Pointer{Seg: s, Off: 7}
	q := Pointer{Seg: s, Off: 3}
	d, err := p.DiffChecked(q)
	if err != nil || d != 4 {
		t.Fatalf("same-segment diff = %d, %v", d, err)
	}
	other := Pointer{Seg: NewSegment(CellFloat, 10, "t"), Off: 3}
	if _, err := p.DiffChecked(other); err == nil {
		t.Fatal("cross-segment diff must error")
	} else if got := err.Error(); !strings.Contains(got, "pointer difference across segments") {
		t.Fatalf("unexpected error text: %s", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected bounds panic")
		}
	}()
	s := NewSegment(CellInt, 2, "s")
	Pointer{Seg: s, Off: 5}.LoadInt()
}

// Property: pointer arithmetic is associative with integer offsets.
func TestAddAssociativityProperty(t *testing.T) {
	s := NewSegment(CellFloat, 1, "s")
	f := func(a, b int16) bool {
		p := Pointer{Seg: s}
		return p.Add(int64(a)).Add(int64(b)) == p.Add(int64(a)+int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeAccessors(t *testing.T) {
	s := NewSegment(CellFloat, 8, "s")
	for i := range s.F {
		s.F[i] = float64(i)
	}
	xs, err := s.FloatRange(2, 6)
	if err != nil || len(xs) != 4 || xs[0] != 2 {
		t.Fatalf("FloatRange(2,6) = %v, %v", xs, err)
	}
	// The range is the raw backing storage, not a copy.
	xs[0] = 42
	if s.F[2] != 42 {
		t.Fatal("FloatRange must alias the segment cells")
	}
	if _, err := s.FloatRange(2, 9); err == nil {
		t.Fatal("over-length range must error")
	}
	if _, err := s.FloatRange(-1, 3); err == nil {
		t.Fatal("negative range must error")
	}
	if _, err := s.FloatRange(5, 4); err == nil {
		t.Fatal("inverted range must error")
	}
	if ys, err := s.FloatRange(3, 3); err != nil || len(ys) != 0 {
		t.Fatalf("empty range = %v, %v", ys, err)
	}
	if _, err := s.IntRange(0, 1); err == nil {
		t.Fatal("IntRange on a float segment must error")
	}
	i := NewSegment(CellInt, 4, "i")
	if vs, err := i.IntRange(0, 4); err != nil || len(vs) != 4 {
		t.Fatalf("IntRange(0,4) = %v, %v", vs, err)
	}
}

func TestRangeAccessorsFreedSegment(t *testing.T) {
	var h Heap
	p := h.Malloc(CellFloat, 8, "m")
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Seg.FloatRange(0, 1); err == nil {
		t.Fatal("range over a freed segment must error (use-after-free)")
	} else if !strings.Contains(err.Error(), "freed") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

// TestCellsAreTheRangeCheck: FloatCells and IntCells accept exactly
// the ranges FloatRange and IntRange do, live or freed.
func TestCellsAreTheRangeCheck(t *testing.T) {
	var h Heap
	for _, free := range []bool{false, true} {
		p := h.Malloc(CellMixed, 4, "m")
		if free {
			if err := h.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		s := p.Seg
		for lo := int64(-1); lo <= 5; lo++ {
			for hi := int64(-1); hi <= 5; hi++ {
				fc, fok := s.FloatCells(lo, hi)
				fr, ferr := s.FloatRange(lo, hi)
				ic, iok := s.IntCells(lo, hi)
				ir, ierr := s.IntRange(lo, hi)
				if fok != (ferr == nil) || len(fc) != len(fr) || iok != (ierr == nil) || len(ic) != len(ir) {
					t.Fatalf("freed=%v [%d,%d): FloatCells %v/%d, FloatRange %v/%d, IntCells %v/%d, IntRange %v/%d",
						free, lo, hi, fok, len(fc), ferr, len(fr), iok, len(ic), ierr, len(ir))
				}
				if want := !free && 0 <= lo && lo <= hi && hi <= 4; fok != want || iok != want {
					t.Fatalf("freed=%v [%d,%d): FloatCells %v, IntCells %v, want %v", free, lo, hi, fok, iok, want)
				}
			}
		}
	}
}

func TestAddChecked(t *testing.T) {
	s := NewSegment(CellInt, 4, "s")
	p := Pointer{Seg: s, Off: 2}
	q, err := p.AddChecked(1)
	if err != nil || q.Off != 3 {
		t.Fatalf("AddChecked(1) = %v, %v", q, err)
	}
	q, err = p.AddChecked(-2)
	if err != nil || q.Off != 0 {
		t.Fatalf("AddChecked(-2) = %v, %v", q, err)
	}
	// Offset overflow past the int64 range must trap, not wrap — the
	// unchecked Add would silently produce a negative offset here.
	if _, err := (Pointer{Seg: s, Off: 1}).AddChecked(math.MaxInt64); err == nil {
		t.Fatal("positive overflow must error")
	}
	if _, err := (Pointer{Seg: s, Off: -2}).AddChecked(math.MinInt64); err == nil {
		t.Fatal("negative overflow must error")
	}
}
