// Package mem provides the runtime memory model for executing mini-C
// programs: typed segments addressed by (segment, offset) pointers with
// C-style pointer arithmetic in element units.
//
// Segments are the unit of allocation: every global array, local array,
// struct object and malloc block is one segment. Pointer values reference
// a segment plus an element offset, so out-of-bounds accesses surface as
// Go slice bounds panics, which the machine converts into runtime errors
// — a stricter behaviour than C that makes the test suite trustworthy.
//
// free() poisons the released segment by dropping its backing slices, so
// any later load or store through a stale pointer surfaces as a runtime
// error (use-after-free detection) instead of silently reading freed
// memory.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MaxCallDepth bounds the guest call stack: the call that would open
// activation MaxCallDepth+1 traps ("stack overflow: call depth exceeds
// N") in the interpreter and in both compiled engines alike, instead of
// running the host goroutine into Go's unrecoverable stack overflow.
// Every engine nests host frames per guest call: at this depth the
// plain recursion `return f(n + 1) + 1;` has grown the Go stack to
// 2 MiB on the closure engine, 4 MiB on the tape engine and 32 MiB in
// the interpreter — far from the runtime's 1 GB limit, and far above
// any depth the served programs reach.
const MaxCallDepth = 10000

// StackOverflow is the trap text of a call past MaxCallDepth.
func StackOverflow() string {
	return fmt.Sprintf("stack overflow: call depth exceeds %d", MaxCallDepth)
}

// MaxSegmentCells bounds one guest allocation. A global, local or
// malloc'd segment of more cells — or of a negative count — traps
// instead of asking the Go runtime for storage it cannot have, which
// is an unrecoverable fatal error that takes the whole process down.
// At 8 bytes a cell the cap is 2 GiB per backing slice; the largest
// allocation of the bundled applications and benchmarks is 2 Mi cells.
const MaxSegmentCells = 1 << 28

// Trap is a guest fault raised inside mem. The interpreter and both
// compiled engines report it as a runtime error with exactly this text.
type Trap string

// Error returns the trap text.
func (t Trap) Error() string { return string(t) }

// checkCells is the size rule every segment allocation passes.
func checkCells(n int) {
	if n < 0 {
		panic(Trap(fmt.Sprintf("allocation of negative size (%d cells)", n)))
	}
	if n > MaxSegmentCells {
		panic(Trap(fmt.Sprintf("allocation of %d cells exceeds the %d-cell limit", n, MaxSegmentCells)))
	}
}

// CellKind is the element type of a segment.
type CellKind int

// Segment element kinds. Mixed segments (structs) carry all three
// backing slices so each field offset uses the slice its type requires.
const (
	CellInt CellKind = iota
	CellFloat
	CellPtr
	CellMixed
)

var cellKindNames = [...]string{"int", "float", "ptr", "mixed"}

// String returns the kind name.
func (k CellKind) String() string { return cellKindNames[k] }

// Segment is one allocation.
type Segment struct {
	Kind CellKind
	I    []int64
	F    []float64
	P    []Pointer
	// Name is a diagnostic label ("global A", "malloc@main").
	Name string
	// freed marks segments released by free(). It is atomic so
	// double-free detection also works for frees issued from inside
	// parallel regions.
	freed atomic.Bool
}

// NewSegment allocates a segment of n cells of kind k. A size outside
// [0, MaxSegmentCells] panics with a Trap.
func NewSegment(k CellKind, n int, name string) *Segment {
	checkCells(n)
	s := &Segment{Kind: k, Name: name}
	switch k {
	case CellInt:
		s.I = make([]int64, n)
	case CellFloat:
		s.F = make([]float64, n)
	case CellPtr:
		s.P = make([]Pointer, n)
	case CellMixed:
		s.I = make([]int64, n)
		s.F = make([]float64, n)
		s.P = make([]Pointer, n)
	}
	return s
}

// Clear zeroes every cell in place.
func (s *Segment) Clear() {
	clear(s.I)
	clear(s.F)
	clear(s.P)
}

// Freed reports whether the segment was released by free() (and its
// storage poisoned).
func (s *Segment) Freed() bool { return s.freed.Load() }

// Len returns the cell count.
func (s *Segment) Len() int {
	switch s.Kind {
	case CellInt:
		return len(s.I)
	case CellFloat:
		return len(s.F)
	case CellPtr:
		return len(s.P)
	default:
		return len(s.F)
	}
}

// FloatRange validates the half-open cell range [lo, hi) against the
// segment once and hands back the raw float cells, so bulk kernels can
// walk the slice directly instead of paying one bounds check per
// element access. Freed segments, non-float segments and out-of-range
// bounds report an error (the fused-kernel analog of the per-access
// traps).
func (s *Segment) FloatRange(lo, hi int64) ([]float64, error) {
	c, ok := s.FloatCells(lo, hi)
	if !ok {
		return nil, s.rangeErr(lo, hi, len(s.F), "float")
	}
	return c, nil
}

// IntRange validates the half-open cell range [lo, hi) once and hands
// back the raw integer cells; see FloatRange.
func (s *Segment) IntRange(lo, hi int64) ([]int64, error) {
	c, ok := s.IntCells(lo, hi)
	if !ok {
		return nil, s.rangeErr(lo, hi, len(s.I), "int")
	}
	return c, nil
}

// FloatCells is FloatRange without the error: the one range check of
// the bulk accessors, small enough to inline into a kernel launch. It
// reports false where FloatRange reports an error.
func (s *Segment) FloatCells(lo, hi int64) ([]float64, bool) {
	if s.freed.Load() || lo < 0 || hi < lo || hi > int64(len(s.F)) {
		return nil, false
	}
	return s.F[lo:hi], true
}

// IntCells is FloatCells for the integer cells.
func (s *Segment) IntCells(lo, hi int64) ([]int64, bool) {
	if s.freed.Load() || lo < 0 || hi < lo || hi > int64(len(s.I)) {
		return nil, false
	}
	return s.I[lo:hi], true
}

// rangeErr names why FloatCells or IntCells refused [lo, hi).
func (s *Segment) rangeErr(lo, hi int64, n int, kind string) error {
	if s.Freed() {
		return fmt.Errorf("use of freed segment %s", s.Name)
	}
	return fmt.Errorf("%s range [%d,%d) out of bounds of %s (%d cells)",
		kind, lo, hi, s.Name, n)
}

// Pointer is a C pointer value: a segment and an element offset.
// The zero Pointer is the NULL pointer.
type Pointer struct {
	Seg *Segment
	Off int
}

// IsNull reports whether p is the null pointer.
func (p Pointer) IsNull() bool { return p.Seg == nil }

// Add returns p advanced by n elements. The offset arithmetic is
// unchecked (two's-complement wraparound); compiled pointer arithmetic
// goes through AddChecked so overflowing offsets trap instead of
// silently referencing a wrapped cell.
func (p Pointer) Add(n int64) Pointer { return Pointer{Seg: p.Seg, Off: p.Off + int(n)} }

// AddChecked returns p advanced by n elements, reporting an error when
// the resulting offset overflows the int range (including platforms
// where int is narrower than 64 bits) instead of wrapping — the
// memory-layer analog of the runtime's unsigned-offset schedulers.
func (p Pointer) AddChecked(n int64) (Pointer, error) {
	off := int64(p.Off) + n
	if (n > 0 && off < int64(p.Off)) || (n < 0 && off > int64(p.Off)) ||
		int64(int(off)) != off {
		return Pointer{}, fmt.Errorf("pointer arithmetic overflow: %s + %d elements", p, n)
	}
	return Pointer{Seg: p.Seg, Off: int(off)}, nil
}

// Diff returns the element distance p−q; both must reference the same
// segment (use DiffChecked when that is not guaranteed — for pointers
// into different segments the plain offset delta is meaningless).
func (p Pointer) Diff(q Pointer) int64 { return int64(p.Off - q.Off) }

// DiffChecked returns the element distance p−q, reporting an error when
// the pointers reference different segments (undefined behaviour in C,
// a checked runtime error here).
func (p Pointer) DiffChecked(q Pointer) (int64, error) {
	if p.Seg != q.Seg {
		return 0, fmt.Errorf("pointer difference across segments (%s - %s)", p, q)
	}
	return int64(p.Off - q.Off), nil
}

// String renders the pointer for diagnostics.
func (p Pointer) String() string {
	if p.IsNull() {
		return "NULL"
	}
	return fmt.Sprintf("&%s[%d]", p.Seg.Name, p.Off)
}

// LoadInt reads an integer cell: one slice index, whose Go bounds check
// is the out-of-bounds trap.
func (p Pointer) LoadInt() int64 { return p.Seg.I[p.Off] }

// LoadFloat reads a float cell.
func (p Pointer) LoadFloat() float64 { return p.Seg.F[p.Off] }

// LoadPtr reads a pointer cell.
func (p Pointer) LoadPtr() Pointer { return p.Seg.P[p.Off] }

// StoreInt writes an integer cell.
func (p Pointer) StoreInt(v int64) { p.Seg.I[p.Off] = v }

// StoreFloat writes a float cell.
func (p Pointer) StoreFloat(v float64) { p.Seg.F[p.Off] = v }

// StorePtr writes a pointer cell.
func (p Pointer) StorePtr(v Pointer) { p.Seg.P[p.Off] = v }

// Heap tracks malloc/free allocations for leak/double-free diagnostics.
// The counters are atomic so allocations from inside parallel regions
// account safely; segment creation itself is lock-free (each malloc
// returns a fresh segment).
//
// A heap may additionally carry an Arena (SetArena): segments then
// allocate their backing storage through the arena's free lists and are
// tracked in a live set, so ReleaseLive can poison the whole previous
// run and recycle its storage in one sweep — the reset-don't-reallocate
// path of pooled Processes. Without an arena (the default) nothing is
// tracked and allocation behaves exactly as before.
type Heap struct {
	allocs atomic.Int64
	frees  atomic.Int64

	arena *Arena
	mu    sync.Mutex
	live  []*Segment
}

// SetArena attaches an arena to the heap. Call it before the first
// allocation of the first run; segments allocated earlier are not
// tracked and will be garbage collected rather than recycled.
func (h *Heap) SetArena(a *Arena) { h.arena = a }

// Arena returns the attached arena (nil without one).
func (h *Heap) Arena() *Arena { return h.arena }

// NewSegment allocates a non-heap segment (a global or local array)
// with the same storage-reuse and tracking treatment as Malloc, but
// without counting toward the malloc statistics. Without an arena it is
// exactly the package-level NewSegment.
func (h *Heap) NewSegment(k CellKind, n int, name string) *Segment {
	if h.arena == nil {
		return NewSegment(k, n, name)
	}
	s := h.arena.NewSegment(k, n, name)
	h.mu.Lock()
	h.live = append(h.live, s)
	h.mu.Unlock()
	return s
}

// ReleaseLive poisons every tracked segment of the finished run and
// recycles its backing storage into the arena. Stale pointers into the
// run keep trapping (the segments are in the freed state, slices
// dropped); the storage itself feeds the next run's allocations. A
// no-op without an arena.
func (h *Heap) ReleaseLive() {
	if h.arena == nil {
		return
	}
	h.mu.Lock()
	live := h.live
	h.live = nil
	h.mu.Unlock()
	for _, s := range live {
		h.arena.Release(s)
	}
}

// HeapStats is a snapshot of the allocation counters.
type HeapStats struct {
	Allocs int64
	Frees  int64
}

// Stats returns the current allocation counters.
func (h *Heap) Stats() HeapStats {
	return HeapStats{Allocs: h.allocs.Load(), Frees: h.frees.Load()}
}

// Reset zeroes the counters (a fresh run's heap).
func (h *Heap) Reset() {
	h.allocs.Store(0)
	h.frees.Store(0)
}

// Malloc allocates a segment of n cells of kind k.
func (h *Heap) Malloc(k CellKind, n int, name string) Pointer {
	h.allocs.Add(1)
	return Pointer{Seg: h.NewSegment(k, n, name)}
}

// Free releases the segment referenced by p. Double frees and frees of
// interior pointers report an error.
func (h *Heap) Free(p Pointer) error {
	if p.IsNull() {
		return nil // free(NULL) is a no-op in C
	}
	if p.Off != 0 {
		return fmt.Errorf("free of interior pointer %s", p)
	}
	if p.Seg.freed.Swap(true) {
		return fmt.Errorf("double free of %s", p.Seg.Name)
	}
	// Poison the segment: dropping the backing slices makes any later
	// access through a stale pointer fail the slice bounds check, which
	// the machine reports as a runtime error (use-after-free detection).
	p.Seg.I, p.Seg.F, p.Seg.P = nil, nil, nil
	h.frees.Add(1)
	return nil
}
