package mem

import "sync"

// Arena recycles segment backing storage across the runs of a pooled
// Process. The unit of reuse is the backing slice, never the Segment
// struct: releasing a segment poisons it exactly like free() does
// (slices dropped, freed flag set), so any stale Pointer from a
// previous run keeps trapping, while the storage itself is parked in
// per-size free lists and handed — zeroed — to the next allocation of
// the same shape. Programs re-run through a pool request the same
// segment sizes every time, which makes the exact-size lookup hit on
// effectively every warm allocation.
//
// An Arena belongs to one Process. Allocation and release both take the
// arena lock: mallocs and frees can be issued from inside parallel
// regions, and the lock is uncontended on the serial paths where
// allocation actually concentrates.
type Arena struct {
	mu     sync.Mutex
	ints   map[int][][]int64
	floats map[int][][]float64
	ptrs   map[int][][]Pointer

	reused   uint64
	fresh    uint64
	recycled uint64
}

// ArenaStats counts the arena's traffic: Reused slices served from a
// free list, Fresh slices that had to be allocated, and Recycled slices
// parked by Release.
type ArenaStats struct {
	Reused   uint64
	Fresh    uint64
	Recycled uint64
}

// NewArena creates an empty arena.
func NewArena() *Arena {
	return &Arena{
		ints:   map[int][][]int64{},
		floats: map[int][][]float64{},
		ptrs:   map[int][][]Pointer{},
	}
}

// Stats snapshots the traffic counters.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{Reused: a.reused, Fresh: a.fresh, Recycled: a.recycled}
}

// takeInt pops a zeroed int slice of exactly n cells, or nil.
func (a *Arena) takeInt(n int) []int64 {
	if list := a.ints[n]; len(list) > 0 {
		buf := list[len(list)-1]
		a.ints[n] = list[:len(list)-1]
		clear(buf)
		return buf
	}
	return nil
}

func (a *Arena) takeFloat(n int) []float64 {
	if list := a.floats[n]; len(list) > 0 {
		buf := list[len(list)-1]
		a.floats[n] = list[:len(list)-1]
		clear(buf)
		return buf
	}
	return nil
}

func (a *Arena) takePtr(n int) []Pointer {
	if list := a.ptrs[n]; len(list) > 0 {
		buf := list[len(list)-1]
		a.ptrs[n] = list[:len(list)-1]
		clear(buf)
		return buf
	}
	return nil
}

// NewSegment allocates a segment of n cells of kind k, serving the
// backing storage from the free lists when a previous run released a
// same-size slice. The Segment struct itself is always fresh — struct
// identity is what poisoning hangs off, so structs are never reused.
// The size rule is NewSegment's.
func (a *Arena) NewSegment(k CellKind, n int, name string) *Segment {
	checkCells(n)
	s := &Segment{Kind: k, Name: name}
	a.mu.Lock()
	defer a.mu.Unlock()
	hit := false
	switch k {
	case CellInt:
		if s.I = a.takeInt(n); s.I != nil {
			hit = true
		} else {
			s.I = make([]int64, n)
		}
	case CellFloat:
		if s.F = a.takeFloat(n); s.F != nil {
			hit = true
		} else {
			s.F = make([]float64, n)
		}
	case CellPtr:
		if s.P = a.takePtr(n); s.P != nil {
			hit = true
		} else {
			s.P = make([]Pointer, n)
		}
	case CellMixed:
		// Mixed (struct) segments reuse each backing slice independently;
		// count the allocation as reused only when all three hit.
		s.I, s.F, s.P = a.takeInt(n), a.takeFloat(n), a.takePtr(n)
		hit = s.I != nil && s.F != nil && s.P != nil
		if s.I == nil {
			s.I = make([]int64, n)
		}
		if s.F == nil {
			s.F = make([]float64, n)
		}
		if s.P == nil {
			s.P = make([]Pointer, n)
		}
	}
	if hit {
		a.reused++
	} else {
		a.fresh++
	}
	return s
}

// Release poisons s — backing slices dropped, freed flag set, exactly
// the observable state free() leaves behind — and parks the reclaimed
// storage for reuse. Segments already freed by the guest have nothing
// left to reclaim; their storage was dropped for good at free() time so
// stale-pointer traps stay truthful for the rest of the run.
func (a *Arena) Release(s *Segment) {
	if s == nil || s.freed.Swap(true) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if s.I != nil {
		a.ints[len(s.I)] = append(a.ints[len(s.I)], s.I)
		a.recycled++
	}
	if s.F != nil {
		a.floats[len(s.F)] = append(a.floats[len(s.F)], s.F)
		a.recycled++
	}
	if s.P != nil {
		// Pointer cells keep *Segment references alive; the slice was
		// cleared on reuse anyway, but clear it now so released segments
		// from the previous run become collectible immediately.
		clear(s.P)
		a.ptrs[len(s.P)] = append(a.ptrs[len(s.P)], s.P)
		a.recycled++
	}
	s.I, s.F, s.P = nil, nil, nil
}
