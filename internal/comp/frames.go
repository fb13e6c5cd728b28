package comp

import (
	"purec/internal/mem"
	"purec/internal/rt"
)

// Guest activations live on a frame stack instead of the Go heap. Each
// goroutine that executes guest code owns one: the Process root (the
// goroutine calling RunMain/CallInt/CallFloat) and every worker of a
// parallel region. A call pushes the callee's frame — slot slices
// carved from chunked slabs, sized from cfunc.nI/nF/nP and zeroed like
// make() zeroes, plus a recycled env header — and pops it once the
// caller has read the return value. Nothing is allocated after the
// stack has grown to the program's deepest call, and a slab chunk is
// never moved or resized while a frame points into it (the tape engine
// hoists e.I/e.F/e.P into locals for a whole activation).
//
// A guest trap unwinds through Go panics without popping; reset()
// discards whatever it left behind, so entry points and region chunks
// reset before they push.

// A slab's first chunk holds slabCells cells and each further chunk
// twice the one before, up to slabCells<<slabDoublings: a Process that
// only ever runs shallow calls keeps well under a KiB per stack (a
// daemon pools hundreds of them), deep recursion reaches large chunks
// in a few steps. A frame larger than its chunk gets a chunk of its
// own size.
const (
	slabCells     = 16
	slabDoublings = 8
)

// slab is a chunked bump allocator for one slot kind.
type slab[T any] struct {
	chunks   [][]T
	cur, off int // next free cell is chunks[cur][off]
}

// slabMark is a slab position to pop back to.
type slabMark struct{ cur, off int }

func (s *slab[T]) mark() slabMark { return slabMark{s.cur, s.off} }

func (s *slab[T]) release(m slabMark) { s.cur, s.off = m.cur, m.off }

// take carves n cells off the top; the contents are whatever the last
// frame left there.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if s.cur >= len(s.chunks) || s.off+n > len(s.chunks[s.cur]) {
		s.grow(n)
	}
	fr := s.chunks[s.cur][s.off : s.off+n : s.off+n]
	s.off += n
	return fr
}

// grow moves to the next chunk, allocating or widening it: every frame
// above the current top has been popped, so no live frame points into
// the chunk being replaced.
func (s *slab[T]) grow(n int) {
	if len(s.chunks) > 0 {
		s.cur++
	}
	s.off = 0
	switch {
	case s.cur == len(s.chunks):
		s.chunks = append(s.chunks, make([]T, max(n, slabCells<<min(s.cur, slabDoublings))))
	case len(s.chunks[s.cur]) < n:
		s.chunks[s.cur] = make([]T, n)
	}
}

// frameStack is one goroutine's activation storage.
type frameStack struct {
	i slab[int64]
	f slab[float64]
	p slab[mem.Pointer]
	// envs[:depth] are the live activations, innermost last; headers
	// beyond depth are recycled by the next push.
	envs  []*env
	depth int
	// Every push and pop writes the fields above, and the stacks of a
	// region's workers are allocated back to back: the padding rounds
	// the struct up to the 256-byte size class, so no two stacks share
	// a cache line (or an adjacent-line prefetch pair).
	_ [256 - 152]byte
}

// reset drops every frame, including those a trap left unpopped.
func (fs *frameStack) reset() {
	fs.depth = 0
	fs.i.release(slabMark{})
	fs.f.release(slabMark{})
	fs.p.release(slabMark{})
}

// push opens an activation with nI/nF/nP uninitialized slots. Unbounded
// guest recursion ends here, in a guest trap.
func (fs *frameStack) push(p *Process, team *rt.Team, inParallel bool, nI, nF, nP int) *env {
	if fs.depth >= mem.MaxCallDepth {
		rtPanic("%s", mem.StackOverflow())
	}
	if fs.depth == len(fs.envs) {
		fs.envs = append(fs.envs, &env{fs: fs})
	}
	e := fs.envs[fs.depth]
	fs.depth++
	e.mI, e.mF, e.mP = fs.i.mark(), fs.f.mark(), fs.p.mark()
	e.I, e.F, e.P = fs.i.take(nI), fs.f.take(nF), fs.p.take(nP)
	e.p, e.team, e.inParallel = p, team, inParallel
	e.retI, e.retF, e.retP = 0, 0, mem.Pointer{}
	return e
}

// pop closes the innermost activation. Its header stays readable until
// the next push on this stack.
func (fs *frameStack) pop(e *env) {
	fs.depth--
	fs.i.release(e.mI)
	fs.f.release(e.mF)
	fs.p.release(e.mP)
}

// call opens the activation of cf on the caller's stack: zeroed slots,
// local arrays allocated through the heap (so free-poisoning and the
// arena see them exactly as before).
func (e *env) call(cf *cfunc) *env {
	ne := e.fs.push(e.p, e.team, e.inParallel, cf.nI, cf.nF, cf.nP)
	clear(ne.I)
	clear(ne.F)
	clear(ne.P)
	for _, a := range cf.arrays {
		ne.P[a.slot] = mem.Pointer{Seg: e.p.heap.NewSegment(a.kind, a.cells, a.name)}
	}
	return ne
}

// rootEnv opens the root activation of an entry point on the Process's
// own stack, discarding whatever a trapped earlier run left on it.
func (p *Process) rootEnv(cf *cfunc) *env {
	p.root.reset()
	boot := env{p: p, team: p.team, fs: &p.root}
	return boot.call(cf)
}

// growWorkers makes sure workers 0..n-1 of a parallel region have a
// frame stack. It runs on the launching goroutine before the region
// starts; the workers only index the slice.
func (p *Process) growWorkers(n int) {
	for len(p.workers) < n {
		p.workers = append(p.workers, &frameStack{})
	}
}

// workerEnv is worker w's private copy of the region's parent
// activation (the OpenMP private-variable analog: private scalar
// slots, shared segments). It is the root of the worker's own frame
// stack, so a region allocates per worker, not per chunk.
func (e *env) workerEnv(w int) *env {
	fs := e.p.workers[w]
	fs.reset()
	we := fs.push(e.p, e.team, true, len(e.I), len(e.F), len(e.P))
	copy(we.I, e.I)
	copy(we.F, e.F)
	copy(we.P, e.P)
	return we
}
