package comp

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync/atomic"

	"purec/internal/mem"
	"purec/internal/memo"
	"purec/internal/rt"
	"purec/internal/sema"
)

// ProcOptions configure one run of a Program.
type ProcOptions struct {
	// Team executes parallel regions; nil means a single worker.
	Team *rt.Team
	// Stdout receives printf output (defaults to os.Stdout).
	Stdout io.Writer
	// Memo overrides the memo table this Process consults. By default a
	// Process of a memoizing Program shares the Program's table (one
	// cache across all concurrent Processes); pass an explicit table to
	// share results across Programs of the same source instead. It has
	// no effect on a Program compiled without Options.Memoize — call
	// sites carry no memo wrappers there, so the table is never
	// consulted.
	Memo *memo.Table
	// PrivateMemo gives the Process its own fresh memo table sized by
	// the Program's memo options, isolating its cache from siblings.
	// Ignored when Memo is set or the Program does not memoize.
	PrivateMemo bool
}

// Process is the run state of one execution of a Program: global slot
// storage, heap, stdout, worker team and rand state. A Process must be
// used sequentially, but distinct Processes of the same Program are
// fully independent and may run concurrently.
type Process struct {
	prog *Program
	heap mem.Heap

	// global storage
	gI []int64
	gF []float64
	gP []mem.Pointer

	stdout io.Writer
	team   *rt.Team
	// memo serves memoized pure calls; nil when the Program was compiled
	// without memoization. Shared tables are concurrency-safe, so this
	// is the one piece of Process state siblings may share.
	memo *memo.Table
	// root is the frame stack of the goroutine driving the Process and
	// workers[w] the stack of worker w of a parallel region (frames.go).
	// A pooled Process keeps them, so steady-state calls allocate
	// nothing.
	root    frameStack
	workers []*frameStack
	// randState backs rand()/srand(). Atomic so calls from inside
	// parallel regions are race-free (sequentially the CAS never
	// retries, keeping the LCG stream deterministic).
	randState atomic.Uint64
}

// nextRand advances the deterministic LCG and returns the C rand()
// value.
func (p *Process) nextRand() int64 {
	for {
		old := p.randState.Load()
		next := old*6364136223846793005 + 1442695040888963407
		if p.randState.CompareAndSwap(old, next) {
			return int64((next >> 33) & 0x7fffffff)
		}
	}
}

// NewProcess creates a fresh run of the program with globals in the C
// program's initial state.
func (p *Program) NewProcess(opts ProcOptions) (*Process, error) {
	return p.newProcess(opts, nil)
}

// newProcess is NewProcess with an optional arena attached before the
// first allocation, so the global array segments of the very first
// ResetGlobals are already tracked for recycling (the pool's path).
func (p *Program) newProcess(opts ProcOptions, arena *mem.Arena) (*Process, error) {
	pr := &Process{
		prog:   p,
		stdout: opts.Stdout,
		team:   opts.Team,
	}
	if arena != nil {
		pr.heap.SetArena(arena)
	}
	if pr.stdout == nil {
		pr.stdout = os.Stdout
	}
	if pr.team == nil {
		pr.team = rt.NewTeam(1)
	}
	switch {
	case opts.Memo != nil:
		pr.memo = opts.Memo
	case opts.PrivateMemo && p.memoize:
		pr.memo = memo.New(p.memoCap, 0)
	default:
		pr.memo = p.memo
	}
	if err := pr.ResetGlobals(); err != nil {
		return nil, err
	}
	return pr, nil
}

// Program returns the compiled program this process runs.
func (p *Process) Program() *Program { return p.prog }

// SetTeam replaces the worker team (between runs).
func (p *Process) SetTeam(t *rt.Team) { p.team = t }

// Team returns the worker team the process runs parallel regions on.
func (p *Process) Team() *rt.Team { return p.team }

// SetStdout redirects printf output (between runs).
func (p *Process) SetStdout(w io.Writer) {
	if w == nil {
		w = os.Stdout
	}
	p.stdout = w
}

// ArenaStats snapshots the storage-reuse counters of a pooled Process
// (zero for a Process without an arena).
func (p *Process) ArenaStats() mem.ArenaStats {
	if a := p.heap.Arena(); a != nil {
		return a.Stats()
	}
	return mem.ArenaStats{}
}

// Reset returns the Process to the C program's initial state for its
// next pooled run without reallocating what the previous run already
// paid for: every segment of the finished run is poisoned — stale
// pointers keep trapping exactly as after free() — and its backing
// storage is recycled through the arena, globals and constant
// initializers are re-established, the heap counters, the rand stream
// and any stale simulated-time accounting are cleared. The worker team
// is kept. On a Process without an arena, Reset degrades to
// ResetGlobals plus the rand/team reset (fresh allocations, same
// observable state).
func (p *Process) Reset() error {
	p.heap.ReleaseLive()
	p.root.reset()
	p.randState.Store(0)
	if p.team != nil {
		p.team.TakeSim()
	}
	return p.ResetGlobals()
}

// Heap returns allocation statistics.
func (p *Process) Heap() mem.HeapStats { return p.heap.Stats() }

// MemoTable returns the memo table this Process consults (nil when the
// Program was compiled without memoization).
func (p *Process) MemoTable() *memo.Table { return p.memo }

// MemoStats snapshots the memo counters of this Process's table (zero
// when memoization is off).
func (p *Process) MemoStats() memo.Stats {
	if p.memo == nil {
		return memo.Stats{}
	}
	return p.memo.Stats()
}

// ResetGlobals zeroes global storage, re-creates global array segments
// and re-evaluates constant initializers. Run it between measurements so
// each run starts from the C program's initial state. A global array
// over mem.MaxSegmentCells is a *RuntimeError here.
func (p *Process) ResetGlobals() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if err = trapError(r); err == nil {
				panic(r)
			}
		}
	}()
	for i := range p.gI {
		p.gI[i] = 0
	}
	for i := range p.gF {
		p.gF[i] = 0
	}
	for i := range p.gP {
		p.gP[i] = mem.Pointer{}
	}
	if p.gI == nil {
		p.gI = make([]int64, p.prog.nGI)
		p.gF = make([]float64, p.prog.nGF)
		p.gP = make([]mem.Pointer, p.prog.nGP)
	}
	p.heap.Reset()
	for _, g := range p.prog.info.Globals {
		sl := p.prog.globalSlots[g]
		if g.IsArray() {
			cells := 1
			for _, d := range g.Dims {
				cells *= d
			}
			kind, err := cellKindOf(g.ElemType())
			if err != nil {
				return fmt.Errorf("global %s: %v", g.Name, err)
			}
			p.gP[sl.idx] = mem.Pointer{Seg: p.heap.NewSegment(kind, cells, "global "+g.Name)}
			continue
		}
		if g.Decl != nil && g.Decl.Init != nil {
			v, ok := sema.ConstInt(g.Decl.Init)
			if !ok {
				if fv, okf := constFloat(g.Decl.Init); okf {
					if sl.kind == slotFloat {
						p.gF[sl.idx] = fv
						continue
					}
				}
				return fmt.Errorf("global %s: initializer must be constant", g.Name)
			}
			switch sl.kind {
			case slotInt:
				p.gI[sl.idx] = v
			case slotFloat:
				p.gF[sl.idx] = float64(v)
			default:
				if v != 0 {
					return fmt.Errorf("global pointer %s: only 0 initializer supported", g.Name)
				}
			}
		}
	}
	return nil
}

// trapError converts a recovered guest fault into a *RuntimeError, or
// returns nil for a panic that is no guest trap. A Go runtime.Error (a
// raw segment access out of range) already reads "runtime error: …",
// the prefix RuntimeError.Error adds, so it is stripped here once.
func trapError(r any) error {
	switch x := r.(type) {
	case runtime.Error:
		return &RuntimeError{Msg: strings.TrimPrefix(x.Error(), "runtime error: ")}
	case mem.Trap:
		return &RuntimeError{Msg: string(x)}
	case string:
		if msg, ok := strings.CutPrefix(x, "purec: "); ok {
			return &RuntimeError{Msg: msg}
		}
	}
	return nil
}

// RunMain executes main and returns its int result.
func (p *Process) RunMain() (ret int64, err error) {
	return p.CallInt("main")
}

// CallInt calls an int-returning, zero-argument function.
func (p *Process) CallInt(name string) (ret int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if err = trapError(r); err == nil {
				panic(r)
			}
		}
	}()
	cf, ok := p.prog.funcs[name]
	if !ok {
		return 0, fmt.Errorf("function %s not found", name)
	}
	e := p.rootEnv(cf)
	cf.body(e)
	return e.retI, nil
}

// CallFloat calls a float-returning function with the given arguments
// (ints fill int parameters in order, floats fill float parameters,
// pointers fill pointer parameters).
func (p *Process) CallFloat(name string, args ...any) (ret float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if err = trapError(r); err == nil {
				panic(r)
			}
		}
	}()
	cf, ok := p.prog.funcs[name]
	if !ok {
		return 0, fmt.Errorf("function %s not found", name)
	}
	e := p.rootEnv(cf)
	ai := 0
	for _, ps := range cf.params {
		if ai >= len(args) {
			return 0, fmt.Errorf("not enough arguments for %s", name)
		}
		switch ps.kind {
		case slotInt:
			v, ok := args[ai].(int64)
			if !ok {
				return 0, fmt.Errorf("argument %d of %s must be int64", ai, name)
			}
			e.I[ps.idx] = v
		case slotFloat:
			v, ok := args[ai].(float64)
			if !ok {
				return 0, fmt.Errorf("argument %d of %s must be float64", ai, name)
			}
			e.F[ps.idx] = v
		case slotPtr:
			v, ok := args[ai].(mem.Pointer)
			if !ok {
				return 0, fmt.Errorf("argument %d of %s must be mem.Pointer", ai, name)
			}
			e.P[ps.idx] = v
		}
		ai++
	}
	cf.body(e)
	return e.retF, nil
}

// GlobalPtr returns the pointer value of global pointer/array name, for
// test and bench verification.
func (p *Process) GlobalPtr(name string) (mem.Pointer, error) {
	g, ok := p.prog.info.GlobalMap[name]
	if !ok {
		return mem.Pointer{}, fmt.Errorf("no global %s", name)
	}
	sl := p.prog.globalSlots[g]
	if sl.kind != slotPtr {
		return mem.Pointer{}, fmt.Errorf("global %s is not a pointer", name)
	}
	return p.gP[sl.idx], nil
}

// GlobalInt returns the value of an integer global.
func (p *Process) GlobalInt(name string) (int64, error) {
	g, ok := p.prog.info.GlobalMap[name]
	if !ok {
		return 0, fmt.Errorf("no global %s", name)
	}
	sl := p.prog.globalSlots[g]
	if sl.kind != slotInt {
		return 0, fmt.Errorf("global %s is not an int", name)
	}
	return p.gI[sl.idx], nil
}

// GlobalFloat returns the value of a float global.
func (p *Process) GlobalFloat(name string) (float64, error) {
	g, ok := p.prog.info.GlobalMap[name]
	if !ok {
		return 0, fmt.Errorf("no global %s", name)
	}
	sl := p.prog.globalSlots[g]
	if sl.kind != slotFloat {
		return 0, fmt.Errorf("global %s is not a float", name)
	}
	return p.gF[sl.idx], nil
}
