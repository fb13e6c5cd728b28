package comp

import (
	"fmt"
	"math"

	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/memo"
	"purec/internal/purity"
	"purec/internal/sema"
	"purec/internal/types"
)

// Program is an immutable, concurrency-safe compile artifact: the
// compiled function tapes, the global storage layout and the backend
// metadata. A Program holds no run state — globals, heap, stdout, team
// and rand state live in a Process — so any number of Processes of one
// Program may execute concurrently. The one concurrency-safe mutable
// attachment is the shared memo table (when compiled with
// Options.Memoize): pure-call results are referentially transparent, so
// sharing them across Processes never changes observable behaviour.
type Program struct {
	info      *sema.Info
	backend   Backend
	vectorize bool
	// fusedKernels counts the loops compiled into fused segment-walking
	// kernels (element-wise and reduction shapes), for the purecc
	// "fused kernels: N" report line.
	fusedKernels int
	// inlinedCalls counts the call sites leaf-pure inlining replaced by
	// the callee's return expression, for the "inlined calls: N" line.
	inlinedCalls int
	// tapes lists every compiled tape in compile order and tapeTemps
	// counts the temp registers of all functions, for TapeStats and
	// inspection.
	tapes     []*tape
	tapeTemps int

	funcs       map[string]*cfunc
	globalSlots map[*sema.Symbol]slot
	// global slot counts (the per-Process storage sizes)
	nGI, nGF, nGP int
	// globalSegs and globalInits are the globals' initial state as
	// data: the segments a Process lays out once and zeroes in place
	// per run, and the non-zero constant initial values of scalars.
	globalSegs  []globalSeg
	globalInits []globalInit

	// memoization (Options.Memoize)
	memoize bool
	memoCap int
	memo    *memo.Table
}

// CompileProgram translates a checked program into an immutable Program.
// Options.Team and Options.Stdout are run state and ignored here; pass
// them to NewProcess instead.
func CompileProgram(info *sema.Info, opts Options) (*Program, error) {
	p := &Program{
		info:        info,
		backend:     opts.Backend,
		vectorize:   opts.Vectorize,
		funcs:       map[string]*cfunc{},
		globalSlots: map[*sema.Symbol]slot{},
	}
	if err := p.layoutGlobals(); err != nil {
		return nil, err
	}
	// First pass: create cfunc shells so calls can resolve.
	for _, d := range info.File.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		p.funcs[fd.Name] = &cfunc{name: fd.Name, decl: fd, pure: fd.Pure}
	}
	if opts.Memoize {
		p.memoize = true
		p.memoCap = opts.MemoCapacity
		p.memo = memo.New(opts.MemoCapacity, 0)
		names := opts.Memoizable
		if names == nil {
			for name := range purity.Memoizable(info) {
				names = append(names, name)
			}
		}
		for _, name := range names {
			if cf := p.funcs[name]; cf != nil {
				cf.memoizable = true
			}
		}
	}
	// The tape builds share one scratch, returned to the pool only by a
	// compile that finished (a failed one may have left it mid-function).
	scratch := tapeScratchPool.Get().(*tapeScratch)
	scratch.start()
	// Declaration order keeps the program-wide tape pools deterministic.
	for _, d := range info.File.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || p.funcs[fd.Name].decl != fd {
			continue
		}
		fc := &funcCompiler{prog: p, cf: p.funcs[fd.Name], scratch: scratch}
		if err := fc.compile(); err != nil {
			return nil, err
		}
	}
	scratch.finish(p)
	tapeScratchPool.Put(scratch)
	return p, nil
}

// Backend returns the compile backend analog the program was built with.
func (p *Program) Backend() Backend { return p.backend }

// TapeStats returns the tape size counters: total instruction words,
// pooled constants and temp registers across all function tapes.
func (p *Program) TapeStats() (instrs, consts, temps int) {
	for _, tp := range p.tapes {
		instrs += len(tp.code)
	}
	if len(p.tapes) > 0 {
		consts = len(p.tapes[0].constI) + len(p.tapes[0].constF)
	}
	return instrs, consts, p.tapeTemps
}

// FusedKernels returns the number of loops compiled into fused
// segment-walking kernels.
func (p *Program) FusedKernels() int { return p.fusedKernels }

// InlinedCalls returns the number of call sites compiled as the
// callee's return expression instead of a call (inline.go) — sites
// inside an inlined body included. A loop whose only obstacle to
// fusion was such a call shows up in FusedKernels as well.
func (p *Program) InlinedCalls() int { return p.inlinedCalls }

// ElidedChecks returns 0: every fused operand keeps its per-launch
// range check and every gathered load its per-element compare.
//
// Deprecated: kept until callers stop reading it.
func (p *Program) ElidedChecks() int { return 0 }

// Info returns the semantic model the program was compiled from.
func (p *Program) Info() *sema.Info { return p.info }

// Memo returns the Program-shared memo table, or nil when the program
// was compiled without Options.Memoize.
func (p *Program) Memo() *memo.Table { return p.memo }

// MemoStats snapshots the shared memo table counters (zero when the
// program was compiled without memoization).
func (p *Program) MemoStats() memo.Stats {
	if p.memo == nil {
		return memo.Stats{}
	}
	return p.memo.Stats()
}

// Memoizable returns the sorted-insensitive set of functions whose
// calls are served from the memo table (empty without Options.Memoize).
func (p *Program) Memoizable() []string {
	var out []string
	for name, cf := range p.funcs {
		if cf.memoizable {
			out = append(out, name)
		}
	}
	return out
}

// globalSeg is the template of one global segment (an array or a
// struct): the P slot of its base pointer and the storage every Process
// lays out for it.
type globalSeg struct {
	slot  int
	kind  mem.CellKind
	cells int
	name  string
}

// globalInit is a scalar global's constant initial value, written into
// its slot at the start of every run.
type globalInit struct {
	slot slot
	i    int64
	f    float64
}

// layoutGlobals assigns global slots, records the storage sizes each
// Process must allocate, and folds the globals' segments and constant
// initializers into the template ResetGlobals replays.
func (p *Program) layoutGlobals() error {
	var nI, nF, nP int
	for _, g := range p.info.Globals {
		k, err := slotFor(g)
		if err != nil {
			return fmt.Errorf("global %s: %v", g.Name, err)
		}
		sl := slot{kind: k}
		switch k {
		case slotInt:
			sl.idx = nI
			nI++
		case slotFloat:
			sl.idx = nF
			nF++
		case slotPtr:
			sl.idx = nP
			nP++
		}
		p.globalSlots[g] = sl
		switch {
		case g.IsArray() || g.Type.Kind == types.Struct:
			kind, err := cellKindOf(g.ElemType())
			if err != nil {
				return fmt.Errorf("global %s: %v", g.Name, err)
			}
			p.globalSegs = append(p.globalSegs, globalSeg{sl.idx, kind, g.Cells(), "global " + g.Name})
		case g.Decl != nil && g.Decl.Init != nil:
			in, err := constInit(g, sl)
			if err != nil {
				return err
			}
			if in.i != 0 || math.Float64bits(in.f) != 0 { // -0.0 too
				p.globalInits = append(p.globalInits, in)
			}
		}
	}
	p.nGI, p.nGF, p.nGP = nI, nF, nP
	return nil
}

// constInit folds the initializer of scalar global g, stored in sl.
func constInit(g *sema.Symbol, sl slot) (globalInit, error) {
	in := globalInit{slot: sl}
	v, f, ok := sema.ConstScalar(g.Type, g.Decl.Init)
	switch {
	case !ok:
		return in, fmt.Errorf("global %s: initializer must be constant", g.Name)
	case sl.kind == slotPtr && v != 0:
		return in, fmt.Errorf("global pointer %s: only 0 initializer supported", g.Name)
	}
	in.i, in.f = v, f
	return in, nil
}
