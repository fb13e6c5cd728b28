package comp

import (
	"fmt"

	"purec/internal/ast"
	"purec/internal/memo"
	"purec/internal/purity"
	"purec/internal/sema"
)

// Program is an immutable, concurrency-safe compile artifact: the
// compiled function closures, the global storage layout and the backend
// metadata. A Program holds no run state — globals, heap, stdout, team
// and rand state live in a Process — so any number of Processes of one
// Program may execute concurrently. The one concurrency-safe mutable
// attachment is the shared memo table (when compiled with
// Options.Memoize): pure-call results are referentially transparent, so
// sharing them across Processes never changes observable behaviour.
type Program struct {
	info      *sema.Info
	backend   Backend
	engine    Engine
	vectorize bool
	// fusedKernels counts the loops compiled into fused segment-walking
	// kernels (element-wise and reduction shapes), for the purecc
	// "fused kernels: N" report line.
	fusedKernels int
	// inlinedCalls counts the call sites leaf-pure inlining replaced by
	// the callee's return expression, for the "inlined calls: N" line.
	inlinedCalls int
	// proofs is the value-range analysis' proven-in-bounds access set
	// (Options.Proofs), and elidedChecks counts the runtime checks
	// compilation dropped, for the purecc "elided checks: N" report line.
	proofs       map[ast.Expr]bool
	elidedChecks int
	// tapes lists every compiled tape in compile order and tapeTemps
	// counts the temp registers of all functions (EngineTape only), for
	// TapeStats and inspection.
	tapes     []*tape
	tapeTemps int

	funcs       map[string]*cfunc
	globalSlots map[*sema.Symbol]slot
	// global slot counts (the per-Process storage sizes)
	nGI, nGF, nGP int

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
		engine:      opts.Engine,
		vectorize:   opts.Vectorize,
		proofs:      opts.Proofs,
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
	var scratch *tapeScratch
	if p.engine == EngineTape {
		scratch = tapeScratchPool.Get().(*tapeScratch)
		scratch.start()
	}
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
	if scratch != nil {
		scratch.finish(p)
		tapeScratchPool.Put(scratch)
	}
	return p, nil
}

// Backend returns the compile backend analog the program was built with.
func (p *Program) Backend() Backend { return p.backend }

// Engine returns the statement execution engine the program was built
// with.
func (p *Program) Engine() Engine { return p.engine }

// TapeStats returns the linearized-backend size counters: total
// instruction words, pooled constants and temp registers across all
// function tapes (all zero under EngineClosure).
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

// ElidedChecks returns the number of runtime range checks compilation
// dropped on the strength of value-range bounds proofs (0 when built
// without proofs).
func (p *Program) ElidedChecks() int { return p.elidedChecks }

// proven reports whether the access expression carries a bounds proof
// the compiler may act on.
func (p *Program) proven(e ast.Expr) bool {
	return p.proofs[e]
}

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

// layoutGlobals assigns global slots and records the storage sizes each
// Process must allocate.
func (p *Program) layoutGlobals() error {
	var nI, nF, nP int
	for _, g := range p.info.Globals {
		sl, err := slotFor(g)
		if err != nil {
			return fmt.Errorf("global %s: %v", g.Name, err)
		}
		switch sl {
		case slotInt:
			p.globalSlots[g] = slot{slotInt, nI}
			nI++
		case slotFloat:
			p.globalSlots[g] = slot{slotFloat, nF}
			nF++
		case slotPtr:
			p.globalSlots[g] = slot{slotPtr, nP}
			nP++
		}
	}
	p.nGI, p.nGF, p.nGP = nI, nF, nP
	return nil
}
