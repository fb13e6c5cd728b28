// Package comp compiles checked mini-C programs into linearized
// instruction tapes (tape.go) and executes them.
//
// It plays the role of GCC/ICC in the paper's tool chain (Fig. 1): the
// transformed, pragma-annotated source becomes an executable artifact.
// Two backends model the two compilers of the evaluation:
//
//   - BackendGCC compiles straightforwardly (the GCC -O2 analog);
//   - BackendICC additionally replaces canonical reduction loops inside
//     extracted pure functions by fused kernels operating directly on
//     memory segments — the analog of ICC's automatic vectorization of
//     the extracted dot-product function that the paper credits for the
//     pure+ICC advantage (Sect. 4.3.1). Inlined loop bodies in the
//     surrounding code are not "vectorized", matching the paper's
//     observation that ICC does not vectorize the PluTo-inlined code.
//
// Both inline calls of leaf pure functions — a body that is one return
// expression — on the tape: the arguments evaluate once, and the
// callee's expression compiles over their operands, so a loop calling
// one lifts like the loop written out (inline.go); every other call
// runs on a per-goroutine frame stack (frames.go).
//
// #pragma omp parallel for statements are honored by dispatching loop
// ranges onto an rt.Team with the requested schedule. internal/omp reads
// and validates each pragma — the same reader the interp oracle runs at
// load — so a malformed one is a compile error with the oracle's text.
//
// Compilation output is split along the executable/run-state boundary:
//
//   - Program is the immutable compile artifact (compiled tapes,
//     function table, global layout, backend metadata). It holds no
//     run state and is safe to share between any number of concurrent
//     runs.
//   - Process is one run of a Program: global slot storage, heap,
//     stdout, worker team and rand state. Processes of one Program are
//     independent; running them concurrently is safe as long as each
//     Process is used sequentially.
//   - Machine bundles one Program with one Process for callers that
//     want the classic compile-and-run object; it remains safe for
//     sequential reuse via ResetGlobals.
package comp

import (
	"fmt"
	"io"
	"math"

	"purec/internal/ast"
	"purec/internal/mem"
	"purec/internal/rt"
	"purec/internal/sema"
	"purec/internal/types"
)

// Backend selects the compiler analog.
type Backend int

// Backends.
const (
	BackendGCC Backend = iota
	BackendICC
)

var backendNames = [...]string{"gcc", "icc"}

// String returns the backend name.
func (b Backend) String() string { return backendNames[b] }

// Engine once selected between the tape and a closure-tree statement
// engine.
//
// Deprecated: the tape is the only engine; Engine values are accepted
// and ignored.
type Engine int

// Engine values.
//
// Deprecated: both build the same tape program.
const (
	EngineTape Engine = iota
	EngineClosure
)

// Options configure compilation. Backend and Vectorize shape the
// Program; Team and Stdout seed the initial Process of a Machine built
// with Compile (CompileProgram ignores them).
type Options struct {
	Backend Backend
	// Team executes parallel regions; nil means a single worker.
	//lint:cachekey run state: seeds the initial Process, never the Program
	Team *rt.Team
	// Stdout receives printf output (defaults to os.Stdout).
	//lint:cachekey run state: seeds the initial Process, never the Program
	Stdout io.Writer
	// Vectorize applies the fused-kernel compilation to canonical
	// reduction loops everywhere, not only inside pure functions — the
	// PluTo-SICA SIMD-code-generation analog. BackendICC implies it for
	// pure functions only.
	Vectorize bool
	// Memoize wraps call sites of memoizable pure functions (scalar
	// signature, global-free body — see purity.Memoizable) behind a
	// concurrency-safe memo table shared by every Process of the
	// Program. Referential transparency makes the cached results exact.
	Memoize bool
	// Memoizable optionally supplies the precomputed memoizable set for
	// Memoize (the pipeline already ran the analysis for its artifact);
	// nil means CompileProgram derives it from the checked model itself.
	//lint:cachekey derived deterministically from the hashed source by the purity analysis
	Memoizable []string
	// MemoCapacity bounds the memo table entry count (0 selects
	// memo.DefaultCapacity).
	MemoCapacity int
}

// slotKind is the storage class of a frame slot.
type slotKind int

const (
	slotInt slotKind = iota
	slotFloat
	slotPtr
)

type slot struct {
	kind slotKind
	idx  int
}

// ctrl is the statement control-flow result.
type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// env is the execution environment of one function activation. All run
// state reaches compiled code through the env: frame slots directly,
// globals/heap/stdout/rand via the owning Process. The slots and the
// header itself belong to the frame stack of the goroutine the
// activation runs on (frames.go); parallel workers run on a copy of the
// region's parent activation: private scalar slots, shared segments.
type env struct {
	I []int64
	F []float64
	P []mem.Pointer

	p          *Process
	team       *rt.Team
	inParallel bool

	// fs is the stack this activation was pushed on, and the marks are
	// the slab tops to restore when it pops.
	fs         *frameStack
	mI, mF, mP slabMark

	retI int64
	retF float64
	retP mem.Pointer
}

// arrayAlloc describes a local array or struct allocated at function
// entry.
type arrayAlloc struct {
	slot  int // P slot receiving the base pointer
	kind  mem.CellKind
	cells int
	name  string
}

// cfunc is one compiled function.
type cfunc struct {
	name       string
	decl       *ast.FuncDecl
	nI, nF, nP int
	params     []slot
	arrays     []arrayAlloc
	// tape is the body's main instruction tape.
	tape    *tape
	retKind slotKind
	retVoid bool
	pure    bool
	// memoizable marks verified pure functions whose calls may be served
	// from the memo table (set only when compiling with Options.Memoize).
	memoizable bool
	// leaf caches whether calls of the function can be inlined as an
	// expression (inline.go).
	leaf leafInfo
}

// run executes the function body on its activation.
func (cf *cfunc) run(e *env) { cf.tape.run(e, runOnce, 0, 0, 0) }

func slotFor(sym *sema.Symbol) (slotKind, error) {
	if sym.IsArray() {
		return slotPtr, nil
	}
	return slotForType(sym.Type)
}

func slotForType(t *types.Type) (slotKind, error) {
	switch t.Kind {
	case types.Int:
		return slotInt, nil
	case types.Float:
		return slotFloat, nil
	case types.Ptr:
		return slotPtr, nil
	case types.Struct:
		// struct locals live in a segment referenced from a P slot
		return slotPtr, nil
	}
	return slotInt, fmt.Errorf("unsupported storage type %s", t)
}

func cellKindOf(t *types.Type) (mem.CellKind, error) {
	switch t.Kind {
	case types.Int:
		return mem.CellInt, nil
	case types.Float:
		return mem.CellFloat, nil
	case types.Ptr:
		return mem.CellPtr, nil
	case types.Struct:
		return mem.CellMixed, nil
	case types.Void:
		return mem.CellFloat, nil
	}
	return mem.CellInt, fmt.Errorf("no cell kind for %s", t)
}

// RuntimeError is a trapped execution fault (out-of-bounds access, nil
// dereference, division by zero, bad free).
type RuntimeError struct {
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return "runtime error: " + e.Msg }

func rtPanic(format string, args ...any) {
	panic("purec: " + fmt.Sprintf(format, args...))
}

// addChecked is the compiled pointer-arithmetic path: offset overflow
// traps as a runtime error instead of wrapping past the int range.
func addChecked(p mem.Pointer, n int64) mem.Pointer {
	q, err := p.AddChecked(n)
	if err != nil {
		rtPanic("%v", err)
	}
	return q
}

// addScaled is addChecked for p + i element steps of a multi-cell
// stride: the i·stride product is overflow-checked first, so a wrapped
// product can never smuggle a small in-range offset past AddChecked.
// stride is a compile-time constant ≥ 1.
func addScaled(p mem.Pointer, i, stride int64) mem.Pointer {
	if stride != 1 && (i > math.MaxInt64/stride || i < math.MinInt64/stride) {
		rtPanic("pointer arithmetic overflow: %s + %d*%d elements", p, i, stride)
	}
	return addChecked(p, i*stride)
}
