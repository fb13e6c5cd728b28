// Package purec is the public API of the purec tool chain, a Go
// reproduction of "Pure Functions in C: A Small Keyword for Automatic
// Parallelization" (Süß et al.).
//
// The library extends a C subset with the pure keyword, verifies that
// pure-marked functions are side-effect free, lets a polyhedral
// transformer parallelize loop nests that call such functions, and runs
// the result on an OpenMP-like goroutine runtime.
//
// Quick start (compile and run once):
//
//	res, err := purec.Build(src, purec.Config{
//	    Parallelize: true,
//	    TeamSize:    8,
//	})
//	if err != nil { ... }
//	ret, err := res.Machine.RunMain()
//
// Compilation output is split into an immutable Program and per-run
// Processes, so one compiled artifact can serve many concurrent runs:
//
//	prog, _, _, err := purec.BuildProgram(src, purec.Config{Parallelize: true})
//	if err != nil { ... }
//	for i := 0; i < 8; i++ {
//	    go func() {
//	        proc, err := prog.NewProcess(purec.ProcOptions{})
//	        if err != nil { ... }
//	        ret, err := proc.RunMain()
//	        ...
//	    }()
//	}
//
// Repeated builds of the same (source, Config) pair are served from a
// content-addressed program cache, so the compiler chain runs once per
// distinct input — the paper's toolchain cost is paid per program, not
// per execution.
//
// Building with Config.Memoize extends the same idea to run time:
// calls of memoizable pure functions (scalar signature, global-free
// body — verified purity makes their results referentially
// transparent) are served from a sharded, concurrency-safe memo table
// shared by every Process of the Program, so repeated-argument
// workloads pay one computation per distinct argument tuple.
//
// See examples/ for complete programs and internal/bench for the harness
// that regenerates the paper's figures.
package purec

import (
	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/memo"
	"purec/internal/parser"
	"purec/internal/preproc"
	"purec/internal/purity"
	"purec/internal/sema"
	"purec/internal/transform"
)

// Config configures a Build; see core.Config for field documentation.
type Config = core.Config

// Result is a finished build; Result.Machine executes the program.
type Result = core.Result

// Artifact is the front-end output (per-stage sources + checked model).
type Artifact = core.Artifact

// Stages holds the per-stage source snapshots of the compiler chain.
type Stages = core.Stages

// Program is the immutable, concurrency-safe compile artifact.
type Program = comp.Program

// Process is one run of a Program (globals, heap, stdout, team, rand).
type Process = comp.Process

// ProcOptions configure one Process (worker team, stdout).
type ProcOptions = comp.ProcOptions

// Machine bundles one Program with one Process (sequential reuse).
type Machine = comp.Machine

// ProgramCache is a content-addressed cache of compiled Programs.
type ProgramCache = core.ProgramCache

// MemoTable is the sharded, concurrency-safe memoization table serving
// pure-call results when building with Config.Memoize; see
// ProcOptions.Memo and Program.Memo.
type MemoTable = memo.Table

// MemoStats is a snapshot of memo table counters
// (hits/misses/bypassed/evicted/entries).
type MemoStats = memo.Stats

// NewMemoTable creates a standalone memo table (capacity and shard
// count ≤ 0 select the defaults); set it as ProcOptions.Memo to share
// pure-call results across Programs built from the same source. Every
// participating Program must be built with Config.Memoize — call sites
// of a non-memoizing Program carry no memo wrappers, so the table
// would never be consulted there.
func NewMemoTable(capacity, shards int) *MemoTable {
	return memo.New(capacity, shards)
}

// TransformOptions configures the polyhedral stage (tiling, skewing,
// schedule clause).
type TransformOptions = transform.Options

// Backend selects the compiler analog used for execution.
type Backend = comp.Backend

// Compiler backends.
const (
	BackendGCC = comp.BackendGCC
	BackendICC = comp.BackendICC
)

// Build runs the complete compiler chain of the paper's Fig. 1 on src
// and pairs the compiled Program with one fresh Process as
// Result.Machine. Builds hit the program cache when (src, cfg) was seen
// before.
func Build(src string, cfg Config) (*Result, error) {
	return core.Build(src, cfg)
}

// BuildProgram runs the chain and returns the immutable Program plus
// the front-end artifact; hit reports whether the program cache served
// the build. Create one Process per concurrent run.
func BuildProgram(src string, cfg Config) (prog *Program, art *Artifact, hit bool, err error) {
	return core.BuildProgram(src, cfg)
}

// Front runs only the pipeline front end (preprocess, parse, check,
// purity, SCoP detection, polyhedral transform, lowering), producing
// the artifact a later Compile step can turn into a Program.
func Front(src string, cfg Config) (*Artifact, error) {
	return core.Front(src, cfg)
}

// NewProgramCache creates a standalone program cache holding at most
// max entries; set it as Config.Cache to isolate builds from the
// package-level default cache.
func NewProgramCache(max int) *ProgramCache {
	return core.NewProgramCache(max)
}

// CheckPurity preprocesses and semantically checks src, then runs the
// purity verification pass alone, returning the names of verified pure
// functions. It is the programmatic equivalent of running only the
// PC-PrePro, GCC-E and PC-CC stages.
func CheckPurity(src string) ([]string, error) {
	stripped, _ := preproc.StripSystemIncludes(src)
	expanded, err := preproc.Expand(stripped)
	if err != nil {
		return nil, err
	}
	f, err := parser.Parse("input.c", expanded)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(f)
	if err != nil {
		return nil, err
	}
	pres := purity.Check(info)
	if err := pres.Err(); err != nil {
		return nil, err
	}
	var names []string
	for n := range pres.PureFuncs {
		names = append(names, n)
	}
	return names, nil
}
