// Package core drives the paper's complete compiler chain (Fig. 1):
//
//	C source
//	  → PC-PrePro   strip #include <...>            (internal/preproc)
//	  → GCC-E       expand macros and local includes (internal/preproc)
//	  → PC-CC       parse, type check, verify pure functions, mark SCoPs,
//	                substitute pure calls by tmpConst_* placeholders
//	                (internal/{parser,sema,purity,scop})
//	  → polycc      polyhedral transformation, OpenMP/simd pragma
//	                insertion (internal/{poly,transform})
//	  → restore     re-insert the substituted calls
//	  → PC-PosPro   re-insert system includes, lower pure to plain C
//	                (pure pointers become const, function purity is
//	                erased), exactly as described in Sect. 3.2
//	  → "GCC/ICC"   restart the front end on the generated source and
//	                compile to an executable machine (internal/comp)
//
// Per the paper, the chain restarts from the beginning on the transformed
// source ("we start the GCC toolchain from the beginning with the program
// file built at the end of our compiler pass"), so the executed program
// is exactly the printed artifact. Front parses, checks and analyzes
// once and keeps that guarantee as an invariant: printing the
// transformed source places the working tree where the text puts it, so
// the tree it compiles is the tree parsing the artifact builds — the
// tree DiskCache.Load does build — node for node and position for
// position, and the semantic model it brings up to date from the
// rewrites is the one checking that tree builds.
package core

import (
	"fmt"
	"io"
	"sync/atomic"

	"purec/internal/ast"
	"purec/internal/comp"
	"purec/internal/parser"
	"purec/internal/preproc"
	"purec/internal/purity"
	"purec/internal/rt"
	"purec/internal/scop"
	"purec/internal/sema"
	"purec/internal/transform"
	"purec/internal/vra"
)

// Mode selects which parallelizer the chain models.
type Mode int

// Parallelizer modes.
const (
	// ModePure is the paper's chain: loop bodies may call verified pure
	// functions (and malloc/free).
	ModePure Mode = iota
	// ModePluTo models the classic polyhedral tool on its own: any
	// function call in a loop body disqualifies the nest, so only
	// manually inlined code is transformed (Sect. 4.2).
	ModePluTo
)

// Config controls one pipeline run. The compile-relevant fields (Mode,
// Defines, Files, Parallelize, Transform, Backend, Vectorize, NoAlias,
// Memoize, MemoCapacity) form the
// content-addressed program-cache key; TeamSize, Stdout and the cache
// controls are run state and never affect the compiled Program.
type Config struct {
	// Mode selects pure-aware (default) or classic polyhedral
	// parallelization.
	Mode Mode
	// FileName labels diagnostics.
	FileName string
	// Defines are injected object-like macros (like -DN=4096).
	Defines map[string]string
	// Files resolves local #include "..." directives.
	Files map[string]string
	// Parallelize enables the SCoP/polyhedral stages; when false the
	// pipeline produces the sequential baseline build.
	Parallelize bool
	// Transform configures the polyhedral stage (tiling, skewing,
	// schedule clause).
	Transform transform.Options
	// Backend selects the GCC or ICC compile analog.
	Backend comp.Backend
	// Engine is ignored: every Program runs on the tape.
	//
	// Deprecated: kept until callers stop setting it.
	//lint:cachekey deprecated and ignored: every engine builds the same tape Program
	Engine comp.Engine
	// Vectorize enables the PluTo-SICA SIMD analog: fused-kernel
	// compilation of canonical reduction loops anywhere in the program.
	Vectorize bool
	// NoAlias disables the points-to analysis (alias resolution is on
	// by default): the SCoP detector then treats every pointer-based
	// access conservatively, so nests reading or writing through
	// pointers stay serial and their checks stay in place. Results are
	// bit-identical either way; the knob exists for A/B measurement and
	// for debugging the analysis.
	// Compile-relevant: part of the program-cache key.
	NoAlias bool
	// Memoize wraps calls of memoizable pure functions (scalar
	// signature, global-free body) behind a concurrency-safe memo table
	// shared by every Process of the compiled Program. Compile-relevant:
	// part of the program-cache key.
	Memoize bool
	// MemoCapacity bounds the memo table entry count (0 means the
	// memo package default).
	MemoCapacity int
	// TeamSize is the OpenMP thread-count analog (cores in the paper's
	// figures).
	//lint:cachekey run state: sizes the Process team, never the Program
	TeamSize int
	// Stdout receives printf output of the compiled program.
	//lint:cachekey run state: seeds the Process, never the Program
	Stdout io.Writer
	// NoCache bypasses the program cache for this build.
	//lint:cachekey cache control: decides whether to consult the cache, not what is compiled
	NoCache bool
	// Cache overrides the cache used for this build (nil means the
	// package-level DefaultCache).
	//lint:cachekey cache control: selects which cache to consult, not what is compiled
	Cache *ProgramCache
}

// Stages holds the source snapshots after each chain stage of Fig. 1.
type Stages struct {
	Original    string
	Stripped    string // after PC-PrePro
	Expanded    string // after GCC-E
	Marked      string // after PC-CC (scop pragmas + tmpConst_ substitution)
	Transformed string // after polycc + call restoration
	Final       string // after PC-PosPro (includes back, pure lowered)
}

// Artifact is the output of the pipeline front end (everything up to
// and including PC-PosPro): the per-stage source snapshots, the pass
// reports and the checked semantic model of the final source. It is
// immutable once returned and safe to share between builds.
type Artifact struct {
	Stages Stages
	// Pure lists the verified pure functions.
	Pure []string
	// Memoizable lists the pure functions whose calls a memoizing build
	// serves from the memo table (scalar signature, global-free body).
	Memoizable []string
	// SCoPs is the number of loop nests handed to the polyhedral stage.
	SCoPs int
	// Rejections explains loops that were considered but not marked.
	Rejections []string
	// Report describes the polyhedral transformations applied.
	Report *transform.Report
	// Info is the semantic model of the final source; the Compile step
	// turns it into an executable comp.Program.
	Info *sema.Info
	// VRA is the one value-range analysis Front runs, on the user's
	// source: its diagnostics, which purecc -analyze reports, and the
	// bounds proofs that decided gather parallelization inside Front
	// (markBoundedStars). Nothing after Front reads the proofs. An
	// Artifact restored by DiskCache.Load has no VRA, and of its Stages
	// only Original and Transformed.
	VRA *vra.Result
}

// Result is a finished build: the front-end artifact plus one compiled
// Program wrapped with one fresh Process as a Machine. The embedded
// Artifact is shared with the program cache — treat its fields
// (Stages, Pure, SCoPs, Rejections, Report, Info) as read-only.
type Result struct {
	Artifact
	// Machine is the executable program: Result.Program plus one
	// Process. For concurrent runs create more Processes from Program.
	Machine *comp.Machine
	// Program is the immutable compile artifact (shared across builds
	// that hit the program cache).
	Program *comp.Program
	// CacheHit reports whether Program came from the program cache.
	CacheHit bool
}

// check rejects option values no stage could honor. The schedule clause
// is printed into the pragmas verbatim and read back by the compile
// step, which falls back to static on a clause it cannot parse; an
// unknown one must fail the build instead of silently running static
// under its own cache key.
func (cfg Config) check() error {
	_, _, err := rt.ParseSchedule(cfg.Transform.Schedule)
	return err
}

// frontRuns counts pipeline front-end entries. Disk-cache restores and
// in-memory hits bypass Front entirely, so the delta of FrontRuns
// across a build is the test- and stats-visible proof that the compile
// chain was (or was not) re-entered.
var frontRuns atomic.Uint64

// FrontRuns returns the number of times the pipeline front end has run
// in this process.
func FrontRuns() uint64 { return frontRuns.Load() }

// Front runs the pipeline front end (PC-PrePro → GCC-E → PC-CC → polycc
// → PC-PosPro) on src, stopping before the executable compile.
func Front(src string, cfg Config) (*Artifact, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	frontRuns.Add(1)
	if cfg.FileName == "" {
		cfg.FileName = "program.c"
	}
	res := &Artifact{}
	res.Stages.Original = src

	// PC-PrePro: remove system includes.
	stripped, includes := preproc.StripSystemIncludes(src)
	res.Stages.Stripped = stripped

	// GCC-E: expand macros and local includes.
	ex := &preproc.Expander{Files: cfg.Files}
	for k, v := range cfg.Defines {
		ex.Define(k, v)
	}
	expanded, err := ex.Expand(stripped)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %v", err)
	}
	res.Stages.Expanded = expanded

	// PC-CC: parse, check, verify purity.
	file, err := parser.Parse(cfg.FileName, expanded)
	if err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	info, err := sema.Check(file)
	if err != nil {
		return nil, fmt.Errorf("check: %v", err)
	}
	pres := purity.Check(info)
	if err := pres.Err(); err != nil {
		return nil, fmt.Errorf("purity check: %v", err)
	}
	for name := range pres.PureFuncs {
		res.Pure = append(res.Pure, name)
	}

	// Value-range analysis, once, on the user's model: its findings
	// carry the positions the user wrote, and its proofs decide which
	// star reads may be parallelized.
	analysis := vra.Analyze(info)

	var edits *sema.Edits
	if cfg.Parallelize {
		// The alias oracle hands the detector the analysis's
		// points-to facts; both run over the same model, so symbols
		// match. The guard keeps a typed-nil oracle out of the
		// interface value.
		var oracle scop.AliasOracle
		if !cfg.NoAlias && analysis.Alias != nil {
			oracle = analysis.Alias
		}
		sres := scop.DetectWith(info, pres, scop.Options{
			AllowPureCalls: cfg.Mode == ModePure,
			Aliases:        oracle,
		})
		if len(sres.Errors) > 0 {
			// Listing-5 violations are hard errors in the paper's pass.
			return nil, fmt.Errorf("scop: %v", sres.Errors[0])
		}
		res.SCoPs = len(sres.SCoPs)
		res.Rejections = sres.Rejections
		// A star read whose subscript interval is proven inside the read
		// array's extent can never trap, so the polyhedral stage may
		// parallelize its nest (gather parallelization). This runs before
		// pragma marking and call substitution so every real call is
		// still visible to the analysis.
		markBoundedStars(sres.SCoPs, analysis)
		scop.MarkPragmas(sres.SCoPs)
		// Temporarily hide the pure calls from the polyhedral stage.
		subs := make([][]scop.Substitution, len(sres.SCoPs))
		for i, sc := range sres.SCoPs {
			subs[i] = scop.SubstituteCalls(sc)
		}
		if res.Stages.Marked, err = ast.PrintLimited(file, preproc.MaxExpansion); err != nil {
			return nil, fmt.Errorf("print marked source: %v", err)
		}
		rep, ed, err := transform.ParallelizeEdits(sres.SCoPs, cfg.Transform)
		if err != nil {
			return nil, fmt.Errorf("polyhedral transform: %v", err)
		}
		res.Report = rep
		edits = ed
		for i, sc := range sres.SCoPs {
			scop.RestoreCalls(sc, subs[i])
		}
	}
	// Size hints: the generated loops and pragmas make Transformed about
	// 1.4 times Marked, and lowering turns "pure " into "const ".
	if res.Stages.Transformed, err = ast.PrintPlaced(file, len(res.Stages.Marked)*3/2, preproc.MaxExpansion); err != nil {
		return nil, fmt.Errorf("print transformed source: %v", err)
	}
	if !cfg.Parallelize {
		res.Stages.Marked = res.Stages.Transformed
	}

	// Restart the chain on the generated file without parsing it: the
	// print placed the working tree, so it is the tree parsing
	// Transformed builds. It keeps the pure markers, which carry the
	// inlining and vectorization facts GCC/ICC would rediscover from the
	// const lowering plus static analysis. The parse's nesting limits
	// still apply, since tiling adds loop levels: a tree that may pass
	// them is parsed after all, and that parse's error is the answer.
	if err := parser.CheckNesting(file, res.Stages.Transformed); err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	// PC-PosPro: lower pure to plain C and re-insert system includes.
	// Stages.Final is the plain-C artifact the paper's chain hands to GCC.
	lowered, err := ast.PrintLowered(file, len(res.Stages.Transformed)*33/32, preproc.MaxExpansion)
	if err != nil {
		return nil, fmt.Errorf("print final source: %v", err)
	}
	res.Stages.Final = preproc.ReinsertSystemIncludes(lowered, includes)
	// The final model is the user's model brought up to date: sema
	// checks only the loops transform built and the statements it
	// edited.
	if edits != nil {
		if err := sema.Recheck(info, edits); err != nil {
			return nil, fmt.Errorf("internal: final source does not re-check: %v", err)
		}
	}
	res.Info = info
	res.VRA = analysis
	for name := range purity.Memoizable(info) {
		res.Memoizable = append(res.Memoizable, name)
	}
	return res, nil
}

// markBoundedStars transfers the analysis' bounds proofs onto the star
// accesses of the detected nests: a proven read is downgraded to
// Bounded (parallelization-safe), an unproven one keeps the derivation
// note for the LoopReport.SerialReason diagnostic.
func markBoundedStars(scops []*scop.SCoP, res *vra.Result) {
	for _, sc := range scops {
		for _, st := range sc.Nest.Stmts {
			for i := range st.Reads {
				a := &st.Reads[i]
				if !a.Star || a.Ref == nil {
					continue
				}
				e, ok := a.Ref.(ast.Expr)
				if !ok {
					continue
				}
				if res.Proven(e) {
					a.Bounded = true
				} else {
					a.Note = res.Note(e)
				}
			}
		}
	}
}

// Compile turns the front-end artifact into an immutable, shareable
// executable Program — the "GCC/ICC" step of Fig. 1.
func (a *Artifact) Compile(cfg Config) (*comp.Program, error) {
	prog, err := comp.CompileProgram(a.Info, comp.Options{
		Backend:      cfg.Backend,
		Vectorize:    cfg.Vectorize,
		Memoize:      cfg.Memoize,
		Memoizable:   a.Memoizable,
		MemoCapacity: cfg.MemoCapacity,
	})
	if err != nil {
		return nil, fmt.Errorf("compile: %v", err)
	}
	return prog, nil
}

// BuildProgram runs the full chain on src and returns the immutable
// Program plus the front-end artifact. Repeated builds of the same
// (source, Config) pair are served from the program cache (unless
// cfg.NoCache is set); hit reports whether this build was.
func BuildProgram(src string, cfg Config) (prog *comp.Program, art *Artifact, hit bool, err error) {
	if cfg.FileName == "" {
		cfg.FileName = "program.c"
	}
	if cfg.NoCache {
		art, err = Front(src, cfg)
		if err != nil {
			return nil, nil, false, err
		}
		prog, err = art.Compile(cfg)
		return prog, art, false, err
	}
	cache := cfg.Cache
	if cache == nil {
		cache = DefaultCache
	}
	return cache.build(src, cfg)
}

// Build runs the full chain on src and pairs the (possibly cached)
// Program with one fresh Process, returned as Result.Machine.
func Build(src string, cfg Config) (*Result, error) {
	prog, art, hit, err := BuildProgram(src, cfg)
	if err != nil {
		return nil, err
	}
	proc, err := prog.NewProcess(comp.ProcOptions{
		Team:   rt.NewTeam(cfg.TeamSize),
		Stdout: cfg.Stdout,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Artifact: *art,
		Machine:  &comp.Machine{Process: proc},
		Program:  prog,
		CacheHit: hit,
	}, nil
}

// StripPure lowers the pure extension to plain C in place: pure pointer
// qualifiers become const and the pure function modifier is removed —
// the exact lowering of Sect. 3.2 ("The pointer prefixes are replaced
// with the const keyword ... we remove the function prefix completely"),
// by the rule ast.PrintLowered prints (ast.LowerPure).
func StripPure(f *ast.File) {
	ast.Walk(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			x.Pure = false
		case *ast.TypeExpr:
			for i := range x.Ptrs {
				x.Ptrs[i] = ast.PtrQual{Const: ast.LowerPure(x, i)}
			}
			x.Const = ast.LowerPure(x, -1)
			x.Pure = false
		}
		return true
	})
}
