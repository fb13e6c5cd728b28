package main

import (
	"fmt"
	"time"

	"purec/internal/ast"
	"purec/internal/core"
	"purec/internal/parser"
	"purec/internal/poly"
	"purec/internal/preproc"
	"purec/internal/purity"
	"purec/internal/scop"
	"purec/internal/sema"
	"purec/internal/transform"
	"purec/internal/vra"
)

// stage is one timed step of the staged front end.
type stage struct {
	layer, name string
	start       time.Time
	dur         time.Duration
}

// stagedResult is what the stage-by-stage front end produced and how
// long each stage took.
type stagedResult struct {
	art    *core.Artifact
	stages []stage
	total  time.Duration
	// deps is the time of poly.AnalyzeDeps over the detected nests, when
	// asked for; it is extra work outside the stages.
	deps time.Duration
	// parallelNests counts the nests transform gave a parallel level.
	parallelNests int
	sourceBytes   int
}

// first returns the duration of the first stage with the given name: the
// pass over the user's source, not the restart on the generated file.
func (r *stagedResult) first(name string) time.Duration {
	for _, s := range r.stages {
		if s.name == name {
			return s.dur
		}
	}
	return 0
}

// stagedFront re-executes core.Front stage by stage, in core.Front's own
// order, through the stages' public functions, timing each: the layers
// are measured from outside. It must stay a transcription of core.Front
// for cfg.Parallelize and ModePure — TestStagedFrontMatchesCore compares
// the two artifacts. withDeps also times poly.AnalyzeDeps on the detected
// nests (transform.Parallelize runs it again inside).
func stagedFront(src string, cfg core.Config, withDeps bool) (*stagedResult, error) {
	r := &stagedResult{art: &core.Artifact{}}
	res := r.art
	begin := time.Now()
	var at time.Time
	enter := func() { at = time.Now() }
	leave := func(layer, name string) {
		r.stages = append(r.stages, stage{layer, name, at, time.Since(at)})
	}

	enter()
	res.Stages.Original = src
	stripped, includes := preproc.StripSystemIncludes(src)
	res.Stages.Stripped = stripped
	ex := &preproc.Expander{Files: cfg.Files}
	for k, v := range cfg.Defines {
		ex.Define(k, v)
	}
	expanded, err := ex.Expand(stripped)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %v", err)
	}
	res.Stages.Expanded = expanded
	leave("preproc", "preproc.Expand")
	r.sourceBytes = len(expanded)

	enter()
	file, err := parser.Parse(cfg.FileName, expanded)
	if err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	leave("parser", "parser.Parse")

	enter()
	info, err := sema.Check(file)
	if err != nil {
		return nil, fmt.Errorf("check: %v", err)
	}
	leave("sema", "sema.Check")

	enter()
	pres := purity.Check(info)
	if err := pres.Err(); err != nil {
		return nil, fmt.Errorf("purity check: %v", err)
	}
	for name := range pres.PureFuncs {
		res.Pure = append(res.Pure, name)
	}
	leave("purity", "purity.Check")

	enter()
	early := vra.Analyze(info)
	leave("vra", "vra.Analyze")

	enter()
	var oracle scop.AliasOracle
	if !cfg.NoAlias && early.Alias != nil {
		oracle = early.Alias
	}
	sres := scop.DetectWith(info, pres, scop.Options{AllowPureCalls: true, Aliases: oracle})
	if len(sres.Errors) > 0 {
		return nil, fmt.Errorf("scop: %v", sres.Errors[0])
	}
	res.SCoPs = len(sres.SCoPs)
	res.Rejections = sres.Rejections
	leave("scop", "scop.DetectWith")

	if withDeps {
		t0 := time.Now()
		for _, sc := range sres.SCoPs {
			poly.AnalyzeDeps(sc.Nest)
		}
		r.deps = time.Since(t0)
	}

	enter()
	markBoundedStars(sres.SCoPs, early)
	scop.MarkPragmas(sres.SCoPs)
	subs := make([][]scop.Substitution, len(sres.SCoPs))
	for i, sc := range sres.SCoPs {
		subs[i] = scop.SubstituteCalls(sc)
	}
	res.Stages.Marked = ast.Print(file)
	leave("core", "core.mark")

	enter()
	rep, err := transform.Parallelize(sres.SCoPs, cfg.Transform)
	if err != nil {
		return nil, fmt.Errorf("polyhedral transform: %v", err)
	}
	res.Report = rep
	leave("transform", "transform.Parallelize")
	for _, l := range rep.Loops {
		if l.ParallelLevel >= 0 {
			r.parallelNests++
		}
	}

	enter()
	for i, sc := range sres.SCoPs {
		scop.RestoreCalls(sc, subs[i])
	}
	res.Stages.Transformed = ast.Print(file)
	leave("core", "core.restore")

	enter()
	lowered, err := parser.Parse(cfg.FileName, res.Stages.Transformed)
	if err != nil {
		return nil, fmt.Errorf("transformed source does not reparse: %v", err)
	}
	leave("parser", "parser.Parse")
	enter()
	core.StripPure(lowered)
	res.Stages.Final = preproc.ReinsertSystemIncludes(ast.Print(lowered), includes)
	leave("core", "core.lower")

	enter()
	finalFile, err := parser.Parse(cfg.FileName, res.Stages.Transformed)
	if err != nil {
		return nil, fmt.Errorf("final source does not reparse: %v", err)
	}
	leave("parser", "parser.Parse")
	enter()
	finalInfo, err := sema.Check(finalFile)
	if err != nil {
		return nil, fmt.Errorf("final source does not re-check: %v", err)
	}
	res.Info = finalInfo
	leave("sema", "sema.Check")
	enter()
	res.VRA = vra.Analyze(finalInfo)
	res.VRA.Findings = early.Findings
	leave("vra", "vra.Analyze")
	enter()
	for name := range purity.Memoizable(finalInfo) {
		res.Memoizable = append(res.Memoizable, name)
	}
	leave("purity", "purity.Memoizable")

	r.total = time.Since(begin)
	return r, nil
}

// markBoundedStars is core's unexported helper of the same name: a star
// read the analysis proved in bounds may be parallelized.
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
