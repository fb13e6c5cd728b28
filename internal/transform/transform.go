// Package transform applies the polyhedral schedule to the syntax tree:
// it is the polycc step of the paper's Fig. 1. For every detected SCoP it
// runs dependence analysis, finds parallel loops (after optional skewing,
// the paper's Fig. 2 shearing), optionally tiles permutable bands
// (the PluTo-SICA cache optimization analog), regenerates the loop nest
// from the transformed polyhedron and inserts
// #pragma omp parallel for / #pragma simd annotations that the execution
// backend honors.
package transform

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"purec/internal/ast"
	"purec/internal/poly"
	"purec/internal/scop"
	"purec/internal/sema"
	"purec/internal/token"
)

// Options configure the transformation, mirroring the paper's tool modes.
type Options struct {
	// Tile enables rectangular tiling of permutable bands (PluTo-SICA).
	Tile bool
	// TileSizes are per-level tile sizes when tiling (default 32).
	TileSizes []int
	// Skew enables the shearing transformation when the outermost loop
	// is not parallel (Fig. 2).
	Skew bool
	// Schedule is the OpenMP schedule clause to emit: "" (compiler
	// default, static), "static" or "dynamic,1" (the paper's satellite
	// fix in Sect. 4.3.3).
	Schedule string
	// MinParallelTrip suppresses the OpenMP pragma on loops whose trip
	// count is a compile-time constant below this bound — the
	// profitability heuristic production parallelizers apply so that
	// tiny loops do not pay the fork/join overhead. 0 means the default
	// of 32; negative disables the heuristic.
	MinParallelTrip int
}

// minTrip resolves the effective threshold.
func (o Options) minTrip() int64 {
	switch {
	case o.MinParallelTrip < 0:
		return 0
	case o.MinParallelTrip == 0:
		return 32
	default:
		return int64(o.MinParallelTrip)
	}
}

// LoopReport describes what happened to one SCoP.
type LoopReport struct {
	Func          string
	Depth         int
	Deps          int
	ParallelLevel int // 0-based level given the final loop order; -1 = serial
	Skewed        bool
	SkewFactor    int64
	Tiled         bool
	Pragma        string
	// Reductions lists the recognized reduction clauses of the nest
	// ("+:s" style), mirrored into the emitted pragma.
	Reductions []string
	// SerialReason explains, in one human-readable sentence, why the
	// nest stayed serial (ParallelLevel == -1): a scalar write that is
	// not a recognized reduction, a carried data dependence, an
	// unresolved pointer access, or the minimum-trip profitability
	// heuristic. Empty for parallel nests.
	SerialReason string
	// AliasNotes records the points-to resolution the SCoP detector
	// applied to the nest's pointer-based accesses (exact region, may
	// set, or unknown), mirrored from scop.SCoP.AliasNotes for
	// -emit report diagnostics.
	AliasNotes []string
	// PrivateScalars lists the iteration-private scalar definitions
	// the detector recognized in the body; the ones defined by plain
	// assignment appear in the pragma's private(...) clause.
	PrivateScalars []string
}

// Report summarizes a Parallelize run.
type Report struct {
	Loops []LoopReport
}

// String renders the report for diagnostics.
func (r *Report) String() string {
	var b strings.Builder
	for _, l := range r.Loops {
		fmt.Fprintf(&b, "%s: depth=%d deps=%d parallel@%d skewed=%v tiled=%v %s\n",
			l.Func, l.Depth, l.Deps, l.ParallelLevel, l.Skewed, l.Tiled, l.Pragma)
		if l.SerialReason != "" {
			fmt.Fprintf(&b, "%s: serial: %s\n", l.Func, l.SerialReason)
		}
		for _, n := range l.AliasNotes {
			fmt.Fprintf(&b, "%s: alias: %s\n", l.Func, n)
		}
	}
	return b.String()
}

// Parallelize transforms every SCoP in place and returns the report.
func Parallelize(scops []*scop.SCoP, opts Options) (*Report, error) {
	rep, _, err := ParallelizeEdits(scops, opts)
	return rep, err
}

// ParallelizeEdits is Parallelize that also records what it did to the
// tree, for sema.Recheck: the loops it built, the body statements in
// which it substituted an iterator or a private, and which built
// iterator declarations take over from a declaration of the nest.
func ParallelizeEdits(scops []*scop.SCoP, opts Options) (*Report, *sema.Edits, error) {
	rep := &Report{}
	ed := &sema.Edits{
		Built:      map[*ast.ForStmt]bool{},
		Edited:     map[ast.Stmt]bool{},
		Redeclares: map[*ast.VarDecl]*ast.VarDecl{},
		Rebinds:    map[*ast.VarDecl]bool{},
	}
	// One dependence solver serves every nest, skewed ones included:
	// it keeps its tables from one to the next.
	var ds poly.DepSolver
	for _, sc := range scops {
		lr, err := transformOne(sc, opts, ed, &ds)
		if err != nil {
			return rep, ed, err
		}
		rep.Loops = append(rep.Loops, lr)
		if !slices.Contains(ed.Funcs, sc.Func) {
			ed.Funcs = append(ed.Funcs, sc.Func)
		}
	}
	return rep, ed, nil
}

func transformOne(sc *scop.SCoP, opts Options, ed *sema.Edits, ds *poly.DepSolver) (LoopReport, error) {
	lr := LoopReport{Func: sc.Func.Name, Depth: sc.Nest.Depth(),
		AliasNotes: sc.AliasNotes, PrivateScalars: sc.PrivateScalars}
	nest := sc.Nest
	deps := ds.Analyze(nest)
	lr.Deps = len(deps)
	par := poly.ParallelLevels(nest, deps)

	names := &namer{sc: sc}

	// Shearing when the outer level is serial but can be compensated.
	if opts.Skew && poly.OutermostParallel(par) != 0 && nest.Depth() >= 2 {
		if f, ok := poly.LegalSkew(deps, 0); ok && f > 0 {
			skewed := poly.ApplySkewNamed(nest, 0, f, names.fresh(nest.Iters[1]+"_sk"))
			sdeps := ds.Analyze(skewed)
			spar := poly.ParallelLevels(skewed, sdeps)
			if poly.OutermostParallel(spar) >= 0 || poly.Permutable(skewed, sdeps) {
				rewriteSkewedBody(sc, nest.Iters[0], nest.Iters[1], skewed.Iters[1], f, ed)
				nest, deps, par = skewed, sdeps, spar
				lr.Skewed, lr.SkewFactor = true, f
			}
		}
	}

	// A data-dependent read the value-range analysis could not prove
	// in-bounds may trap mid-nest; running its iterations concurrently
	// would reorder the trap against the stores of other iterations, so
	// the nest is forced serial for trap parity with the interpreter.
	// Proven-bounded star reads (poly.Access.Bounded) cannot trap and
	// impose nothing.
	forced := unprovenStarRead(nest)
	if forced != nil {
		par = make([]bool, len(par))
	}

	// An access through a pointer the alias analysis could not resolve
	// may touch any array: a write through it (or a read beside any
	// array write) could conflict with every other iteration, so the
	// nest is forced serial. Reduction tagging does not exempt such an
	// access — privatizing an accumulator whose target region is
	// unknown could split updates that alias another array in the nest.
	aliased := mayAliasAccess(nest)
	if aliased != nil {
		par = make([]bool, len(par))
	}

	var gen *poly.GenNest
	var err error
	if opts.Tile && poly.Permutable(nest, deps) && nest.Depth() >= 2 {
		sizes := opts.TileSizes
		if len(sizes) == 0 {
			sizes = make([]int, nest.Depth())
			for i := range sizes {
				sizes[i] = 32
			}
		}
		gen, err = poly.Tile(nest, sizes, par, func(it string) string { return names.fresh(it + "T") })
		lr.Tiled = err == nil
	}
	if gen == nil {
		gen, err = poly.Generate(nest, par)
	}
	if err != nil {
		return lr, fmt.Errorf("SCoP in %s: %v", sc.Func.Name, err)
	}

	// Choose the outermost parallel loop for the OpenMP pragma, skipping
	// loops whose constant trip count is too small to amortize the
	// fork/join cost.
	parIdx := -1
	tripSuppressed := false
	for i, l := range gen.Loops {
		if !l.Parallel {
			continue
		}
		if trip, known := constTrip(l); known && trip < opts.minTrip() {
			tripSuppressed = true
			continue
		}
		parIdx = i
		break
	}
	lr.ParallelLevel = parIdx
	for _, r := range sc.Reductions {
		lr.Reductions = append(lr.Reductions, r.Clause().Spec())
	}
	if parIdx < 0 {
		lr.SerialReason = serialReason(nest, deps, forced, aliased, tripSuppressed, opts)
	}

	newLoop, pragma := buildLoops(gen, parIdx, opts, sc, ed)
	lr.Pragma = pragma
	if !replaceStmt(sc.Func.Body, sc.Outer, newLoop) {
		return lr, fmt.Errorf("SCoP in %s: the nest at %s is not in the function body", sc.Func.Name, sc.Outer.Pos())
	}
	for _, l := range sc.Loops {
		for _, n := range []ast.Node{l.For.Init, l.For.Cond, l.For.Post} {
			if n != nil {
				ed.Dropped = append(ed.Dropped, n)
			}
		}
	}
	return lr, nil
}

// namer names the iterators a rewrite adds to a nest: the name asked
// for, or that name with a number appended when the nest already uses
// it. A new loop declaring a name the body reads would capture it, and
// one named like a parameter of the nest would merge the two in the
// polyhedral model.
type namer struct {
	sc    *scop.SCoP
	taken map[string]bool
}

func (n *namer) fresh(base string) string {
	if n.taken == nil {
		n.taken = map[string]bool{}
		note := func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.Ident:
				n.taken[x.Name] = true
			case *ast.VarDecl:
				n.taken[x.Name] = true
			}
			return true
		}
		ast.Walk(n.sc.Outer, note)
		// The pure calls are out of the tree while the nest is rewritten.
		for _, call := range n.sc.PureCalls {
			ast.Walk(call, note)
		}
	}
	name := base
	for k := 1; n.taken[name]; k++ {
		name = fmt.Sprintf("%s%d", base, k)
	}
	n.taken[name] = true
	return name
}

// mayAliasAccess returns the first unresolved pointer access that
// forces the nest serial: any MayAlias write, or a MayAlias read in a
// nest that writes some array (reads cannot conflict with scalar
// accumulators, so a reads-plus-scalar-reduction nest — a dot product
// through pointer operands — stays parallel-eligible).
func mayAliasAccess(nest *poly.Nest) *poly.Access {
	hasArrayWrite := false
	for _, st := range nest.Stmts {
		for i := range st.Writes {
			if !strings.HasPrefix(st.Writes[i].Array, "scalar:") {
				hasArrayWrite = true
			}
		}
	}
	for _, st := range nest.Stmts {
		for i := range st.Writes {
			if st.Writes[i].MayAlias {
				return &st.Writes[i]
			}
		}
		for i := range st.Reads {
			if st.Reads[i].MayAlias && hasArrayWrite {
				return &st.Reads[i]
			}
		}
	}
	return nil
}

// unprovenStarRead returns the first non-reduction star read the
// value-range analysis did not prove in-bounds (nil when every
// data-dependent read is proven or reduction-tagged).
func unprovenStarRead(nest *poly.Nest) *poly.Access {
	for _, st := range nest.Stmts {
		for i := range st.Reads {
			a := &st.Reads[i]
			if a.Star && !a.Reduction && !a.Bounded {
				return a
			}
		}
	}
	return nil
}

// serialReason explains why no loop level carries the OpenMP pragma.
func serialReason(nest *poly.Nest, deps []*poly.Dep, forced, aliased *poly.Access, tripSuppressed bool, opts Options) string {
	// An unresolved pointer is the root cause when present: it forces
	// serialization by itself, and any dependences the analysis also
	// found are keyed to a pointer name that may alias anything — so
	// the alias reason is reported before the dependence reasons.
	if aliased != nil {
		kind := "a read"
		if aliased.Write {
			kind = "a write"
		}
		note := aliased.Note
		if note == "" {
			note = aliased.Via + " may point anywhere"
		}
		return fmt.Sprintf("serialized by %s through unresolved pointer %s: %s (iterations could conflict through the hidden target region)",
			kind, aliased.Via, note)
	}
	// A scalar write that did not qualify as a reduction serializes
	// every level — the most common and most actionable cause, so it is
	// reported next.
	scalars := map[string]bool{}
	arrays := map[string]bool{}
	for _, d := range deps {
		if d.Reduction || d.Level == 0 {
			continue
		}
		if name, ok := strings.CutPrefix(d.Array, "scalar:"); ok {
			scalars[name] = true
		} else {
			arrays[d.Array] = true
		}
	}
	if len(scalars) > 0 {
		return fmt.Sprintf("serialized by scalar write to %s (not a recognized reduction: the accumulator must be a local scalar updated by a single `s op= expr` statement and used nowhere else in the nest)",
			strings.Join(sortedKeys(scalars), ", "))
	}
	if len(arrays) > 0 {
		// Near-miss array reductions get a precise diagnostic: when the
		// serializing array is accessed through data-dependent
		// subscripts (hist[a[i]] = hist[b[i]] + 1), name the offending
		// access instead of the generic array-dependence message.
		for _, name := range sortedKeys(arrays) {
			if msg := starAccessReason(nest, name); msg != "" {
				return msg
			}
		}
		return fmt.Sprintf("serialized by loop-carried dependences on %s",
			strings.Join(sortedKeys(arrays), ", "))
	}
	if forced != nil {
		note := forced.Note
		if note == "" {
			if forced.Index != "" {
				note = forced.Index + " range unknown"
			} else {
				note = "index range unknown"
			}
		}
		return fmt.Sprintf("serialized by read %s: %s", forced.Expr, note)
	}
	if tripSuppressed {
		return fmt.Sprintf("parallel loop suppressed: constant trip count below the profitability threshold (%d)", opts.minTrip())
	}
	return "no dependence-free loop level"
}

// starAccessReason builds the near-miss array-reduction diagnostic for
// one serializing array: it names the un-tagged star access — the read
// or write that kept the nest from qualifying — and the statement it
// sits in. Empty when the array has no star accesses (an ordinary
// affine dependence).
func starAccessReason(nest *poly.Nest, array string) string {
	var offending *poly.Access
	var inStmt string
	// Prefer naming a non-reduction read through a subscript other
	// than the statement's own write target (the common near-miss is
	// a read through a second subscript); then any such read; then
	// the write itself.
	for pass := 0; pass < 3 && offending == nil; pass++ {
		for _, st := range nest.Stmts {
			writeExprs := map[string]bool{}
			for _, w := range st.Writes {
				if w.Array == array {
					writeExprs[w.Expr] = true
				}
			}
			accs := st.Reads
			if pass == 2 {
				accs = st.Writes
			}
			for i := range accs {
				a := &accs[i]
				if a.Array != array || !a.Star || a.Reduction {
					continue
				}
				if pass == 0 && writeExprs[a.Expr] {
					continue // the target's own read-modify-write read
				}
				offending = a
				inStmt = strings.TrimSpace(st.Label)
				break
			}
			if offending != nil {
				break
			}
		}
	}
	if offending == nil {
		return ""
	}
	kind := "read of"
	if offending.Write {
		kind = "write to"
	}
	src := offending.Expr
	if src == "" {
		src = array + "[*]"
	}
	return fmt.Sprintf("serialized by %s %s in %q: %s is updated through a data-dependent subscript, but this access keeps it from qualifying as an array reduction (every access of %s in the nest must be the same `%s[expr] op= e` update of one operator)",
		kind, src, inStmt, array, array, array)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// constTrip computes the loop's trip count when all bounds are constant.
func constTrip(l poly.Loop) (int64, bool) {
	env := map[string]int64{}
	for _, b := range append(append([]poly.Bound{}, l.Lowers...), l.Uppers...) {
		if len(b.Expr.Coef) != 0 {
			return 0, false
		}
	}
	lo := l.LowerEnv(env)
	hi := l.UpperEnv(env)
	return hi - lo + 1, true
}

// rewriteSkewedBody substitutes the skewed iterator in the body
// statements: with jNew = j + f·i every use of j becomes (jNew − f·i).
func rewriteSkewedBody(sc *scop.SCoP, i, j, jNew string, f int64, ed *sema.Edits) {
	subst := func(e ast.Expr) ast.Expr {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != j {
			return e
		}
		return &ast.ParenExpr{LPos: id.Pos(), X: &ast.BinaryExpr{
			X:  &ast.Ident{NamePos: id.Pos(), Name: jNew},
			Op: token.SUB,
			Y: &ast.BinaryExpr{
				X:  &ast.IntLit{Value: f, Text: fmt.Sprintf("%d", f)},
				Op: token.MUL,
				Y:  &ast.Ident{NamePos: id.Pos(), Name: i},
			},
		}}
	}
	for _, stmt := range sc.BodyStmts {
		ast.RewriteExpr(stmt, recording(sc, stmt, ed, subst))
	}
}

// recording wraps the substitution f of the body statement stmt so
// that ed records each expression f replaces as dropped, and stmt as
// edited when f replaces an expression in it. A placeholder of a pure
// call (scop.SubstituteCalls) stands for the call, which is out of the
// tree while the nest is rewritten and goes back in unchanged: f
// applies inside the call's arguments as it does around the
// placeholder.
func recording(sc *scop.SCoP, stmt ast.Stmt, ed *sema.Edits, f func(ast.Expr) ast.Expr) func(ast.Expr) ast.Expr {
	var rec func(ast.Expr) ast.Expr
	rec = func(e ast.Expr) ast.Expr {
		if id, ok := e.(*ast.Ident); ok {
			if call := sc.Placeholder(id.Name); call != nil {
				ast.RewriteExpr(call, rec)
				return e
			}
		}
		r := f(e)
		if r != e {
			ed.Dropped = append(ed.Dropped, e)
			ed.Edited[stmt] = true
		}
		return r
	}
	return rec
}

// buildLoops regenerates the loop nest AST from the generated structure
// and returns it together with the pragma text inserted (if any). ed
// records the loops it builds, each iterator declaration that takes
// over the declaration of an original loop of the nest, and each that
// declares an original iterator no header of the nest declared.
func buildLoops(gen *poly.GenNest, parIdx int, opts Options, sc *scop.SCoP, ed *sema.Edits) (ast.Stmt, string) {
	// Innermost body: the original statements, with affine private
	// scalar definitions forward-substituted into their uses.
	var body ast.Stmt = &ast.BlockStmt{List: substPrivates(sc, ed)}
	pragma := ""
	for k := len(gen.Loops) - 1; k >= 0; k-- {
		l := gen.Loops[k]
		decl := &ast.VarDecl{
			Type: &ast.TypeExpr{Base: ast.Int},
			Name: l.Iter,
			Init: boundsExpr(l.Lowers, true),
		}
		if old, orig := iteratorDecl(sc, l.Iter); old != nil {
			ed.Redeclares[decl] = old
		} else if orig {
			ed.Rebinds[decl] = true
		}
		f := &ast.ForStmt{
			Init: &ast.DeclStmt{Decls: []*ast.VarDecl{decl}},
			Cond: &ast.BinaryExpr{
				X:  &ast.Ident{Name: l.Iter},
				Op: token.LEQ,
				Y:  boundsExpr(l.Uppers, false),
			},
			Post: &ast.PostfixExpr{X: &ast.Ident{Name: l.Iter}, Op: token.INC},
			Body: body,
		}
		ed.Built[f] = true
		var stmts []ast.Stmt
		if k == parIdx {
			pragma = ompPragma(gen, k, opts, sc)
			stmts = append(stmts, &ast.PragmaStmt{Text: pragma})
		} else if k == len(gen.Loops)-1 && l.Vector && l.Parallel && k != parIdx {
			// SICA-style vectorization hint on the innermost loop.
			stmts = append(stmts, &ast.PragmaStmt{Text: "#pragma simd"})
		}
		stmts = append(stmts, f)
		if len(stmts) == 1 {
			body = f
		} else {
			body = &ast.BlockStmt{List: stmts}
		}
	}
	return body, pragma
}

// iteratorDecl reports whether iter is the iterator of an original
// loop of the nest, and returns its declaration in that loop's header,
// nil when the header does not declare it.
func iteratorDecl(sc *scop.SCoP, iter string) (*ast.VarDecl, bool) {
	for _, l := range sc.Loops {
		if l.Iter != iter {
			continue
		}
		if ds, ok := l.For.Init.(*ast.DeclStmt); ok && len(ds.Decls) == 1 {
			return ds.Decls[0], true
		}
		return nil, true
	}
	return nil, false
}

// substPrivates forward-substitutes the SCoP's affine private scalar
// definitions (`int j = i + k;`) into their uses and drops the
// declarations, so a derived-subscript body collapses to the single
// statement the kernel fuser recognizes (and the value-range analysis
// proves directly, since the substituted subscript is affine in the
// iterator). An affine initializer is pure integer arithmetic of
// iterators, parameters and constants: re-evaluating it per use is
// deterministic and cannot trap, so the rewrite is observation- and
// trap-equivalent. Bodies without substitutable decls pass through
// unchanged. ed records the statements the substitution edits.
func substPrivates(sc *scop.SCoP, ed *sema.Edits) []ast.Stmt {
	if len(sc.SubstPrivates) == 0 {
		return sc.BodyStmts
	}
	repl := map[string]ast.Expr{}
	subst := func(e ast.Expr) ast.Expr {
		if id, ok := e.(*ast.Ident); ok {
			if r, ok2 := repl[id.Name]; ok2 {
				return &ast.ParenExpr{X: ast.CloneExpr(r)}
			}
		}
		return e
	}
	out := make([]ast.Stmt, 0, len(sc.BodyStmts))
	for _, s := range sc.BodyStmts {
		if len(repl) > 0 {
			ast.RewriteExpr(s, recording(sc, s, ed, subst))
		}
		if ds, ok := s.(*ast.DeclStmt); ok && len(ds.Decls) == 1 {
			d := ds.Decls[0]
			if _, ok2 := sc.SubstPrivates[d.Name]; ok2 && d.Init != nil && len(d.ArrayLens) == 0 {
				// Record the live (already-substituted) initializer and
				// drop the declaration.
				repl[d.Name] = d.Init
				ed.Dropped = append(ed.Dropped, s)
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// ompPragma builds the OpenMP directive for the parallel loop: the inner
// iterators and the body's assignment-defined private scalars are listed
// private, like the lbv/ubv/t2 clause in the paper's Listing 8, and
// recognized reduction accumulators get a reduction(op:var) clause that
// the execution backends honor via rt.Team.ParallelForReduce.
func ompPragma(gen *poly.GenNest, k int, opts Options, sc *scop.SCoP) string {
	reds := sc.Reductions
	var privates []string
	for i := k + 1; i < len(gen.Loops); i++ {
		privates = append(privates, gen.Loops[i].Iter)
	}
	privates = append(privates, sc.PrivateScalars...)
	sort.Strings(privates)
	s := "#pragma omp parallel for"
	if len(privates) > 0 {
		s += " private(" + strings.Join(privates, ", ") + ")"
	}
	clauses := make([]string, 0, len(reds))
	for _, r := range reds {
		clauses = append(clauses, r.Clause().String())
	}
	sort.Strings(clauses)
	for _, c := range clauses {
		s += " " + c
	}
	if opts.Schedule != "" {
		s += " schedule(" + opts.Schedule + ")"
	}
	return s
}

// boundsExpr folds multiple bounds with imax (lower) or imin (upper).
func boundsExpr(bs []poly.Bound, lower bool) ast.Expr {
	exprs := make([]ast.Expr, len(bs))
	for i, b := range bs {
		exprs[i] = boundExpr(b)
	}
	out := exprs[0]
	fn := "imin"
	if lower {
		fn = "imax"
	}
	for _, e := range exprs[1:] {
		out = &ast.CallExpr{Fun: &ast.Ident{Name: fn}, Args: []ast.Expr{out, e}}
	}
	return out
}

// boundExpr converts one bound to an expression, emitting floord/ceild
// helper calls for divided bounds exactly like PluTo's generated code.
func boundExpr(b poly.Bound) ast.Expr {
	e := affineExpr(b.Expr)
	if b.Div == 1 {
		return e
	}
	fn := "floord"
	if b.Ceil {
		fn = "ceild"
	}
	return &ast.CallExpr{Fun: &ast.Ident{Name: fn}, Args: []ast.Expr{
		e, &ast.IntLit{Value: b.Div, Text: fmt.Sprintf("%d", b.Div)},
	}}
}

// affineExpr renders an affine expression as an AST expression.
func affineExpr(a poly.Affine) ast.Expr {
	var out ast.Expr
	add := func(e ast.Expr, negative bool) {
		if out == nil {
			if negative {
				out = &ast.UnaryExpr{Op: token.SUB, X: e}
			} else {
				out = e
			}
			return
		}
		op := token.ADD
		if negative {
			op = token.SUB
		}
		out = &ast.BinaryExpr{X: out, Op: op, Y: e}
	}
	for _, v := range a.Vars() {
		c := a.Coef[v]
		id := &ast.Ident{Name: v}
		switch {
		case c == 1:
			add(id, false)
		case c == -1:
			add(id, true)
		case c > 0:
			add(&ast.BinaryExpr{X: &ast.IntLit{Value: c, Text: fmt.Sprintf("%d", c)}, Op: token.MUL, Y: id}, false)
		default:
			add(&ast.BinaryExpr{X: &ast.IntLit{Value: -c, Text: fmt.Sprintf("%d", -c)}, Op: token.MUL, Y: id}, true)
		}
	}
	if a.Const != 0 || out == nil {
		neg := a.Const < 0
		v := a.Const
		if neg {
			v = -v
		}
		add(&ast.IntLit{Value: v, Text: fmt.Sprintf("%d", v)}, neg)
	}
	return out
}

// replaceStmt swaps target for repl wherever it appears under s, and
// reports whether it did.
func replaceStmt(s ast.Stmt, target, repl ast.Stmt) bool {
	swap := func(slot *ast.Stmt) bool {
		if *slot == target {
			*slot = repl
			return true
		}
		return *slot != nil && replaceStmt(*slot, target, repl)
	}
	switch x := s.(type) {
	case *ast.BlockStmt:
		for i := range x.List {
			if swap(&x.List[i]) {
				return true
			}
		}
	case *ast.ForStmt:
		return swap(&x.Body)
	case *ast.WhileStmt:
		return swap(&x.Body)
	case *ast.DoStmt:
		return swap(&x.Body)
	case *ast.IfStmt:
		return swap(&x.Then) || swap(&x.Else)
	case *ast.SwitchStmt:
		for _, cl := range x.Cases {
			for i := range cl.Body {
				if swap(&cl.Body[i]) {
					return true
				}
			}
		}
	}
	return false
}
