package core

import (
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/ast"
	"purec/internal/comp"
	"purec/internal/omp"
	"purec/internal/parser"
	"purec/internal/purity"
	"purec/internal/scop"
	"purec/internal/sema"
	"purec/internal/transform"
	"purec/internal/vra"
)

// TestEmittedReductionsBind: every reduction clause transform writes
// binds under omp.Bind — the reading of the compiler and of the
// interpreter — to the very update statement scop tagged for it. The
// chain runs by hand up to transform, so the tagged statements are at
// hand; its printed text must be Front's. Each build also compiles
// under its backend, whose compiler binds the clauses again.
func TestEmittedReductionsBind(t *testing.T) {
	type build struct {
		s   apps.Sample
		cfg Config
	}
	var builds []build
	for _, s := range apps.Corpus() {
		for _, tr := range []transform.Options{{}, {Tile: true}, {Skew: true}, {Tile: true, Skew: true}} {
			for _, be := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
				builds = append(builds, build{s, Config{FileName: "t.c", Parallelize: true, Backend: be, Transform: tr, Defines: s.Defines}})
			}
		}
	}
	for _, s := range restoreSample(t) {
		builds = append(builds, build{s, Config{FileName: "t.c", Parallelize: true, Defines: s.Defines}})
	}
	// Clamping a body-local private is no accumulator update: scop once
	// recognized it as one, and transform wrote a reduction(max:j) that
	// nothing could bind, so the program did not compile.
	builds = append(builds, build{apps.Sample{Name: "private-clamp", Src: `int d[100];
int main(void) {
    for (int i = 0; i < 100; i++)
        d[i] = i - 50;
    for (int i = 0; i < 100; i++) {
        int j = d[i];
        if (j < 0) j = 0;
    }
    return 0;
}
`}, Config{FileName: "t.c", Parallelize: true}})
	clauses := 0
	for _, b := range builds {
		name := b.s.Name
		art, err := Front(b.s.Src, b.cfg)
		if generated := strings.HasPrefix(name, "oracle-") || strings.HasPrefix(name, "alias-"); err != nil && generated {
			continue // the generators draw programs the front end refuses
		} else if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := art.Compile(b.cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		file, err := parser.Parse(b.cfg.FileName, art.Stages.Expanded)
		if err != nil {
			t.Fatal(err)
		}
		info, err := sema.Check(file)
		if err != nil {
			t.Fatal(err)
		}
		early := vra.Analyze(info)
		var oracle scop.AliasOracle
		if early.Alias != nil {
			oracle = early.Alias
		}
		sres := scop.DetectWith(info, purity.Check(info), scop.Options{AllowPureCalls: true, Aliases: oracle})
		tagged := map[ast.Stmt]*scop.SCoP{}
		for _, sc := range sres.SCoPs {
			for _, st := range sc.Nest.Stmts {
				for _, a := range st.Accesses() {
					if a.Reduction {
						tagged[sc.BodyStmts[st.Seq]] = sc
					}
				}
			}
		}
		markBoundedStars(sres.SCoPs, early)
		scop.MarkPragmas(sres.SCoPs)
		subs := make([][]scop.Substitution, len(sres.SCoPs))
		for i, sc := range sres.SCoPs {
			subs[i] = scop.SubstituteCalls(sc)
		}
		if _, err := transform.Parallelize(sres.SCoPs, b.cfg.Transform); err != nil {
			t.Fatal(err)
		}
		for i, sc := range sres.SCoPs {
			scop.RestoreCalls(sc, subs[i])
		}
		if text, err := ast.PrintPlaced(file, 0, 0); err != nil || text != art.Stages.Transformed {
			t.Fatalf("%s %+v: the chain by hand prints other text than Front", name, b.cfg.Transform)
		}
		final, err := sema.Check(file)
		if err != nil {
			t.Fatal(err)
		}

		ast.Walk(file, func(n ast.Node) bool {
			blk, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, s := range blk.List {
				pr, isPragma := s.(*ast.PragmaStmt)
				if !isPragma || i+1 == len(blk.List) {
					continue
				}
				f, isFor := blk.List[i+1].(*ast.ForStmt)
				if !isFor {
					continue
				}
				r, err := omp.Bind(final, pr, f)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, b.cfg.Transform, err)
				}
				if r == nil {
					continue // no omp parallel for
				}
				for j, c := range r.Reductions {
					clauses++
					site := r.Sites[j]
					if site == nil || !taggedFor(tagged, site, c.Var) {
						t.Errorf("%s %+v: %s binds %s to %v, not to the update scop tagged", name, b.cfg.Transform, pr.Text, c, site)
					}
				}
			}
			return true
		})
	}
	t.Logf("%d builds, %d emitted clauses bound", len(builds), clauses)
	if clauses == 0 {
		t.Fatal("no build emitted a reduction clause")
	}
}

// taggedFor reports whether site lies in a statement scop tagged as a
// reduction update of a nest that reduces v.
func taggedFor(tagged map[ast.Stmt]*scop.SCoP, site *ast.Ident, v string) bool {
	for s, sc := range tagged {
		in := false
		ast.Walk(s, func(n ast.Node) bool {
			in = in || n == site
			return !in
		})
		if !in {
			continue
		}
		for _, r := range sc.Reductions {
			if r.Var == v {
				return true
			}
		}
	}
	return false
}
