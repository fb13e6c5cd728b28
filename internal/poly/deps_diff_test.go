package poly_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/parser"
	"purec/internal/poly"
	"purec/internal/preproc"
	"purec/internal/purity"
	"purec/internal/scop"
	"purec/internal/sema"
	"purec/internal/vra"
)

// sameDeps compares two dependence lists entry for entry: order,
// endpoints, array, level, kind, reduction flag and every field of every
// distance component.
func sameDeps(got, want []*poly.Dep) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d deps, reference has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Src != w.Src || g.Dst != w.Dst || g.Array != w.Array || g.Level != w.Level ||
			g.Kind != w.Kind || g.Reduction != w.Reduction || !slices.Equal(g.Dist, w.Dist) {
			return fmt.Errorf("dep %d: %s %+v, reference %s %+v", i, g, g.Dist, w, w.Dist)
		}
	}
	return nil
}

// checkNest compares AnalyzeDeps with the reference on n; it reports false
// when the reference found the nest too large to analyze.
func checkNest(t *testing.T, name string, n *poly.Nest) bool {
	t.Helper()
	want, tooBig := poly.RefAnalyzeDeps(n)
	if tooBig {
		return false
	}
	if err := sameDeps(poly.AnalyzeDeps(n), want); err != nil {
		t.Errorf("%s: %v\ndomain: %s", name, err, n.Domain)
	}
	if err := sameDeps(reused.Analyze(n), want); err != nil {
		t.Errorf("%s, on a solver that saw the nests before: %v\ndomain: %s", name, err, n.Domain)
	}
	return true
}

// reused is one solver every nest checkNest compares goes through, so
// nothing a nest leaves in it may change the next one's answer.
var reused poly.DepSolver

// nestsOf runs the front end up to SCoP detection, the way core.Front
// does, and returns the detected nests.
func nestsOf(t *testing.T, name, src string, defines map[string]string) []*poly.Nest {
	t.Helper()
	stripped, _ := preproc.StripSystemIncludes(src)
	ex := &preproc.Expander{}
	for k, v := range defines {
		ex.Define(k, v)
	}
	expanded, err := ex.Expand(stripped)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	file, err := parser.Parse(name, expanded)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	info, err := sema.Check(file)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pres := purity.Check(info)
	if err := pres.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var nests []*poly.Nest
	// With and without the alias oracle: pointer accesses are renamed to
	// their regions in one and stay MayAlias in the other.
	for _, oracle := range []scop.AliasOracle{nil, vra.Analyze(info).Alias} {
		for _, sc := range scop.DetectWith(info, pres, scop.Options{AllowPureCalls: true, Aliases: oracle}).SCoPs {
			nests = append(nests, sc.Nest)
		}
	}
	return nests
}

// exampleSources returns the mini-C programs embedded in examples/*/main.go
// as `const src` raw strings (the other examples build apps sources).
func exampleSources(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	out := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, rest, ok := strings.Cut(string(b), "const src = `")
		if !ok {
			continue
		}
		src, _, _ := strings.Cut(rest, "`")
		out[filepath.Base(filepath.Dir(f))] = src
	}
	return out
}

func TestAnalyzeDepsMatchesReference(t *testing.T) {
	t.Run("apps", func(t *testing.T) {
		nests := 0
		for _, s := range apps.Corpus() {
			for i, n := range nestsOf(t, s.Name, s.Src, s.Defines) {
				if !checkNest(t, fmt.Sprintf("%s#%d", s.Name, i), n) {
					t.Errorf("%s#%d: too large for the reference", s.Name, i)
				}
				nests++
			}
		}
		if nests < 40 {
			t.Errorf("only %d nests detected in the apps corpus", nests)
		}
	})
	t.Run("examples", func(t *testing.T) {
		srcs := exampleSources(t)
		if len(srcs) < 3 {
			t.Fatalf("found %d embedded example sources, want at least 3", len(srcs))
		}
		for name, src := range srcs {
			nests := nestsOf(t, name, src, nil)
			if len(nests) == 0 {
				t.Errorf("%s: no nest detected", name)
			}
			for i, n := range nests {
				if !checkNest(t, fmt.Sprintf("%s#%d", name, i), n) {
					t.Errorf("%s#%d: too large for the reference", name, i)
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		compared, withDeps, skewed := 0, 0, 0
		for i := 0; compared < 2000 && !t.Failed(); i++ {
			if testing.Short() && compared == 200 {
				return // the reference takes milliseconds per nest
			}
			n := randomNest(rng)
			name := fmt.Sprintf("random#%d", i)
			if !checkNest(t, name, n) {
				continue
			}
			compared++
			deps := poly.AnalyzeDeps(n)
			if len(deps) > 0 {
				withDeps++
			}
			if n.Depth() >= 2 && rng.Intn(2) == 0 {
				f, ok := poly.LegalSkew(deps, 0)
				if !ok || f == 0 {
					f = int64(1 + rng.Intn(2))
				}
				if checkNest(t, name+"/skewed", poly.ApplySkew(n, 0, f)) {
					skewed++
				}
			}
		}
		// The generator must keep exercising the interesting half.
		if withDeps < 1000 || skewed < 400 {
			t.Errorf("%d nests with dependences, %d skewed: generator too tame", withDeps, skewed)
		}
	})
}

// randomNest draws a nest of depth 1–3 with 1–3 statements: rectangular,
// symbolic and triangular bounds, subscript coefficients in [-3,3],
// parameter terms, scalar and array reductions and star accesses.
func randomNest(rng *rand.Rand) *poly.Nest {
	// Depth 3 is drawn less often and with sparser subscripts below: the
	// reference's elimination grows doubly exponentially on dense ones.
	iters := []string{"i", "j", "k"}[:1+(rng.Intn(8)+2)/4]
	params := []string{"N", "M"}
	n := &poly.Nest{Iters: iters, Params: params, Domain: poly.NewSystem()}
	small := func() poly.Affine { return poly.NewAffine(int64(rng.Intn(3))) }
	for k, it := range iters {
		lo, hi := small(), poly.Var(params[rng.Intn(2)]).Sub(poly.NewAffine(int64(rng.Intn(3))))
		shape := rng.Intn(4)
		if k == 2 && rng.Intn(2) == 0 {
			shape = 3 // depth 3 is mostly rectangular in k
		}
		switch shape {
		case 0:
			hi = poly.NewAffine(int64(4 + rng.Intn(8)))
		case 1: // triangular from below
			if k > 0 {
				lo = poly.Var(iters[rng.Intn(k)]).Add(small())
			}
		case 2: // triangular from above
			if k > 0 {
				hi = poly.Var(iters[rng.Intn(k)]).Scale(int64(1 + rng.Intn(2))).Add(small())
			}
		}
		n.Domain.AddLowerBound(it, lo)
		n.Domain.AddUpperBound(it, hi)
	}
	sub := func() poly.Affine {
		a := poly.NewAffine(int64(rng.Intn(7) - 3))
		for _, it := range iters {
			if rng.Intn(len(iters)) > 0 {
				continue
			}
			c := int64(rng.Intn(7) - 3)
			if len(iters) == 3 && rng.Intn(3) > 0 {
				c = int64(rng.Intn(3) - 1)
			}
			a = a.Add(poly.Var(it).Scale(c))
		}
		if rng.Intn(5) == 0 {
			a = a.Add(poly.Var(params[rng.Intn(2)]).Scale(int64(rng.Intn(3) - 1)))
		}
		return a
	}
	dims := map[string]int{"A": 1, "B": 2, "C": 1 + rng.Intn(2)}
	if len(iters) == 3 {
		dims["B"] = 1
	}
	access := func(write bool) poly.Access {
		arr := []string{"A", "B", "C"}[rng.Intn(3)]
		a := poly.Access{Array: arr, Write: write}
		if rng.Intn(8) == 0 {
			a.Star, a.Expr = true, arr+"[idx[i]]"
			return a
		}
		d := dims[arr]
		if rng.Intn(20) == 0 {
			d = 3 - d // a rank mismatch: the pair is skipped
		}
		for ; d > 0; d-- {
			a.Subs = append(a.Subs, sub())
		}
		return a
	}
	for s := 0; s < 1+rng.Intn(3); s++ {
		st := &poly.Statement{ID: s, Seq: s, Label: fmt.Sprintf("S%d", s)}
		switch rng.Intn(6) {
		case 0: // scalar reduction: s += ...
			acc := poly.Access{Array: "s", Reduction: true}
			st.Reads = append(st.Reads, acc)
			acc.Write = true
			st.Writes = append(st.Writes, acc)
		case 1: // array reduction through a data-dependent subscript
			acc := poly.Access{Array: "H", Star: true, Reduction: true, Expr: "H[idx[i]]"}
			st.Reads = append(st.Reads, acc)
			acc.Write = true
			st.Writes = append(st.Writes, acc)
		default:
			st.Writes = append(st.Writes, access(true))
		}
		for r := rng.Intn(3); r > 0; r-- {
			st.Reads = append(st.Reads, access(false))
		}
		n.Stmts = append(n.Stmts, st)
	}
	return n
}
