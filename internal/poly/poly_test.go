package poly

import (
	"testing"
	"testing/quick"

	"purec/internal/parser"
)

// rect builds the 2-D domain 0<=i<ni, 0<=j<nj.
func rect(i, j string, ni, nj int64) *System {
	s := NewSystem()
	s.AddLowerBound(i, NewAffine(0))
	s.AddUpperBound(i, NewAffine(ni-1))
	s.AddLowerBound(j, NewAffine(0))
	s.AddUpperBound(j, NewAffine(nj-1))
	return s
}

func TestAffineArithmetic(t *testing.T) {
	a := Var("i").Scale(2).Add(NewAffine(3)) // 2i+3
	b := Var("i").Sub(Var("j"))              // i-j
	sum := a.Add(b)                          // 3i-j+3
	if sum.CoefOf("i") != 3 || sum.CoefOf("j") != -1 || sum.Const != 3 {
		t.Fatalf("sum: %s", sum)
	}
	if got := sum.Eval(map[string]int64{"i": 2, "j": 5}); got != 4 {
		t.Fatalf("eval: %d", got)
	}
	if s := sum.String(); s != "3*i - j + 3" {
		t.Fatalf("string: %q", s)
	}
}

func TestAffineFromExpr(t *testing.T) {
	classify := func(name string) VarClass {
		switch name {
		case "i", "j":
			return ClassIter
		case "N":
			return ClassParam
		}
		return ClassOther
	}
	cases := []struct {
		src  string
		want string
	}{
		{"i + 1", "i + 1"},
		{"i - 1", "i - 1"},
		{"2 * i + j", "2*i + j"},
		{"N - i - 1", "N - i - 1"},
		{"-(i + j)", "-i - j"},
		{"i * 3", "3*i"},
		{"(i)", "i"},
	}
	for _, c := range cases {
		e, err := parser.ParseExpr(c.src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := FromExpr(e, classify)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if a.String() != c.want {
			t.Errorf("%q: got %q want %q", c.src, a.String(), c.want)
		}
	}
	// non-affine forms
	for _, src := range []string{"i * j", "i / 2", "a[i]", "f(i)", "x"} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FromExpr(e, classify); err == nil {
			t.Errorf("%q: expected ErrNotAffine", src)
		}
	}
}

func TestSystemSatisfiability(t *testing.T) {
	s := rect("i", "j", 10, 10)
	if s.IsEmpty() {
		t.Fatal("rectangle must be non-empty")
	}
	s2 := s.Clone()
	s2.AddGE(Var("i").Sub(NewAffine(20))) // i >= 20 contradicts i <= 9
	if !s2.IsEmpty() {
		t.Fatal("must be empty")
	}
}

func TestEliminationProjection(t *testing.T) {
	// 0<=i<=9, i<=j<=i+2 ; eliminating j keeps 0<=i<=9 satisfiable.
	s := NewSystem()
	s.AddLowerBound("i", NewAffine(0))
	s.AddUpperBound("i", NewAffine(9))
	s.AddLowerBound("j", Var("i"))
	s.AddUpperBound("j", Var("i").Add(NewAffine(2)))
	p := s.Eliminate("j")
	lo, hasLo, hi, hasHi := p.Bounds("i")
	if !hasLo || !hasHi || lo != 0 || hi != 9 {
		t.Fatalf("bounds after projection: [%d(%v), %d(%v)]", lo, hasLo, hi, hasHi)
	}
}

func TestBounds(t *testing.T) {
	s := NewSystem()
	s.AddLowerBound("i", NewAffine(3))
	s.AddUpperBound("i", NewAffine(17))
	lo, hasLo, hi, hasHi := s.Bounds("i")
	if !hasLo || lo != 3 || !hasHi || hi != 17 {
		t.Fatalf("bounds [%d %d]", lo, hi)
	}
}

func TestSymbolicBounds(t *testing.T) {
	// triangular: 0 <= i <= N-1, i <= j <= N-1
	s := NewSystem()
	s.AddLowerBound("i", NewAffine(0))
	s.AddUpperBound("i", Var("N").Sub(NewAffine(1)))
	s.AddLowerBound("j", Var("i"))
	s.AddUpperBound("j", Var("N").Sub(NewAffine(1)))
	lows, ups := s.SymbolicBounds("j", nil)
	if len(lows) != 1 || lows[0].Expr.String() != "i" {
		t.Fatalf("j lowers: %v", lows)
	}
	if len(ups) != 1 || ups[0].Expr.String() != "N - 1" {
		t.Fatalf("j uppers: %v", ups)
	}
}

// Property: FM elimination never loses integer points — any point of the
// original system satisfies the projection (soundness of projection).
func TestEliminationSoundProperty(t *testing.T) {
	f := func(c1, c2, c3 int8, seed uint8) bool {
		s := NewSystem()
		s.AddLowerBound("x", NewAffine(int64(c1)%5))
		s.AddUpperBound("x", NewAffine(int64(c1)%5+7))
		s.AddLowerBound("y", Var("x").Scale(int64(seed%3)-1).Add(NewAffine(int64(c2)%4)))
		s.AddUpperBound("y", Var("x").Add(NewAffine(int64(c3)%6+6)))
		p := s.Eliminate("y")
		// every (x,y) in s must leave x in p
		for x := int64(-10); x <= 20; x++ {
			for y := int64(-20); y <= 30; y++ {
				env := map[string]int64{"x": x, "y": y}
				if s.Satisfies(env) && !p.Satisfies(map[string]int64{"x": x}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- Dependence analysis ---

// stencilNest builds: for i,j in [1,n-2]: B[i][j] = A[i-1][j] + A[i][j-1]
// with A==B (in-place) when inPlace, producing loop-carried deps.
func stencilNest(inPlace bool) *Nest {
	n := &Nest{Iters: []string{"i", "j"}, Params: []string{"n"}}
	s := NewSystem()
	s.AddLowerBound("i", NewAffine(1))
	s.AddUpperBound("i", Var("n").Sub(NewAffine(2)))
	s.AddLowerBound("j", NewAffine(1))
	s.AddUpperBound("j", Var("n").Sub(NewAffine(2)))
	n.Domain = s
	readArr := "A"
	writeArr := "B"
	if inPlace {
		writeArr = "A"
	}
	st := &Statement{ID: 0, Seq: 0}
	st.Writes = []Access{{Array: writeArr, Write: true, Subs: []Affine{Var("i"), Var("j")}}}
	st.Reads = []Access{
		{Array: readArr, Subs: []Affine{Var("i").Sub(NewAffine(1)), Var("j")}},
		{Array: readArr, Subs: []Affine{Var("i"), Var("j").Sub(NewAffine(1))}},
	}
	n.Stmts = []*Statement{st}
	return n
}

func TestNoDepsWithDoubleBuffer(t *testing.T) {
	n := stencilNest(false)
	deps := AnalyzeDeps(n)
	for _, d := range deps {
		if d.Level > 0 {
			t.Fatalf("unexpected carried dep: %v", d)
		}
	}
	par := ParallelLevels(n, deps)
	if !par[0] || !par[1] {
		t.Fatalf("both levels must be parallel: %v", par)
	}
}

func TestInPlaceStencilDeps(t *testing.T) {
	n := stencilNest(true)
	deps := AnalyzeDeps(n)
	if len(deps) == 0 {
		t.Fatal("expected dependences")
	}
	par := ParallelLevels(n, deps)
	if par[0] {
		t.Fatalf("outer loop must be serial: %v", par)
	}
	// Distances (1,0) and (0,1) must appear.
	found10, found01 := false, false
	for _, d := range deps {
		if len(d.Dist) == 2 && d.Dist[0].Known && d.Dist[1].Known {
			if d.Dist[0].Val == 1 && d.Dist[1].Val == 0 {
				found10 = true
			}
			if d.Dist[0].Val == 0 && d.Dist[1].Val == 1 {
				found01 = true
			}
		}
	}
	if !found10 || !found01 {
		t.Fatalf("missing uniform distances; deps: %v", deps)
	}
}

// Fig. 2 of the paper: dependences (1,0),(0,1),(1,-1) admit no
// rectangular tiling, but skewing j' = j + i legalizes it.
func TestSkewingLegalizesTiling(t *testing.T) {
	n := &Nest{Iters: []string{"i", "j"}, Params: nil}
	s := rect("i", "j", 16, 16)
	n.Domain = s
	st := &Statement{ID: 0}
	st.Writes = []Access{{Array: "A", Write: true, Subs: []Affine{Var("i"), Var("j")}}}
	st.Reads = []Access{
		{Array: "A", Subs: []Affine{Var("i").Sub(NewAffine(1)), Var("j")}},
		{Array: "A", Subs: []Affine{Var("i"), Var("j").Sub(NewAffine(1))}},
		{Array: "A", Subs: []Affine{Var("i").Sub(NewAffine(1)), Var("j").Add(NewAffine(1))}},
	}
	n.Stmts = []*Statement{st}
	deps := AnalyzeDeps(n)
	if Permutable(n, deps) {
		t.Fatal("nest with dep (1,-1) must not be permutable before skewing (Fig. 2 left)")
	}
	f, ok := LegalSkew(deps, 0)
	if !ok || f != 1 {
		t.Fatalf("skew factor: %d ok=%v, want 1", f, ok)
	}
	skewed := ApplySkew(n, 0, f)
	deps2 := AnalyzeDeps(skewed)
	if !Permutable(skewed, deps2) {
		for _, d := range deps2 {
			t.Logf("dep after skew: %v", d)
		}
		t.Fatal("skewed nest must be permutable (Fig. 2 right)")
	}
}

// Property: dependence analysis agrees with brute-force enumeration of
// conflicting iteration pairs on small in-place stencils.
func TestDepsMatchBruteForceProperty(t *testing.T) {
	f := func(dxu, dyu uint8) bool {
		dx := int64(dxu%3) - 1
		dy := int64(dyu%3) - 1
		if dx == 0 && dy == 0 {
			return true
		}
		// stmt: A[i][j] = A[i+dx][j+dy], domain [1,6]^2
		n := &Nest{Iters: []string{"i", "j"}}
		s := NewSystem()
		s.AddLowerBound("i", NewAffine(1))
		s.AddUpperBound("i", NewAffine(6))
		s.AddLowerBound("j", NewAffine(1))
		s.AddUpperBound("j", NewAffine(6))
		n.Domain = s
		st := &Statement{ID: 0}
		st.Writes = []Access{{Array: "A", Write: true, Subs: []Affine{Var("i"), Var("j")}}}
		st.Reads = []Access{{Array: "A", Subs: []Affine{Var("i").Add(NewAffine(dx)), Var("j").Add(NewAffine(dy))}}}
		n.Stmts = []*Statement{st}
		deps := AnalyzeDeps(n)
		carried := map[int]bool{}
		for _, d := range deps {
			carried[d.Level] = true
		}
		// brute force: pairs (p,q), p lex< q, with write(p)==read(q) or
		// read(p)==write(q)
		bfCarried := map[int]bool{}
		for pi := int64(1); pi <= 6; pi++ {
			for pj := int64(1); pj <= 6; pj++ {
				for qi := int64(1); qi <= 6; qi++ {
					for qj := int64(1); qj <= 6; qj++ {
						if pi == qi && pj == qj {
							continue
						}
						lexLess := pi < qi || (pi == qi && pj < qj)
						if !lexLess {
							continue
						}
						// write at p is (pi,pj); read at q is (qi+dx, qj+dy)
						conflict := (pi == qi+dx && pj == qj+dy) ||
							(pi+dx == qi && pj+dy == qj)
						if !conflict {
							continue
						}
						level := 1
						if pi == qi {
							level = 2
						}
						bfCarried[level] = true
					}
				}
			}
		}
		for l := 1; l <= 2; l++ {
			if bfCarried[l] && !carried[l] {
				return false // analysis missed a real dependence: unsound
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- Loop generation ---

func TestGenerateRectangularBounds(t *testing.T) {
	n := stencilNest(false)
	deps := AnalyzeDeps(n)
	g, err := Generate(n, ParallelLevels(n, deps))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Loops) != 2 {
		t.Fatalf("loops: %d", len(g.Loops))
	}
	if !g.Loops[0].Parallel {
		t.Fatal("outer loop must be parallel")
	}
	env := map[string]int64{"n": 10}
	if lo := g.Loops[0].LowerEnv(env); lo != 1 {
		t.Fatalf("outer lower: %d", lo)
	}
	if hi := g.Loops[0].UpperEnv(env); hi != 8 {
		t.Fatalf("outer upper: %d", hi)
	}
	if !g.Loops[1].Vector {
		t.Fatal("innermost loop must carry the vector hint")
	}
}

func TestGenerateTriangular(t *testing.T) {
	n := &Nest{Iters: []string{"i", "j"}, Params: []string{"N"}}
	s := NewSystem()
	s.AddLowerBound("i", NewAffine(0))
	s.AddUpperBound("i", Var("N").Sub(NewAffine(1)))
	s.AddLowerBound("j", Var("i"))
	s.AddUpperBound("j", Var("N").Sub(NewAffine(1)))
	n.Domain = s
	n.Stmts = []*Statement{{ID: 0}}
	g, err := Generate(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]int64{"N": 5, "i": 3}
	if lo := g.Loops[1].LowerEnv(env); lo != 3 {
		t.Fatalf("j lower at i=3: %d", lo)
	}
	if hi := g.Loops[1].UpperEnv(env); hi != 4 {
		t.Fatalf("j upper: %d", hi)
	}
}

func TestTiling(t *testing.T) {
	n := stencilNest(false)
	deps := AnalyzeDeps(n)
	if !Permutable(n, deps) {
		t.Fatal("double-buffered stencil must be permutable")
	}
	g, err := Tile(n, []int{4, 4}, ParallelLevels(n, deps), func(it string) string { return it + "T" })
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Loops) != 4 {
		t.Fatalf("tiled loops: %d", len(g.Loops))
	}
	if !g.Loops[0].Tile || !g.Loops[1].Tile {
		t.Fatal("first two loops must be tile loops")
	}
	if !g.Loops[0].Parallel {
		t.Fatal("outer tile loop must inherit parallelism")
	}
	// Count points scanned by the tiled structure for n=10: must equal 8*8.
	env := map[string]int64{"n": 10}
	count := 0
	var scan func(k int)
	scan = func(k int) {
		if k == len(g.Loops) {
			count++
			return
		}
		lo := g.Loops[k].LowerEnv(env)
		hi := g.Loops[k].UpperEnv(env)
		for v := lo; v <= hi; v++ {
			env[g.Loops[k].Iter] = v
			// check full domain only at the innermost level
			if k == len(g.Loops)-1 {
				if g.Nest.Domain.Satisfies(env) {
					count++
				}
			} else {
				scan(k + 1)
			}
		}
		delete(env, g.Loops[k].Iter)
	}
	// adjust: innermost increments count inside loop, so start recursion
	count = 0
	scan(0)
	if count != 64 {
		t.Fatalf("tiled scan visited %d points, want 64", count)
	}
}

func TestPointsEnumeration(t *testing.T) {
	n := stencilNest(false)
	pts := n.Points(map[string]int64{"n": 5})
	if len(pts) != 9 { // i,j in [1,3]
		t.Fatalf("points: %d", len(pts))
	}
}

func TestDepString(t *testing.T) {
	n := stencilNest(true)
	deps := AnalyzeDeps(n)
	if len(deps) == 0 {
		t.Fatal("no deps")
	}
	s := deps[0].String()
	if s == "" {
		t.Fatal("empty dep string")
	}
}

// Points enumerates all integer points of the domain under the given
// parameter values (tests only; exponential in depth).
func (n *Nest) Points(params map[string]int64) [][]int64 {
	sys := n.Domain.Clone()
	for p, v := range params {
		sys.AddEQ(Var(p).Sub(NewAffine(v)))
	}
	var out [][]int64
	var rec func(level int, env map[string]int64)
	rec = func(level int, env map[string]int64) {
		if level == len(n.Iters) {
			pt := make([]int64, len(n.Iters))
			for i, it := range n.Iters {
				pt[i] = env[it]
			}
			out = append(out, pt)
			return
		}
		// Bound the current iterator given the fixed outer values.
		cur := sys.Clone()
		for i := 0; i < level; i++ {
			cur.AddEQ(Var(n.Iters[i]).Sub(NewAffine(env[n.Iters[i]])))
		}
		inner := append([]string{}, n.Iters[level+1:]...)
		cur = cur.EliminateAll(inner)
		lo, hasLo, hi, hasHi := cur.Bounds(n.Iters[level])
		if !hasLo || !hasHi {
			return
		}
		for v := lo; v <= hi; v++ {
			env[n.Iters[level]] = v
			// Validate against the full system restricted to known vars.
			rec(level+1, env)
		}
		delete(env, n.Iters[level])
	}
	rec(0, map[string]int64{})
	// Filter points that do not satisfy the full domain (FM projection
	// may over-approximate).
	valid := out[:0]
	for _, pt := range out {
		env := map[string]int64{}
		for p, v := range params {
			env[p] = v
		}
		for i, it := range n.Iters {
			env[it] = pt[i]
		}
		if n.Domain.Satisfies(env) {
			valid = append(valid, pt)
		}
	}
	return valid
}
