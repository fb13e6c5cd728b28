package poly

import (
	"math/rand"
	"strings"
	"testing"
)

// randomSystem draws 3–8 constraints over up to five variables with
// coefficients in [-4,4]: small enough that five eliminations cannot
// leave int64, where the wrapping reference stops being an oracle.
func randomSystem(rng *rand.Rand) (*System, []string) {
	vars := []string{"N", "i", "j", "k", "x"}[:2+rng.Intn(4)]
	s := NewSystem()
	for c := 3 + rng.Intn(6); c > 0; c-- {
		e := NewAffine(int64(rng.Intn(21) - 10))
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				e = e.Add(Var(v).Scale(int64(rng.Intn(9) - 4)))
			}
		}
		if rng.Intn(6) == 0 {
			s.AddEQ(e)
		} else {
			s.AddGE(e)
		}
	}
	return s, vars
}

func sameBounds(a, b []Bound) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Div != b[i].Div || a[i].Ceil != b[i].Ceil || !a[i].Expr.Equal(b[i].Expr) {
			return false
		}
	}
	return true
}

// The queries System answers through the dense kernel equal the
// map-based reference: emptiness, integer bounds of every variable, and
// the symbolic bounds with their order (it decides the printed
// max(...)/min(...) loop bounds; the reference's duplicates are removed
// the way Generate used to remove them).
func TestSystemMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	empty, compared := 0, 0
	for compared < 3000 {
		s, vars := randomSystem(rng)
		keep := vars[rng.Intn(len(vars))]
		var elim []string
		for _, v := range rng.Perm(len(vars)) {
			if vars[v] != keep && rng.Intn(3) > 0 {
				elim = append(elim, vars[v])
			}
		}
		var refEmpty bool
		var refB [][4]int64
		var refLo, refUp []Bound
		if refTooBig(func() {
			refEmpty = s.refIsEmpty()
			for _, v := range vars {
				lo, hasLo, hi, hasHi := s.refBounds(v)
				refB = append(refB, boundsKey(lo, hasLo, hi, hasHi))
			}
			refLo, refUp = s.refSymbolicBounds(keep, elim)
		}) {
			continue
		}
		compared++
		if refEmpty {
			empty++
		}
		if got := s.IsEmpty(); got != refEmpty {
			t.Fatalf("IsEmpty(%s) = %v, reference %v", s, got, refEmpty)
		}
		for i, v := range vars {
			if got := boundsKey(s.Bounds(v)); got != refB[i] {
				t.Fatalf("Bounds(%s, %s) = %v, reference %v", s, v, got, refB[i])
			}
		}
		lo, up, overflow := s.symbolicBounds(keep, elim)
		if overflow {
			t.Fatalf("SymbolicBounds(%s) overflowed", s)
		}
		if !sameBounds(lo, refDedupBounds(refLo)) || !sameBounds(up, refDedupBounds(refUp)) {
			t.Fatalf("SymbolicBounds(%s, %s, %v) = %v %v, reference %v %v", s, keep, elim, lo, up, refLo, refUp)
		}
	}
	if empty < compared/10 || empty > compared*9/10 {
		t.Errorf("%d of %d systems empty: generator lopsided", empty, compared)
	}
}

func boundsKey(lo int64, hasLo bool, hi int64, hasHi bool) (k [4]int64) {
	if hasLo {
		k[0], k[1] = 1, lo
	}
	if hasHi {
		k[2], k[3] = 1, hi
	}
	return k
}

// Eliminate drops what cannot matter: duplicates and trivially true rows.
func TestEliminateDropsRedundantRows(t *testing.T) {
	s := NewSystem()
	s.AddGE(Var("x"))
	s.AddGE(Var("x").Scale(2)) // tightens to x >= 0 again
	s.AddGE(NewAffine(10).Sub(Var("x")))
	s.AddGE(Var("y").Sub(Var("x")))
	s.AddGE(NewAffine(7))
	if got := s.Eliminate("y").String(); got != "x >= 0 && -x + 10 >= 0" {
		t.Errorf("Eliminate(y) = %q", got)
	}
}

const big = int64(1) << 62

// The seed combined rows with wrapping int64 arithmetic: big·x >= 1 and
// big·x <= big give big·big - big, which wraps to -big, and the system
// (x = 1 solves it) was reported empty. The kernel drops the row it
// cannot represent instead.
func TestEliminationOverflowIsConservative(t *testing.T) {
	s := NewSystem()
	s.AddGE(Var("x").Scale(big).Sub(NewAffine(1)))
	s.AddGE(NewAffine(big).Sub(Var("x").Scale(big)))
	if !s.Satisfies(map[string]int64{"x": 1}) {
		t.Fatal("x = 1 must solve the system")
	}
	if !s.refIsEmpty() {
		t.Fatal("the reference no longer wraps on this system: pick another witness")
	}
	if s.IsEmpty() {
		t.Error("IsEmpty reports a satisfiable system empty")
	}
}

// for (i = 0; i <= 1; i++) A[(2^62+1)*i] = A[(2^62-1)*i - (2^62-1)]:
// iteration 0 writes A[0] and iteration 1 reads it. The seed's wrapped
// products hid the flow dependence and the loop was marked parallel.
func TestOverflowingNestStaysSerial(t *testing.T) {
	a, b := big+1, big-1
	n := &Nest{Iters: []string{"i"}, Domain: NewSystem()}
	n.Domain.AddLowerBound("i", NewAffine(0))
	n.Domain.AddUpperBound("i", NewAffine(1))
	n.Stmts = []*Statement{{
		Writes: []Access{{Array: "A", Write: true, Subs: []Affine{Var("i").Scale(a)}}},
		Reads:  []Access{{Array: "A", Subs: []Affine{Var("i").Scale(b).Sub(NewAffine(b))}}},
	}}
	if ParallelLevels(n, refAnalyzeDeps(n))[0] == false {
		t.Fatal("the reference no longer misses this dependence: pick another witness")
	}
	deps := AnalyzeDeps(n)
	if ParallelLevels(n, deps)[0] {
		t.Errorf("loop marked parallel; deps: %v", deps)
	}
}

// Loop bounds must be exact, so Generate refuses a nest whose bound
// elimination dropped a row.
func TestGenerateRejectsOverflowingBounds(t *testing.T) {
	n := &Nest{Iters: []string{"i", "j"}, Domain: NewSystem()}
	n.Domain.AddLowerBound("i", NewAffine(0))
	n.Domain.AddUpperBound("i", NewAffine(5))
	n.Domain.AddGE(Var("j").Scale(big).Sub(Var("i")))     // big·j >= i
	n.Domain.AddGE(NewAffine(3).Sub(Var("j").Scale(big))) // big·j <= 3
	if _, err := Generate(n, nil); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("Generate = %v, want an overflow error", err)
	}
}

// Fourier–Motzkin on this nest grows past any memory without the row
// budget (the reference never finishes it); with it the analysis ends and
// errs toward dependences.
func TestDenseNestIsBounded(t *testing.T) {
	i, j, k := Var("i"), Var("j"), Var("k")
	n := &Nest{Iters: []string{"i", "j", "k"}, Params: []string{"N"}, Domain: NewSystem()}
	n.Domain.AddLowerBound("i", NewAffine(2))
	n.Domain.AddUpperBound("i", NewAffine(10))
	n.Domain.AddLowerBound("j", NewAffine(1))
	n.Domain.AddUpperBound("j", i.Scale(2).Add(NewAffine(1)))
	n.Domain.AddLowerBound("k", NewAffine(0))
	n.Domain.AddUpperBound("k", Var("N"))
	n.Stmts = []*Statement{
		{ID: 0, Seq: 0,
			Writes: []Access{{Array: "C", Write: true, Subs: []Affine{
				i.Scale(2).Sub(j.Scale(2)).Add(k.Scale(2)), j.Scale(2).Add(k.Scale(2)).Sub(NewAffine(3))}}},
			Reads: []Access{{Array: "C", Subs: []Affine{
				i.Scale(-2).Add(NewAffine(3)), i.Scale(2).Sub(j.Scale(3)).Sub(NewAffine(2))}}}},
		{ID: 1, Seq: 1,
			Writes: []Access{{Array: "s", Write: true}},
			Reads: []Access{{Array: "C", Subs: []Affine{
				j.Sub(i).Add(NewAffine(3)), i.Add(j).Add(k).Sub(NewAffine(3))}}}},
	}
	if ParallelLevels(n, AnalyzeDeps(n))[0] {
		t.Error("the scalar write alone serializes the outer loop")
	}
}

// sampleNests are the shapes BenchmarkAnalyzeDeps times: a map, a
// five-point stencil, matmul, a skewed in-place stencil and a star
// reduction.
func sampleNests() []struct {
	name string
	nest *Nest
} {
	i, j, k, one := Var("i"), Var("j"), Var("k"), NewAffine(1)
	box := func(iters ...string) *Nest {
		n := &Nest{Iters: iters, Params: []string{"N"}, Domain: NewSystem()}
		for _, it := range iters {
			n.Domain.AddLowerBound(it, one)
			n.Domain.AddUpperBound(it, Var("N").Sub(NewAffine(2)))
		}
		return n
	}
	rd := func(arr string, subs ...Affine) Access { return Access{Array: arr, Subs: subs} }
	wr := func(arr string, subs ...Affine) Access { return Access{Array: arr, Subs: subs, Write: true} }

	map1 := box("i") // y[i] = a*x[i] + y[i]
	map1.Stmts = []*Statement{{Writes: []Access{wr("y", i)}, Reads: []Access{rd("x", i), rd("y", i)}}}

	stencil := box("i", "j") // B[i][j] = A[i][j] + four neighbours
	stencil.Stmts = []*Statement{{Writes: []Access{wr("B", i, j)}, Reads: []Access{
		rd("A", i, j), rd("A", i.Sub(one), j), rd("A", i.Add(one), j), rd("A", i, j.Sub(one)), rd("A", i, j.Add(one))}}}

	matmul := box("i", "j", "k") // C[i][j] += A[i][k] * B[k][j]
	matmul.Stmts = []*Statement{{Writes: []Access{wr("C", i, j)}, Reads: []Access{rd("C", i, j), rd("A", i, k), rd("B", k, j)}}}

	seidel := box("i", "j") // in place, dependences (1,0) (0,1) (1,-1): Fig. 2
	seidel.Stmts = []*Statement{{Writes: []Access{wr("A", i, j)}, Reads: []Access{
		rd("A", i.Sub(one), j), rd("A", i, j.Sub(one)), rd("A", i.Sub(one), j.Add(one))}}}

	hist := box("i") // hist[a[i]] += w[i]; s += hist[b[i]]
	star := Access{Array: "hist", Star: true, Reduction: true}
	starW := star
	starW.Write = true
	hist.Stmts = []*Statement{
		{ID: 0, Seq: 0, Writes: []Access{starW}, Reads: []Access{star, rd("a", i), rd("w", i)}},
		{ID: 1, Seq: 1, Writes: []Access{{Array: "s", Write: true, Reduction: true}},
			Reads: []Access{{Array: "s", Reduction: true}, {Array: "hist", Star: true}, rd("b", i)}},
	}

	return []struct {
		name string
		nest *Nest
	}{
		{"map1d", map1}, {"stencil5", stencil}, {"matmul", matmul},
		{"skewed-stencil", ApplySkew(seidel, 0, 1)}, {"star-reduction", hist},
	}
}

func BenchmarkAnalyzeDeps(b *testing.B) {
	for _, c := range sampleNests() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				AnalyzeDeps(c.nest)
			}
		})
		b.Run(c.name+"-reused", func(b *testing.B) {
			var ds DepSolver
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				ds.Analyze(c.nest)
			}
		})
	}
}
