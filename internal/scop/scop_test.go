package scop

import (
	"strings"
	"testing"

	"purec/internal/ast"
	"purec/internal/parser"
	"purec/internal/purity"
	"purec/internal/sema"
)

func detect(t *testing.T, src string) (*Result, *sema.Info) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	pres := purity.Check(info)
	if err := pres.Err(); err != nil {
		t.Fatalf("purity: %v", err)
	}
	return Detect(info, pres), info
}

const matmulSrc = `
float **A, **Bt, **C;
int n;

pure float mult(float a, float b) {
    return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += mult(a[i], b[i]);
    return res;
}

int main(void) {
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], n);
    return 0;
}
`

func TestMatmulSCoPDetected(t *testing.T) {
	res, _ := detect(t, matmulSrc)
	if len(res.Errors) > 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	// The dot() reduction loop itself writes scalar res, so only main's
	// nest qualifies.
	var sc *SCoP
	for _, s := range res.SCoPs {
		if s.Func.Name == "main" {
			sc = s
		}
	}
	if sc == nil {
		t.Fatalf("main SCoP not found; rejections: %v", res.Rejections)
	}
	if len(sc.Loops) != 2 || sc.Loops[0].Iter != "i" || sc.Loops[1].Iter != "j" {
		t.Fatalf("loops: %+v", sc.Loops)
	}
	if len(sc.PureCalls) != 1 || sc.PureCalls[0].Fun.Name != "dot" {
		t.Fatalf("pure calls: %v", sc.PureCalls)
	}
	if len(sc.Nest.Params) != 1 || sc.Nest.Params[0] != "n" {
		t.Fatalf("params: %v", sc.Nest.Params)
	}
	// write access C[i][j] must be recorded
	st := sc.Nest.Stmts[0]
	if len(st.Writes) != 1 || st.Writes[0].Array != "C" || len(st.Writes[0].Subs) != 2 {
		t.Fatalf("writes: %v", st.Writes)
	}
}

func TestImpureCallRejected(t *testing.T) {
	res, _ := detect(t, `
float **C;
int n;
float work(float x) { return x + 1.0f; }
int main(void) {
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            C[i][j] = work(1.0f);
    return 0;
}
`)
	if len(res.SCoPs) != 0 {
		t.Fatalf("impure call must prevent SCoP detection")
	}
	found := false
	for _, r := range res.Rejections {
		if strings.Contains(r, "non-pure function work") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing rejection reason: %v", res.Rejections)
	}
}

// Listing 5: array passed to a pure function while written in the nest.
func TestListing5Violation(t *testing.T) {
	res, _ := detect(t, `
pure int func(pure int* a, int idx) {
    return a[idx - 1] + a[idx];
}
int arr[100];
int main(void) {
    for (int i = 1; i < 100; i++)
        arr[i] = func((pure int*)arr, i);
    return 0;
}
`)
	if len(res.Errors) == 0 {
		t.Fatal("expected Listing-5 error")
	}
	if !strings.Contains(res.Errors[0].Error(), "assigned in the same loop nest") {
		t.Fatalf("error: %v", res.Errors[0])
	}
	if len(res.SCoPs) != 0 {
		t.Fatal("violating nest must not be accepted as a SCoP")
	}
}

// Listing 6: the alias deceives the pass — documented limitation: the
// check compares names only, so the aliased write is NOT detected.
func TestListing6AliasLimitation(t *testing.T) {
	res, _ := detect(t, `
pure int func(pure int* a, int idx) {
    return a[idx - 1] + a[idx];
}
int arr[100];
int* alias;
int main(void) {
    for (int i = 1; i < 100; i++)
        alias[i] = func((pure int*)arr, i);
    return 0;
}
`)
	if len(res.Errors) != 0 {
		t.Fatalf("alias is a documented blind spot; got errors: %v", res.Errors)
	}
	if len(res.SCoPs) != 1 {
		t.Fatalf("aliased nest is (incorrectly but per paper) accepted: %v", res.Rejections)
	}
}

func TestNonAffineBoundRejected(t *testing.T) {
	res, _ := detect(t, `
float **C;
int n;
pure float f(float x) { return x; }
int main(void) {
    for (int i = 0; i < n * n; ++i)
        C[0][i] = f(1.0f);
    for (int i = 0; i < n; i += 2)
        C[1][i] = f(2.0f);
    return 0;
}
`)
	// n*n is affine-rejected? n*n is param*param → not affine.
	if len(res.SCoPs) != 0 {
		t.Fatalf("unexpected SCoPs: %d", len(res.SCoPs))
	}
}

func TestInnerSCoPFoundInsideImperfectLoop(t *testing.T) {
	res, _ := detect(t, `
float **A, **B;
int n;
pure float avg(pure float* up, pure float* mid, pure float* down, int j) {
    return 0.25f * (up[j] + mid[j - 1] + mid[j + 1] + down[j]);
}
void swap(void) { }
int main(void) {
    for (int t = 0; t < 100; t++) {
        for (int i = 1; i < n - 1; i++)
            for (int j = 1; j < n - 1; j++)
                B[i][j] = avg((pure float*)A[i - 1], (pure float*)A[i], (pure float*)A[i + 1], j);
        swap();
    }
    return 0;
}
`)
	if len(res.SCoPs) != 1 {
		t.Fatalf("SCoPs: %d (rejections %v)", len(res.SCoPs), res.Rejections)
	}
	sc := res.SCoPs[0]
	if len(sc.Loops) != 2 || sc.Loops[0].Iter != "i" {
		t.Fatalf("inner nest loops: %+v", sc.Loops)
	}
}

func TestMarkPragmas(t *testing.T) {
	res, info := detect(t, matmulSrc)
	var sc *SCoP
	for _, s := range res.SCoPs {
		if s.Func.Name == "main" {
			sc = s
		}
	}
	MarkPragmas([]*SCoP{sc})
	out := ast.Print(info.File)
	if !strings.Contains(out, "#pragma scop") || !strings.Contains(out, "#pragma endscop") {
		t.Fatalf("pragmas missing:\n%s", out)
	}
	i := strings.Index(out, "#pragma scop")
	j := strings.Index(out, "for (int i = 0; i < n")
	k := strings.Index(out, "#pragma endscop")
	if !(i < j && j < k) {
		t.Fatalf("pragma order wrong:\n%s", out)
	}
	// The marked source must still parse.
	if _, err := parser.Parse("marked.c", out); err != nil {
		t.Fatalf("marked source does not reparse: %v", err)
	}
}

func TestSubstituteAndRestoreCalls(t *testing.T) {
	res, info := detect(t, matmulSrc)
	var sc *SCoP
	for _, s := range res.SCoPs {
		if s.Func.Name == "main" {
			sc = s
		}
	}
	subs := SubstituteCalls(sc)
	if len(subs) != 1 || !strings.HasPrefix(subs[0].Name, "tmpConst_dot_") {
		t.Fatalf("subs: %+v", subs)
	}
	out := ast.Print(info.File)
	if !strings.Contains(out, "tmpConst_dot_0") {
		t.Fatalf("substituted source:\n%s", out)
	}
	if strings.Contains(out, "dot((pure float*)A") {
		t.Fatal("call must be hidden during polyhedral stage")
	}
	RestoreCalls(sc, subs)
	out2 := ast.Print(info.File)
	if strings.Contains(out2, "tmpConst_") {
		t.Fatalf("restore failed:\n%s", out2)
	}
	if !strings.Contains(out2, "dot((pure float*)A[i]") {
		t.Fatalf("call not restored:\n%s", out2)
	}
}

func TestIsPlaceholder(t *testing.T) {
	if !IsPlaceholder("tmpConst_dot_0") || IsPlaceholder("dot") {
		t.Fatal("IsPlaceholder misclassifies")
	}
}

func TestScalarWriteCreatesSerializingAccess(t *testing.T) {
	res, _ := detect(t, `
int n;
float s;
float **A;
pure float f(float x) { return x * 2.0f; }
int main(void) {
    for (int i = 0; i < n; ++i)
        s = s + f(A[0][i]);
    return 0;
}
`)
	if len(res.SCoPs) != 1 {
		t.Fatalf("SCoPs: %d (%v)", len(res.SCoPs), res.Rejections)
	}
	st := res.SCoPs[0].Nest.Stmts[0]
	foundScalar := false
	for _, w := range st.Writes {
		if w.Array == "scalar:s" {
			foundScalar = true
		}
	}
	if !foundScalar {
		t.Fatalf("scalar write access missing: %v", st.Writes)
	}
}

// ----------------------------------------------------------------------------
// Reduction recognition (PR 3)

func reductionsOf(t *testing.T, src string) ([]Reduction, *Result) {
	t.Helper()
	res, _ := detect(t, src)
	if len(res.Errors) > 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if len(res.SCoPs) != 1 {
		t.Fatalf("SCoPs: %d (%v)", len(res.SCoPs), res.Rejections)
	}
	return res.SCoPs[0].Reductions, res
}

func TestReductionRecognizedForEveryOp(t *testing.T) {
	cases := []struct {
		stmt string
		op   string
	}{
		{"s += f(i)", "+"},
		{"s -= f(i)", "-"},
		{"s = s - f(i)", "-"},
		{"s *= f(i)", "*"},
		{"s &= f(i)", "&"},
		{"s |= f(i)", "|"},
		{"s ^= f(i)", "^"},
	}
	for _, c := range cases {
		src := `
int n;
pure int f(int x) { return x + 1; }
int main(void) {
    int s = 0;
    for (int i = 0; i < n; ++i)
        ` + c.stmt + `;
    return s;
}
`
		reds, res := reductionsOf(t, src)
		if len(reds) != 1 || reds[0].Var != "s" || reds[0].Clause().Op != c.op {
			t.Fatalf("%s: reductions = %v", c.stmt, reds)
		}
		// The tagged accesses must appear on the statement.
		st := res.SCoPs[0].Nest.Stmts[0]
		for _, a := range st.Writes {
			if a.Array == "scalar:s" && !a.Reduction {
				t.Fatalf("%s: scalar write not tagged as reduction", c.stmt)
			}
		}
	}
}

func TestReductionNotRecognized(t *testing.T) {
	cases := []struct {
		name string
		body string
		decl string
	}{
		{"accumulator read elsewhere", "s += f(i); t = s + 1", "int s = 0; int t = 0;"},
		{"accumulator in own rhs", "s += s + f(i)", "int s = 0;"},
		{"plain assignment", "s = s + f(i)", "int s = 0;"},
		{"plain subtraction, right-anchored", "s = f(i) - s", "int s = 0;"},
		{"two updates of one accumulator", "s += f(i); s += 1", "int s = 0;"},
	}
	for _, c := range cases {
		src := `
int n;
pure int f(int x) { return x + 1; }
int main(void) {
    ` + c.decl + `
    for (int i = 0; i < n; ++i) {
        ` + strings.ReplaceAll(c.body, "; ", ";\n        ") + `;
    }
    return 0;
}
`
		res, _ := detect(t, src)
		if len(res.SCoPs) != 1 {
			t.Fatalf("%s: SCoPs: %d (%v)", c.name, len(res.SCoPs), res.Rejections)
		}
		if n := len(res.SCoPs[0].Reductions); n != 0 {
			t.Fatalf("%s: recognized %d reductions, want 0", c.name, n)
		}
	}
}

// TestReductionShapesPinned pins the verdict on hand-written update
// shapes, scalar and array: the clauses detection records for the one
// nest, empty when the shape is no reduction.
func TestReductionShapesPinned(t *testing.T) {
	cases := []struct{ body, want string }{
		{"s -= d[i];", "-:s"},
		{"s = s - d[i];", "-:s"},
		{"A[b[i]]--;", "+:A[]"},
		{"if (d[i] < m) m = d[i];", "min:m"},
		{"m = d[i] > m ? d[i] : m;", "max:m"},
		{"if (d[i] > A[b[i]]) A[b[i]] = d[i];", "max:A[]"},
		{"A[b[i]] = d[i] < A[b[i]] ? d[i] : A[b[i]];", "min:A[]"},
		{"s = d[i] - s;", ""},
		{"s++;", ""},
		{"(s) += d[i];", ""},
		{"A[b[i]] = A[b[i]] - 3;", ""},
		{"s += d[i]; s -= d[i];", ""},
		{"A[b[i]] += 2; A[b[i]] *= 3;", ""},
		{"if (d[i] < m) m = d[i]; m += d[i];", ""},
	}
	for _, c := range cases {
		res, _ := detect(t, `
int d[100], b[100];
int main(void) {
    int s = 0, m = 0;
    int A[16];
    for (int i = 0; i < 100; i++) {
        `+c.body+`
    }
    return s + m + A[0];
}
`)
		if len(res.SCoPs) != 1 {
			t.Fatalf("%s: %d SCoPs (%v)", c.body, len(res.SCoPs), res.Rejections)
		}
		var specs []string
		for _, r := range res.SCoPs[0].Reductions {
			specs = append(specs, r.Clause().Spec())
		}
		if got := strings.Join(specs, " "); got != c.want {
			t.Errorf("%s: reductions %q, want %q", c.body, got, c.want)
		}
	}
}

func TestReductionGlobalAccumulatorNotRecognized(t *testing.T) {
	// Globals cannot be privatized through the frame clone, so they stay
	// ordinary serializing scalar writes.
	res, _ := detect(t, `
int n;
int g;
pure int f(int x) { return x + 1; }
int main(void) {
    for (int i = 0; i < n; ++i)
        g += f(i);
    return g;
}
`)
	if len(res.SCoPs) != 1 {
		t.Fatalf("SCoPs: %d (%v)", len(res.SCoPs), res.Rejections)
	}
	if len(res.SCoPs[0].Reductions) != 0 {
		t.Fatalf("global accumulator must not be a reduction: %v", res.SCoPs[0].Reductions)
	}
}

func TestFloatReductionOnlyAddMul(t *testing.T) {
	reds, _ := reductionsOf(t, `
int n;
pure float f(float x) { return x * 2.0f; }
float **A;
int main(void) {
    float s = 0.0f;
    for (int i = 0; i < n; ++i)
        s += f(A[0][i]);
    return (int)s;
}
`)
	if len(reds) != 1 || reds[0].Clause().Op != "+" {
		t.Fatalf("float sum: %v", reds)
	}
}

func TestTwoIndependentReductions(t *testing.T) {
	reds, _ := reductionsOf(t, `
int n;
pure int f(int x) { return x + 1; }
int main(void) {
    int s = 0;
    int p = 1;
    for (int i = 0; i < n; ++i) {
        s += f(i);
        p *= 2;
    }
    return s + p;
}
`)
	if len(reds) != 2 {
		t.Fatalf("want 2 reductions, got %v", reds)
	}
}

func TestMinMaxIfPatternRecognized(t *testing.T) {
	src := `
int a[100];
int main(void) {
    int m = 1 << 30;
    for (int i = 0; i < 100; i++)
        if (a[i] < m) m = a[i];
    return m;
}
`
	res, _ := detect(t, src)
	if len(res.SCoPs) != 1 {
		t.Fatalf("want 1 SCoP, got %d (rejections: %v)", len(res.SCoPs), res.Rejections)
	}
	sc := res.SCoPs[0]
	if len(sc.Reductions) != 1 || sc.Reductions[0].Var != "m" || sc.Reductions[0].Clause().Op != "min" {
		t.Fatalf("reductions = %+v, want min:m", sc.Reductions)
	}
	// The accumulator accesses must be reduction-tagged so dependence
	// analysis ignores them.
	tagged := false
	for _, st := range sc.Nest.Stmts {
		for _, a := range st.Accesses() {
			if a.Array == "scalar:m" && a.Reduction {
				tagged = true
			}
		}
	}
	if !tagged {
		t.Fatal("scalar:m accesses are not reduction-tagged")
	}
}

func TestMinMaxTernaryMaxRecognized(t *testing.T) {
	src := `
int a[100];
int main(void) {
    int m = 0;
    for (int i = 0; i < 100; i++)
        m = a[i] > m ? a[i] : m;
    return m;
}
`
	res, _ := detect(t, src)
	if len(res.SCoPs) != 1 {
		t.Fatalf("want 1 SCoP, got %d (rejections: %v)", len(res.SCoPs), res.Rejections)
	}
	sc := res.SCoPs[0]
	if len(sc.Reductions) != 1 || sc.Reductions[0].Clause().Op != "max" {
		t.Fatalf("reductions = %+v, want max:m", sc.Reductions)
	}
}

func TestNonCanonicalIfStillRejected(t *testing.T) {
	// A general conditional is still outside the SCoP grammar.
	src := `
int a[100], b[100];
int main(void) {
    for (int i = 0; i < 100; i++)
        if (a[i] > 0) b[i] = 1;
    return 0;
}
`
	res, _ := detect(t, src)
	if len(res.SCoPs) != 0 {
		t.Fatalf("general conditional must not form a SCoP, got %d", len(res.SCoPs))
	}
}

// TestLiveIteratorRejected: the transformed nest declares its iterators
// afresh, so a nest whose iterator is a global, or a local declared
// outside the nest and read after it, stays serial; the rejection names
// the iterator. Reusing one i in a later loop that re-initializes it is
// not a read.
func TestLiveIteratorRejected(t *testing.T) {
	for _, c := range []struct{ name, src, iter string }{
		{"local", `float a[100];
int main(void) { int i; for (i = 0; i < 100; i++) a[i] = 2.0f * i; printf("%d\n", i); return 0; }`, "i"},
		{"global", `float a[100]; int i;
int last(void) { return i; }
int main(void) { for (i = 0; i < 100; i++) a[i] = 2.0f * i; return last(); }`, "i"},
		{"nest", `float b[8][8];
int main(void) { int i, j; for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) b[i][j] = i + j; printf("%d %d\n", i, j); return 0; }`, "j"},
	} {
		res, _ := detect(t, c.src)
		if len(res.SCoPs) != 0 {
			t.Errorf("%s: %d SCoPs, want the nest rejected", c.name, len(res.SCoPs))
		}
		want := "iterator " + c.iter + " is live after the loop nest"
		if !strings.Contains(strings.Join(res.Rejections, "\n"), want) {
			t.Errorf("%s: rejections %q lack %q", c.name, res.Rejections, want)
		}
	}
	res, _ := detect(t, `float a[100], b[100];
int main(void) { int i; for (i = 0; i < 100; i++) a[i] = 1.0f; for (i = 0; i < 100; i++) b[i] = a[i]; return 0; }`)
	if len(res.SCoPs) != 2 {
		t.Errorf("reused iterator: %d SCoPs, want 2 (rejections %q)", len(res.SCoPs), res.Rejections)
	}
}
