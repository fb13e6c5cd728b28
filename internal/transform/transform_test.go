package transform

import (
	"strings"
	"testing"

	"purec/internal/ast"
	"purec/internal/parser"
	"purec/internal/purity"
	"purec/internal/scop"
	"purec/internal/sema"
	"purec/internal/vra"
)

func prep(t *testing.T, src string) (*sema.Info, []*scop.SCoP) {
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
	// The real pipeline always hands the detector the value-range
	// analysis' alias oracle; mirror that here so pointer-based fixtures
	// resolve like they do under purecc.
	var oracle scop.AliasOracle
	if v := vra.Analyze(info); v.Alias != nil {
		oracle = v.Alias
	}
	res := scop.DetectWith(info, pres, scop.Options{AllowPureCalls: true, Aliases: oracle})
	if len(res.Errors) > 0 {
		t.Fatalf("scop errors: %v", res.Errors)
	}
	return info, res.SCoPs
}

const matmulSrc = `
float **A, **Bt, **C;
int n;

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += a[i] * b[i];
    return res;
}

void alloc() {
    A = (float**)malloc(n * sizeof(float*));
    Bt = (float**)malloc(n * sizeof(float*));
    C = (float**)malloc(n * sizeof(float*));
}

int main(void) {
    alloc();
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], n);
    return 0;
}
`

func mainSCoP(t *testing.T, scops []*scop.SCoP) *scop.SCoP {
	t.Helper()
	for _, s := range scops {
		if s.Func.Name == "main" {
			return s
		}
	}
	t.Fatal("main SCoP not found")
	return nil
}

func TestMatmulParallelized(t *testing.T) {
	info, scops := prep(t, matmulSrc)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	lr := rep.Loops[0]
	if lr.ParallelLevel != 0 {
		t.Fatalf("outer loop must be parallel: %+v", lr)
	}
	out := ast.Print(info.File)
	if !strings.Contains(out, "#pragma omp parallel for private(j)") {
		t.Fatalf("pragma missing:\n%s", out)
	}
	// The transformed source must reparse and re-check.
	f2, err := parser.Parse("out.c", out)
	if err != nil {
		t.Fatalf("transformed source does not parse: %v\n%s", err, out)
	}
	if _, err := sema.Check(f2); err != nil {
		t.Fatalf("transformed source does not typecheck: %v\n%s", err, out)
	}
}

func TestScheduleClause(t *testing.T) {
	info, scops := prep(t, matmulSrc)
	sc := mainSCoP(t, scops)
	if _, err := Parallelize([]*scop.SCoP{sc}, Options{Schedule: "dynamic,1"}); err != nil {
		t.Fatal(err)
	}
	out := ast.Print(info.File)
	if !strings.Contains(out, "schedule(dynamic,1)") {
		t.Fatalf("schedule clause missing:\n%s", out)
	}
}

func TestTiling(t *testing.T) {
	info, scops := prep(t, matmulSrc)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{Tile: true, TileSizes: []int{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Loops[0].Tiled {
		t.Fatalf("expected tiling: %+v", rep.Loops[0])
	}
	out := ast.Print(info.File)
	if !strings.Contains(out, "iT") || !strings.Contains(out, "floord") {
		t.Fatalf("tiled loops missing:\n%s", out)
	}
	f2, err := parser.Parse("out.c", out)
	if err != nil {
		t.Fatalf("tiled source does not parse: %v\n%s", err, out)
	}
	if _, err := sema.Check(f2); err != nil {
		t.Fatalf("tiled source does not typecheck: %v\n%s", err, out)
	}
}

const serialOuterSrc = `
int n;
float **A;
int main(void) {
    for (int i = 1; i < n; ++i)
        for (int j = 1; j < n; ++j)
            A[i][j] = A[i - 1][j] + A[i][j - 1];
    return 0;
}
`

func TestSerialNestReported(t *testing.T) {
	info, scops := prep(t, serialOuterSrc)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loops[0].ParallelLevel != -1 {
		t.Fatalf("in-place stencil must be serial without skewing: %+v", rep.Loops[0])
	}
	out := ast.Print(info.File)
	if strings.Contains(out, "omp parallel for") {
		t.Fatalf("no pragma expected:\n%s", out)
	}
}

// Skewing: dependences (1,0),(0,1),(1,-1) → after shearing the inner
// loop is parallel (paper Fig. 2).
const skewSrc = `
int n;
float **A;
int main(void) {
    for (int i = 1; i < n; ++i)
        for (int j = 1; j < n - 1; ++j)
            A[i][j] = A[i - 1][j] + A[i][j - 1] + A[i - 1][j + 1];
    return 0;
}
`

func TestSkewingEnablesInnerParallelism(t *testing.T) {
	info, scops := prep(t, skewSrc)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{Skew: true})
	if err != nil {
		t.Fatal(err)
	}
	lr := rep.Loops[0]
	if !lr.Skewed || lr.SkewFactor != 1 {
		t.Fatalf("expected skew by 1: %+v", lr)
	}
	out := ast.Print(info.File)
	if !strings.Contains(out, "j_sk") {
		t.Fatalf("skewed iterator missing:\n%s", out)
	}
	f2, err := parser.Parse("out.c", out)
	if err != nil {
		t.Fatalf("skewed source does not parse: %v\n%s", err, out)
	}
	if _, err := sema.Check(f2); err != nil {
		t.Fatalf("skewed source does not typecheck: %v\n%s", err, out)
	}
}

// The iterators tiling and skewing add take names the nest does not
// use: a loop declaring iT around a body that reads the user's iT would
// make the body read the loop's.
func TestAddedIteratorsTakeFreshNames(t *testing.T) {
	src := `
float A[64][64];
pure float f(int k) { return (float)k; }
int main(void) {
    int iT = 1;
    int iT1 = 2;
    int j_sk = 3;
    for (int i = 1; i < 63; ++i)
        for (int j = 1; j < 62; ++j)
            A[i][j] = A[i - 1][j] + A[i][j - 1] + A[i - 1][j + 1] + A[iT][iT1] + f(j_sk);
    return 0;
}
`
	info, scops := prep(t, src)
	sc := mainSCoP(t, scops)
	subs := scop.SubstituteCalls(sc)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{Skew: true, Tile: true})
	if err != nil {
		t.Fatal(err)
	}
	scop.RestoreCalls(sc, subs)
	if lr := rep.Loops[0]; !lr.Skewed || !lr.Tiled {
		t.Fatalf("expected a skewed and tiled nest: %+v", lr)
	}
	out := ast.Print(info.File)
	for _, want := range []string{"for (int iT2 = ", "for (int j_sk1T = ", "A[iT][iT1] + f(j_sk)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("no %q in\n%s", want, out)
		}
	}
}

func TestReportString(t *testing.T) {
	_, scops := prep(t, matmulSrc)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "main") {
		t.Fatalf("report: %q", rep.String())
	}
}

// ----------------------------------------------------------------------------
// Reduction pragma + serialization reasons (PR 3)

const reductionSrc = `
int n;
pure int square(int x) { return x * x; }
int main(void) {
    int s = 0;
    for (int i = 0; i < n; ++i)
        s += square(i);
    return s;
}
`

func TestReductionClauseEmitted(t *testing.T) {
	info, scops := prep(t, reductionSrc)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lr := rep.Loops[0]
	if lr.ParallelLevel != 0 {
		t.Fatalf("reduction nest must parallelize at level 0: %+v", lr)
	}
	if !strings.Contains(lr.Pragma, "reduction(+:s)") {
		t.Fatalf("pragma lacks reduction clause: %q", lr.Pragma)
	}
	if len(lr.Reductions) != 1 || lr.Reductions[0] != "+:s" {
		t.Fatalf("report reductions: %v", lr.Reductions)
	}
	out := ast.Print(info.File)
	if !strings.Contains(out, "reduction(+:s)") {
		t.Fatalf("transformed source lacks reduction clause:\n%s", out)
	}
	// The emitted source must survive the pipeline's re-parse.
	if _, err := parser.Parse("out.c", out); err != nil {
		t.Fatalf("transformed source does not reparse: %v\n%s", err, out)
	}
}

func TestReductionClauseWithScheduleClause(t *testing.T) {
	_, scops := prep(t, reductionSrc)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{Schedule: "dynamic,1"})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Loops[0].Pragma
	if !strings.Contains(p, "reduction(+:s)") || !strings.Contains(p, "schedule(dynamic,1)") {
		t.Fatalf("pragma: %q", p)
	}
}

func TestSerialReasonScalarWrite(t *testing.T) {
	_, scops := prep(t, `
int n;
pure int f(int x) { return x + 1; }
int main(void) {
    int s = 0;
    int u = 0;
    for (int i = 0; i < n; ++i) {
        s += f(i);
        u = s;
    }
    return u;
}
`)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lr := rep.Loops[0]
	if lr.ParallelLevel != -1 {
		t.Fatalf("nest must be serial: %+v", lr)
	}
	if !strings.Contains(lr.SerialReason, "scalar write to") {
		t.Fatalf("SerialReason = %q", lr.SerialReason)
	}
	if !strings.Contains(rep.String(), "serial:") {
		t.Fatalf("report must render the reason:\n%s", rep.String())
	}
}

func TestSerialReasonMinTrip(t *testing.T) {
	_, scops := prep(t, `
float A[8];
int main(void) {
    for (int i = 0; i < 8; ++i)
        A[i] = (float)i;
    return 0;
}
`)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{}) // default MinParallelTrip = 32
	if err != nil {
		t.Fatal(err)
	}
	lr := rep.Loops[0]
	if lr.ParallelLevel != -1 {
		t.Fatalf("8-trip loop must be suppressed: %+v", lr)
	}
	if !strings.Contains(lr.SerialReason, "profitability") {
		t.Fatalf("SerialReason = %q", lr.SerialReason)
	}
}

func TestSerialReasonArrayDependence(t *testing.T) {
	_, scops := prep(t, `
int n;
float A[1000];
int main(void) {
    for (int i = 1; i < n; ++i)
        A[i] = A[i - 1] + 1.0f;
    return 0;
}
`)
	sc := mainSCoP(t, scops)
	rep, err := Parallelize([]*scop.SCoP{sc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lr := rep.Loops[0]
	if lr.ParallelLevel != -1 {
		t.Fatalf("recurrence must be serial: %+v", lr)
	}
	if !strings.Contains(lr.SerialReason, "dependences on A") {
		t.Fatalf("SerialReason = %q", lr.SerialReason)
	}
}
