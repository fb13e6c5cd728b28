package core

import (
	"strings"
	"testing"

	"purec/internal/comp"
	"purec/internal/parser"
	"purec/internal/transform"
)

const matmulSrc = `#include <stdio.h>
#include <stdlib.h>
#define N 16

float **A, **Bt, **C;

pure float mult(float a, float b) {
    return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += mult(a[i], b[i]);
    return res;
}

void init(void) {
    A = (float**)malloc(N * sizeof(float*));
    Bt = (float**)malloc(N * sizeof(float*));
    C = (float**)malloc(N * sizeof(float*));
    for (int i = 0; i < N; i++) {
        A[i] = (float*)malloc(N * sizeof(float));
        Bt[i] = (float*)malloc(N * sizeof(float));
        C[i] = (float*)malloc(N * sizeof(float));
        for (int j = 0; j < N; j++) {
            A[i][j] = (float)(i + j);
            Bt[i][j] = (float)(i - j);
        }
    }
}

int main(void) {
    init();
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], N);
    float s = 0.0f;
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            s += C[i][j];
    return (int)s;
}
`

func TestPipelineStages(t *testing.T) {
	res, err := Build(matmulSrc, Config{Parallelize: true, TeamSize: 2, Transform: transform.Options{MinParallelTrip: -1}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages
	// PC-PrePro removed system includes.
	if strings.Contains(st.Stripped, "<stdio.h>") {
		t.Error("system includes must be stripped")
	}
	// GCC-E expanded the N macro.
	if strings.Contains(st.Expanded, "#define") || !strings.Contains(st.Expanded, "16") {
		t.Error("macro expansion failed")
	}
	// PC-CC marked the SCoP and substituted the pure call.
	if !strings.Contains(st.Marked, "#pragma scop") || !strings.Contains(st.Marked, "#pragma endscop") {
		t.Errorf("scop markers missing:\n%s", st.Marked)
	}
	if !strings.Contains(st.Marked, "tmpConst_dot_0") {
		t.Errorf("call substitution missing:\n%s", st.Marked)
	}
	// polycc inserted the OpenMP pragma and the call came back.
	if !strings.Contains(st.Transformed, "#pragma omp parallel for") {
		t.Errorf("omp pragma missing:\n%s", st.Transformed)
	}
	if strings.Contains(st.Transformed, "tmpConst_") {
		t.Errorf("placeholders must be restored:\n%s", st.Transformed)
	}
	// PC-PosPro restored includes and lowered pure.
	if !strings.HasPrefix(st.Final, "#include <stdio.h>") {
		t.Errorf("includes not reinserted:\n%s", st.Final[:80])
	}
	if strings.Contains(st.Final, "pure") {
		t.Errorf("pure keyword must be lowered in the final source:\n%s", st.Final)
	}
	if !strings.Contains(st.Final, "const float*") {
		t.Errorf("pure pointers must become const:\n%s", st.Final)
	}
	if res.SCoPs < 1 {
		t.Errorf("SCoPs: %d", res.SCoPs)
	}
}

// The parallelized program must compute the same result as the
// untransformed sequential build, on any team size and backend.
func TestPipelineSemanticsPreserved(t *testing.T) {
	seq, err := Build(matmulSrc, Config{Parallelize: false, TeamSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	for _, teams := range []int{1, 2, 4} {
		for _, be := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
			res, err := Build(matmulSrc, Config{Parallelize: true, TeamSize: teams, Backend: be, Transform: transform.Options{MinParallelTrip: -1}})
			if err != nil {
				t.Fatalf("teams=%d backend=%v: %v", teams, be, err)
			}
			got, err := res.Machine.RunMain()
			if err != nil {
				t.Fatalf("teams=%d backend=%v: %v", teams, be, err)
			}
			if got != want {
				t.Fatalf("teams=%d backend=%v: got %d want %d", teams, be, got, want)
			}
		}
	}
}

func TestPipelineMallocLoopParallelized(t *testing.T) {
	// The paper found (Sect. 4.3.1) that treating malloc as pure lets
	// the matrix-initialization loop be parallelized too. Our chain
	// reproduces this: init's loop contains malloc calls only, so it is
	// marked and transformed.
	res, err := Build(matmulSrc, Config{Parallelize: true, TeamSize: 2, Transform: transform.Options{MinParallelTrip: -1}})
	if err != nil {
		t.Fatal(err)
	}
	foundInit := false
	for _, l := range res.Report.Loops {
		if l.Func == "init" && l.ParallelLevel >= 0 {
			foundInit = true
		}
	}
	if !foundInit {
		t.Errorf("init's malloc loop should be parallelized (the paper's Fig. 3 surprise); report:\n%s", res.Report)
	}
}

func TestListing5RejectedByPipeline(t *testing.T) {
	src := `
pure int func(pure int* a, int idx) {
    return a[idx - 1] + a[idx];
}
int arr[100];
int main(void) {
    for (int i = 1; i < 100; i++)
        arr[i] = func((pure int*)arr, i);
    return 0;
}
`
	_, err := Build(src, Config{Parallelize: true})
	if err == nil || !strings.Contains(err.Error(), "Listing 5") {
		t.Fatalf("expected Listing-5 error, got %v", err)
	}
}

func TestPurityFailureStopsPipeline(t *testing.T) {
	src := `
int g;
pure int bad(int x) { g = x; return x; }
int main(void) { return bad(1); }
`
	_, err := Build(src, Config{Parallelize: true})
	if err == nil || !strings.Contains(err.Error(), "purity") {
		t.Fatalf("expected purity error, got %v", err)
	}
}

func TestDefinesInjection(t *testing.T) {
	src := `
int main(void) { return PROBLEM; }
`
	res, err := Build(src, Config{Defines: map[string]string{"PROBLEM": "77"}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if v != 77 {
		t.Fatalf("got %d", v)
	}
}

func TestTilingThroughPipeline(t *testing.T) {
	res, err := Build(matmulSrc, Config{
		Parallelize: true,
		TeamSize:    2,
		Transform:   transform.Options{Tile: true, TileSizes: []int{4, 4}, MinParallelTrip: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stages.Transformed, "iT") {
		t.Errorf("tile loops missing:\n%s", res.Stages.Transformed)
	}
	got, err := res.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := Build(matmulSrc, Config{})
	want, _ := seq.Machine.RunMain()
	if got != want {
		t.Fatalf("tiled result %d want %d", got, want)
	}
}

// A nest at the statement-nesting limit passes the first parse; tiling
// adds loop levels, so the re-parse of the transformed source exceeds
// the limit. That is the source's parse error, not an internal
// one.
func TestTilingPastTheNestingLimitIsAParseError(t *testing.T) {
	depth := parser.MaxStmtDepth - 2 // the i and j loops fill the last two levels
	src := "float A[64][64];\nint main(void) {\n" + strings.Repeat("{\n", depth) +
		"for (int i = 0; i < 64; i++)\n for (int j = 0; j < 64; j++)\n A[i][j] = A[i][j] + 1.0f;\n" +
		strings.Repeat("}\n", depth) + "return 0;\n}\n"
	if _, err := parser.Parse("t.c", src); err != nil {
		t.Fatalf("the source itself must parse: %v", err)
	}
	_, err := Front(src, Config{Parallelize: true, Transform: transform.Options{Tile: true}})
	if err == nil || !strings.HasPrefix(err.Error(), "parse: ") ||
		!strings.Contains(err.Error(), "statement nesting exceeds 127 levels") {
		t.Fatalf("tiled: %v, want the parse error of the nesting limit", err)
	}
}
