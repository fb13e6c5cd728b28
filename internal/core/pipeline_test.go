package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/parser"
	"purec/internal/preproc"
	"purec/internal/rt"
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

// TestPrintfFormatErrorsNameTheUsersLine: a printf whose format is no
// literal, lacks an argument or uses an unsupported verb is refused by
// the front end's check at the line the user wrote, on the parallel
// build — whose transformed text moves that line — and the sequential
// one alike.
func TestPrintfFormatErrorsNameTheUsersLine(t *testing.T) {
	for _, c := range []struct{ call, want string }{
		{`printf("%q\n", 1);`, "printf: unsupported verb %q"},
		{`printf("%d %d\n", 1);`, `printf: not enough arguments for format "%d %d\n"`},
		{`printf(f);`, "printf format must be a string literal"},
	} {
		src := fmt.Sprintf(`int a[64]; int b[64];
int main(void) {
    for (int i = 0; i < 64; i++) a[i] = i;
    for (int i = 0; i < 64; i++) b[i] = a[i] * 2;
    char* f = "x"; %s
    return b[5];
}
`, c.call)
		for _, par := range []bool{true, false} {
			_, _, _, err := BuildProgram(src, Config{FileName: "p.c", Parallelize: par, NoCache: true})
			if err == nil || !strings.Contains(err.Error(), "p.c:5:20: "+c.want) {
				t.Errorf("%s parallel=%v: got %v, want p.c:5:20: %s", c.call, par, err, c.want)
			}
		}
	}
}

// TestMallocRulesNameTheUsersLine: a malloc whose result is dropped,
// one not cast to its target pointer type and one cast to a non-pointer
// are refused by the front end's check at the line the user wrote, on
// the parallel build — whose transformed text moves that line — and the
// sequential one alike.
func TestMallocRulesNameTheUsersLine(t *testing.T) {
	for _, c := range []struct{ stmt, want string }{
		{`malloc(4);`, "p.c:5:20: malloc result must be used (cast and assign it)"},
		{`(malloc(4));`, "p.c:5:21: malloc result must be used (cast and assign it)"},
		{`f = malloc(4);`, "p.c:5:24: malloc must be cast to its target pointer type"},
		{`a[0] = (int)malloc(4);`, "p.c:5:27: malloc cast must be a pointer type"},
	} {
		src := fmt.Sprintf(`int a[64]; int b[64];
int main(void) {
    for (int i = 0; i < 64; i++) a[i] = i;
    for (int i = 0; i < 64; i++) b[i] = a[i] * 2;
    char* f = "x"; %s
    return b[5];
}
`, c.stmt)
		for _, par := range []bool{true, false} {
			_, _, _, err := BuildProgram(src, Config{FileName: "p.c", Parallelize: par, NoCache: true})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s parallel=%v: got %v, want %s", c.stmt, par, err, c.want)
			}
		}
	}
}

// TestCheckRulesNameTheUsersLine: rules the front end's check owns —
// the address of a scalar variable, a case label that is no constant —
// are refused at the line the user wrote, on the parallel build and the
// sequential one alike.
func TestCheckRulesNameTheUsersLine(t *testing.T) {
	for _, c := range []struct{ stmt, want string }{
		{`int v = 0; int *p = &v;`, "p.c:4:41: cannot take the address of scalar v (frame storage)"},
		{`switch (b[1]) { case b[2]: break; }`, "p.c:4:36: case label must be an integer constant"},
		{`float v = 1.0f; int *q = (int*)v;`, "p.c:4:45: unsupported pointer cast from float"},
		{`double v = 2.0; int *q = (int*)v;`, "p.c:4:45: unsupported pointer cast from double"},
		{`int *q = &a[0]; int k = (int)q;`, "p.c:4:44: unsupported cast from pointer int* to int"},
		{`int k = (int)"ab";`, "p.c:4:28: unsupported cast from pointer char const* to int"},
		{`int *p = 5;`, "p.c:4:25: cannot initialize p (int*) from int"},
		{`int n = 5; int *p = n;`, "p.c:4:36: cannot initialize p (int*) from int"},
		{`int *p = a; p = 64 - 1;`, "p.c:4:32: cannot assign int to int*"},
		{`free(8);`, "p.c:4:25: argument 1 of free: cannot pass int as void*"},
		{`int c[2] = 3;`, "p.c:4:24: cannot initialize c (array of int) from int"},
		{`struct S t = g;`, "p.c:4:29: cannot initialize local t (struct S): only a global struct takes an initializer"},
		{`{ struct S t = g; }`, "p.c:4:31: cannot initialize local t (struct S): only a global struct takes an initializer"},
		{`float v = 1.0f; int *q = b[0] ? a : v;`, "p.c:4:56: cannot convert float to int* in ?:"},
		{`float v = 1.0f; int k = b[0] ? v : a;`, "p.c:4:51: cannot convert float to int* in ?:"},
		{`printf("%d", a);`, "p.c:4:33: printf: %d takes a number, got int*"},
		{`printf("%s", 5);`, "p.c:4:33: printf: %s takes a pointer, got int"},
		{`printf("%s", g);`, "p.c:4:33: printf: %s takes a pointer, got struct S"},
	} {
		src := fmt.Sprintf(`int a[64]; int b[64]; struct S { int x; }; struct S g; struct S h = g;
int main(void) {
    for (int i = 0; i < 64; i++) a[i] = i;
    char* f = "x"; %s
    for (int i = 0; i < 64; i++) b[i] = a[i] * 2;
    return b[5];
}
`, c.stmt)
		for _, par := range []bool{true, false} {
			_, _, _, err := BuildProgram(src, Config{FileName: "p.c", Parallelize: par, NoCache: true})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s parallel=%v: got %v, want %s", c.stmt, par, err, c.want)
			}
		}
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

// TestCorpusUnderTileAndSkew: the regenerated nests of tiling and
// skewing must print as C that reparses, and compute what the
// untransformed program computes.
func TestCorpusUnderTileAndSkew(t *testing.T) {
	for _, s := range apps.Corpus() {
		art, err := Front(s.Src, Config{Defines: s.Defines})
		if err != nil {
			t.Fatal(err)
		}
		want := observeInterp(t, art)
		for _, tr := range []transform.Options{{Tile: true}, {Skew: true}, {Tile: true, Skew: true}} {
			tr.MinParallelTrip = -1
			prog, art, _, err := BuildProgram(s.Src, Config{Defines: s.Defines, Parallelize: true, NoCache: true, Transform: tr})
			if err != nil {
				t.Errorf("%s tile=%v skew=%v: %v", s.Name, tr.Tile, tr.Skew, err)
				continue
			}
			proc, err := prog.NewProcess(comp.ProcOptions{Team: rt.NewTeam(3)})
			if err != nil {
				t.Fatal(err)
			}
			if got := observeRun(art.Info, proc); got != want {
				t.Errorf("%s tile=%v skew=%v differs from the oracle at %s", s.Name, tr.Tile, tr.Skew, firstDiff(got, want))
			}
		}
	}
}

// FuzzFront: any source goes through Front and Compile to an artifact
// or an error, never a Go panic, the working tree of every artifact is
// the tree its printed Transformed parses to (sameAsParse), and its one
// model is the one a fresh sema.Check of that tree builds
// (sameModelAsFreshCheck). mode picks tiling, skewing and the backend.
// Nothing runs: a guest loop has no fuel yet, so while (1); would hang
// the fuzzer.
func FuzzFront(f *testing.F) {
	for i, s := range apps.Corpus() {
		f.Add(withDefines(s.Src, s.Defines), uint8(i))
	}
	f.Add("\"\\", uint8(0))
	f.Add("int f(void A){ return 0; } int main(void){ return 0; }", uint8(0))
	// The nesting walk trips on these and leaves the answer to the
	// parse: a tiled nest at the statement limit and one level under it
	// (tiling takes both past it), and a skewed subscript whose nodes
	// outnumber MaxExprDepth while its parser levels stay under it.
	f.Add(tiledNest(parser.MaxStmtDepth-2), uint8(1))
	f.Add(tiledNest(parser.MaxStmtDepth-3), uint8(1))
	f.Add(skewedChain(1012), uint8(2))
	// Forward substitution of a private, and a skewed pointer nest.
	f.Add(withDefines(apps.DerivedSrc, apps.RelationalDefines(96, 112, 16, 2)), uint8(0))
	f.Add(withDefines(apps.AliasedPairSrc, apps.RelationalDefines(96, 112, 16, 2)), uint8(2))
	// Skewed and tiled shapes that Recheck gets right the hard way, and
	// variables named like the iterators the rewrites add.
	for _, s := range recheckShapes {
		f.Add(s.Src, uint8(3))
	}
	f.Fuzz(func(t *testing.T, src string, mode uint8) {
		cfg := Config{FileName: "t.c", Parallelize: true, Backend: comp.Backend(mode >> 2 & 1),
			Transform: transform.Options{Tile: mode&1 != 0, Skew: mode&2 != 0}}
		if art, err := Front(src, cfg); err == nil {
			if err := sameAsParse(art, cfg.FileName); err != nil {
				t.Fatal(err)
			}
			if _, err := sameModelAsFreshCheck(art); err != nil {
				t.Fatal(err)
			}
			_, _ = art.Compile(cfg)
		}
	})
}

// withDefines prefixes src with a #define line per entry of defs.
func withDefines(src string, defs map[string]string) string {
	var lines []string
	for k, v := range defs {
		lines = append(lines, "#define "+k+" "+v+"\n")
	}
	sort.Strings(lines)
	return strings.Join(lines, "") + src
}

// TestFrontAllocationIsLinearInItsText: a modest source can print a
// large Transformed — 10 000 statements under 120 nested blocks are
// 107 KB of source and 4.9 MB of indented text — so what Front
// allocates must be bounded by the text it prints. A re-parse of that
// text (28 bytes of tokens per byte) and an indentation string per line
// once put it at 52 times the text.
func TestFrontAllocationIsLinearInItsText(t *testing.T) {
	src := "int main(void) {\n    int x = 0;\n" + strings.Repeat("{", 120) + "\n" +
		strings.Repeat("x = x + 1;\n", 10000) + strings.Repeat("}", 120) + "\n    return x;\n}\n"
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	art, err := Front(src, Config{Parallelize: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	text := len(art.Stages.Transformed)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B of source, %d B of Transformed, Front allocated %d B (%.1f× the text)",
		len(src), text, alloc, float64(alloc)/float64(text))
	if alloc > 16*uint64(text) {
		t.Errorf("Front allocated %d B for %d B of Transformed, budget 16× the text", alloc, text)
	}
}

// TestFrontCapsPrintedStages: 50 000 statements under 125 nested blocks
// are 550 KB of source and would print 26 MB of indented text per
// stage. Every printed stage is capped at preproc.MaxExpansion: the
// print stops there and Front fails naming the limit, so what it
// allocates beyond the same statements in one block is bounded by the
// cap, not by the text the source would print.
func TestFrontCapsPrintedStages(t *testing.T) {
	body := strings.Repeat("x = x + 1;\n", 50000)
	deep := "int main(void) {\n    int x = 0;\n" + strings.Repeat("{", 125) + "\n" + body +
		strings.Repeat("}", 125) + "\n    return x;\n}\n"
	flat := "int main(void) {\n    int x = 0;\n{\n" + body + "}\n    return x;\n}\n"
	front := func(src string, par bool) (uint64, error) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Front(src, Config{Parallelize: par})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	base, err := front(flat, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		par   bool
		stage string
	}{{true, "marked"}, {false, "transformed"}} {
		alloc, err := front(deep, c.par)
		want := fmt.Sprintf("print %s source: printed source exceeds %d bytes", c.stage, preproc.MaxExpansion)
		if err == nil || err.Error() != want {
			t.Errorf("par=%v: %v, want %q", c.par, err, want)
		}
		t.Logf("par=%v: Front allocated %d MB, the statements in one block %d MB", c.par, alloc>>20, base>>20)
		if alloc > base+3*preproc.MaxExpansion {
			t.Errorf("par=%v: Front allocated %d B, %d B more than for the same statements in one block; the cap allows %d",
				c.par, alloc, alloc-base, 3*preproc.MaxExpansion)
		}
	}
}

// tiledNest is a tileable 2-deep nest under depth blocks.
func tiledNest(depth int) string {
	return "float A[64][64];\nint main(void) {\n" + strings.Repeat("{\n", depth) +
		"for (int i = 0; i < 64; i++)\n for (int j = 0; j < 64; j++)\n A[i][j] = A[i][j] + 1.0f;\n" +
		strings.Repeat("}\n", depth) + "return 0;\n}\n"
}

// skewedChain is a nest that skewing rewrites (dependences (1,0),
// (0,1), (1,-1)) whose last read subscripts with j at the end of a
// links-long chain of + 0: skewing turns that j into (j_sk - 1 * i),
// three parser levels deeper.
func skewedChain(links int) string {
	return "float A[64][64];\nint main(void) {\n" +
		" for (int i = 1; i < 63; ++i)\n  for (int j = 1; j < 62; ++j)\n" +
		"   A[i][j] = A[i - 1][j] + A[i][j - 1] + A[i - 1][" + strings.Repeat("0 + ", links) + "j + 1];\n" +
		" return 0;\n}\n"
}

// A nest at the statement-nesting limit passes the first parse; tiling
// adds loop levels, so the re-parse of the transformed source exceeds
// the limit. That is the source's parse error, not an internal
// one.
func TestTilingPastTheNestingLimitIsAParseError(t *testing.T) {
	src := tiledNest(parser.MaxStmtDepth - 2) // the i and j loops fill the last two levels
	if _, err := parser.Parse("t.c", src); err != nil {
		t.Fatalf("the source itself must parse: %v", err)
	}
	_, err := Front(src, Config{Parallelize: true, Transform: transform.Options{Tile: true}})
	if err == nil || !strings.HasPrefix(err.Error(), "parse: ") ||
		!strings.Contains(err.Error(), "statement nesting exceeds 127 levels") {
		t.Fatalf("tiled: %v, want the parse error of the nesting limit", err)
	}
}
