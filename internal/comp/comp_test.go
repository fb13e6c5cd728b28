package comp

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"purec/internal/interp"
	"purec/internal/mem"
	"purec/internal/parser"
	"purec/internal/rt"
	"purec/internal/sema"
)

// newFloatSeg builds a float segment pointer for direct function calls.
func newFloatSeg(vals []float64) mem.Pointer {
	seg := mem.NewSegment(mem.CellFloat, len(vals), "test")
	copy(seg.F, vals)
	return mem.Pointer{Seg: seg}
}

// mustCheck parses and checks a test source.
func mustCheck(tb testing.TB, src string) *sema.Info {
	tb.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		tb.Fatalf("sema: %v", err)
	}
	return info
}

func compile(t *testing.T, src string, opts Options) *Machine {
	t.Helper()
	m, err := Compile(mustCheck(t, src), opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

// runBoth executes main via the compiler and the interpreter and checks
// both agree on the return value.
func runBoth(t *testing.T, src string) int64 {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	m, err := Compile(info, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, err := m.RunMain()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	in, err := interp.New(info, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	want, err := in.RunMain()
	if err != nil {
		t.Fatalf("interp run: %v", err)
	}
	if got != want {
		t.Fatalf("compiler returned %d, interpreter %d\nsource:\n%s", got, want, src)
	}
	return got
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"int main(void) { return 2 + 3 * 4; }", 14},
		{"int main(void) { return (2 + 3) * 4; }", 20},
		{"int main(void) { return 17 / 5; }", 3},
		{"int main(void) { return 17 % 5; }", 2},
		{"int main(void) { return -7 + 3; }", -4},
		{"int main(void) { return 1 << 10; }", 1024},
		{"int main(void) { return 255 >> 4; }", 15},
		{"int main(void) { return 12 & 10; }", 8},
		{"int main(void) { return 12 | 10; }", 14},
		{"int main(void) { return 12 ^ 10; }", 6},
		{"int main(void) { return ~0; }", -1},
		{"int main(void) { return !0 + !5; }", 1},
		{"int main(void) { return 3 < 5 && 5 < 3 || 1; }", 1},
		{"int main(void) { return 1 ? 42 : 7; }", 42},
		{"int main(void) { return (int)3.99; }", 3},
		{"int main(void) { return (int)(3.5 + 0.75); }", 4},
	}
	for _, c := range cases {
		if got := runBoth(t, c.src); got != c.want {
			t.Errorf("%q: got %d want %d", c.src, got, c.want)
		}
	}
}

func TestControlFlow(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{`int main(void) { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }`, 45},
		{`int main(void) { int s = 0; int i = 0; while (i < 5) { s += i; i++; } return s; }`, 10},
		{`int main(void) { int s = 0; int i = 0; do { s += i; i++; } while (i < 3); return s; }`, 3},
		{`int main(void) { int s = 0; for (int i = 0; i < 10; i++) { if (i == 5) break; s += i; } return s; }`, 10},
		{`int main(void) { int s = 0; for (int i = 0; i < 10; i++) { if (i % 2) continue; s += i; } return s; }`, 20},
		{`int main(void) { int x = 2; switch (x) { case 1: return 10; case 2: return 20; default: return 30; } }`, 20},
		{`int main(void) { int x = 2; int s = 0; switch (x) { case 2: s += 1; case 3: s += 2; break; case 4: s += 4; } return s; }`, 3},
		{`int main(void) { int x = 9; switch (x) { case 1: return 10; default: return 99; } }`, 99},
	}
	for _, c := range cases {
		if got := runBoth(t, c.src); got != c.want {
			t.Errorf("got %d want %d for:\n%s", got, c.want, c.src)
		}
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
pure int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int twice(int x) { return x * 2; }
int main(void) { return fib(12) + twice(3); }
`
	if got := runBoth(t, src); got != 144+6 {
		t.Fatalf("got %d", got)
	}
}

func TestArrays(t *testing.T) {
	src := `
int main(void) {
    int a[10];
    for (int i = 0; i < 10; i++) a[i] = i * i;
    int m[3][4];
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 4; j++)
            m[i][j] = i * 10 + j;
    return a[7] + m[2][3];
}
`
	if got := runBoth(t, src); got != 49+23 {
		t.Fatalf("got %d", got)
	}
}

func TestGlobalArraysAndScalars(t *testing.T) {
	src := `
int total;
float weights[8];
int main(void) {
    for (int i = 0; i < 8; i++) weights[i] = (float)i * 0.5f;
    total = 0;
    for (int i = 0; i < 8; i++) total += (int)weights[i];
    return total;
}
`
	if got := runBoth(t, src); got != 0+0+1+1+2+2+3+3 {
		t.Fatalf("got %d", got)
	}
}

func TestMallocFreePointers(t *testing.T) {
	src := `
int main(void) {
    int* p = (int*)malloc(10 * sizeof(int));
    for (int i = 0; i < 10; i++) p[i] = i + 1;
    int* q = p + 3;
    int v = *q + q[1];
    free(p);
    return v;
}
`
	if got := runBoth(t, src); got != 4+5 {
		t.Fatalf("got %d", got)
	}
}

func TestPointerToPointer(t *testing.T) {
	src := `
int main(void) {
    float** rows = (float**)malloc(3 * sizeof(float*));
    for (int i = 0; i < 3; i++) {
        rows[i] = (float*)malloc(4 * sizeof(float));
        for (int j = 0; j < 4; j++) rows[i][j] = (float)(i * 4 + j);
    }
    int v = (int)rows[2][3];
    for (int i = 0; i < 3; i++) free(rows[i]);
    free(rows);
    return v;
}
`
	if got := runBoth(t, src); got != 11 {
		t.Fatalf("got %d", got)
	}
}

func TestStructs(t *testing.T) {
	src := `
struct point {
    int x;
    int y;
    float w[2];
};
int main(void) {
    struct point p;
    p.x = 3;
    p.y = 4;
    p.w[0] = 1.5f;
    p.w[1] = 2.5f;
    struct point* q = (struct point*)malloc(2 * sizeof(struct point));
    q[0].x = 10;
    q[1].x = 20;
    struct point* r = q + 1;
    int v = p.x + p.y + (int)(p.w[0] + p.w[1]) + q[0].x + r->x;
    free(q);
    return v;
}
`
	if got := runBoth(t, src); got != 3+4+4+10+20 {
		t.Fatalf("got %d", got)
	}
}

func TestMathBuiltins(t *testing.T) {
	src := `
int main(void) {
    double a = sqrt(16.0) + fabs(-3.0) + floor(2.9) + ceil(0.1);
    double b = pow(2.0, 10.0) + fmin(1.0, 2.0) + fmax(1.0, 2.0);
    return (int)(a + b);
}
`
	if got := runBoth(t, src); got != 4+3+2+1+1024+1+2 {
		t.Fatalf("got %d", got)
	}
}

func TestFloatRounding(t *testing.T) {
	// float (4-byte) stores must round like C floats.
	src := `
int main(void) {
    float f = 16777216.0f;
    f = f + 1.0f;
    if (f == 16777216.0f) return 1;
    return 0;
}
`
	if got := runBoth(t, src); got != 1 {
		t.Fatalf("float32 rounding not modeled, got %d", got)
	}
}

func TestPrintf(t *testing.T) {
	var buf bytes.Buffer
	m := compile(t, `
int main(void) {
    printf("n=%d f=%f s=%s c=%c\n", 42, 1.5, "hi", 'x');
    return 0;
}
`, Options{Stdout: &buf})
	if _, err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	want := "n=42 f=1.500000 s=hi c=x\n"
	if buf.String() != want {
		t.Fatalf("printf: %q want %q", buf.String(), want)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"int main(void) { int a = 0; return 5 / a; }", "division by zero"},
		{`int main(void) { int a[3]; return a[5]; }`, "out of range"},
		{`int main(void) { int* p = (int*)malloc(8); free(p); free(p); return 0; }`, "double free"},
		{`int main(void) { int* p; return *p; }`, "nil"},
	}
	for _, c := range cases {
		m := compile(t, c.src, Options{})
		_, err := m.RunMain()
		if err == nil {
			t.Errorf("%q: expected runtime error", c.src)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), c.frag) {
			t.Errorf("%q: error %q missing %q", c.src, err, c.frag)
		}
	}
}

const parallelMatmul = `
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

void init(void) {
    n = 24;
    A = (float**)malloc(n * sizeof(float*));
    Bt = (float**)malloc(n * sizeof(float*));
    C = (float**)malloc(n * sizeof(float*));
    for (int i = 0; i < n; i++) {
        A[i] = (float*)malloc(n * sizeof(float));
        Bt[i] = (float*)malloc(n * sizeof(float));
        C[i] = (float*)malloc(n * sizeof(float));
        for (int j = 0; j < n; j++) {
            A[i][j] = (float)(i + j) * 0.25f;
            Bt[i][j] = (float)(i - j) * 0.5f;
        }
    }
}

int checksum(void) {
    float s = 0.0f;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            s += C[i][j];
    return (int)s;
}

int main(void) {
    init();
#pragma omp parallel for private(j)
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], n);
    return checksum();
}
`

func TestParallelForMatchesSequential(t *testing.T) {
	mSeq := compile(t, parallelMatmul, Options{Team: rt.NewTeam(1)})
	want, err := mSeq.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		m := compile(t, parallelMatmul, Options{Team: rt.NewTeam(workers)})
		got, err := m.RunMain()
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got != want {
			t.Fatalf("%d workers: checksum %d, sequential %d", workers, got, want)
		}
	}
}

func TestICCBackendMatchesGCC(t *testing.T) {
	g := compile(t, parallelMatmul, Options{Backend: BackendGCC, Team: rt.NewTeam(2)})
	i := compile(t, parallelMatmul, Options{Backend: BackendICC, Team: rt.NewTeam(2)})
	a, err := g.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	b, err := i.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("backends disagree: gcc=%d icc=%d", a, b)
	}
}

func TestVectorizedKernelIsUsed(t *testing.T) {
	// Compile dot and verify its kernel computes the same value as the
	// scalar path (the same build with its kernels dropped) on a direct
	// call.
	src := `
pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += a[i] * b[i];
    return res;
}
int main(void) { return 0; }
`
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Compile(info, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Program().FusedKernels() != 1 {
		t.Fatalf("%d fused kernels, want the dot", fused.Program().FusedKernels())
	}
	scalar, err := Compile(info, Options{})
	if err != nil {
		t.Fatal(err)
	}
	DropKernels(scalar.Program())
	n := 257
	av := make([]float64, n)
	bv := make([]float64, n)
	for i := 0; i < n; i++ {
		av[i] = float64(float32(0.5 * float64(i)))
		bv[i] = float64(float32(0.25 * float64(n-i)))
	}
	pa := newFloatSeg(av)
	pb := newFloatSeg(bv)
	rg, err := fused.CallFloat("dot", pa, pb, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	ri, err := scalar.CallFloat("dot", pa, pb, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	if rg != ri {
		t.Fatalf("vectorized kernel differs: kernel=%v scalar=%v", rg, ri)
	}
	if rg == 0 {
		t.Fatal("dot returned zero, inputs ignored")
	}
}

func TestDynamicScheduleCorrect(t *testing.T) {
	src := strings.Replace(parallelMatmul,
		"#pragma omp parallel for private(j)",
		"#pragma omp parallel for private(j) schedule(dynamic,1)", 1)
	mSeq := compile(t, parallelMatmul, Options{Team: rt.NewTeam(1)})
	want, err := mSeq.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	m := compile(t, src, Options{Team: rt.NewTeam(4)})
	got, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("dynamic schedule: %d want %d", got, want)
	}
}

// agreeSeeds are the generator seeds TestCompilerInterpreterAgreeProperty
// checks and FuzzTapeVsInterp starts from.
func agreeSeeds() []uint32 {
	r := rand.New(rand.NewSource(1))
	seeds := make([]uint32, 60)
	for i := range seeds {
		seeds[i] = r.Uint32()
	}
	return seeds
}

// Property: generated integer programs agree between the tape and the
// interpreter.
func TestCompilerInterpreterAgreeProperty(t *testing.T) {
	for _, seed := range agreeSeeds() {
		tapeVsInterp(t, seed)
	}
}

// FuzzTapeVsInterp runs genProgram's programs on the tape and the
// interp oracle: stdout, return value and trap text must be equal. A
// finding leaves testdata/fuzz/FuzzTapeVsInterp/<hash>.
func FuzzTapeVsInterp(f *testing.F) {
	for _, seed := range agreeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(tapeVsInterp)
}

func tapeVsInterp(t *testing.T, seed uint32) {
	src := genProgram(seed)
	info := mustCheck(t, src)
	m, err := Compile(info, Options{})
	if err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, err, src)
	}
	var out, wantOut bytes.Buffer
	m.SetStdout(&out)
	ret, err := m.RunMain()
	trap := ""
	if err != nil {
		trap = err.Error()
	}
	in, err := interp.New(info, &wantOut)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	wantRet, err := in.RunMain()
	wantTrap := ""
	if err != nil {
		wantTrap = strings.TrimPrefix(err.Error(), "interp ")
	}
	if ret != wantRet || trap != wantTrap || out.String() != wantOut.String() {
		t.Fatalf("seed %d: tape ret=%d trap=%q out=%q, interp ret=%d trap=%q out=%q\n%s",
			seed, ret, trap, out.String(), wantRet, wantTrap, wantOut.String(), src)
	}
}

// genProgram builds a deterministic random program: integer arithmetic
// that may divide by zero, branches and loops, switch with
// fall-through, assignments used as values in conditions and
// initializers, indexed stores whose address has side effects, calls of
// a non-leaf function that writes a global, printf, float and double
// arithmetic — multiply-adds in both operand orders, 4-byte float array
// loads and stores, literals on either side of every operator,
// comparisons under &&, || and ?:, in-place float32 roundings where an
// if/else or ?: joins —, a loop whose register bound its body changes,
// and loops that fuse into kernels (a float map, an int sum, an int map
// dividing by the iterator's distance to a constant, a scatter through
// h's own cells, a map and a sum adding a division by an invariant that
// may be 0, a gather through two ?: clamps with drawn bounds, a map next
// to a division or a load whose value nothing reads, a sum of leaf pure
// calls, and last a float or double sum or dot — f += fa[k]*fb[k],
// its product rounded through a leaf call or not, d += fa[k], or
// f += fa[k]*fb[h[k]]) at drawn offsets and trip counts that may run
// off the 8-cell arrays or divide by zero, a leaf call with an argument
// that has a side effect, and last an if-converted loop — a guarded
// register arm, an if/else pair, a body local a map stores, or a
// general float sum.
func genProgram(seed uint32) string {
	s := seed
	next := func(n int) int {
		s = s*1664525 + 1013904223
		return int(s>>16) % n
	}
	ops := []string{"+", "-", "*", "%", "/", "&", "|", "^"}
	fops := []string{"+", "-", "*", "/"}
	cmps := []string{"<", "<=", ">", ">=", "==", "!="}
	lits := []string{"0.5f", "2.0f", "-1.25f", "0.1f", "3.0", "0.0f"}
	lit := func() string { return lits[next(len(lits))] }
	// kernelLoop draws a kernel-shaped loop's header and its operand k
	// plus a drawn offset: now and then one runs off an 8-cell array by
	// a cell at either end.
	kernelLoop := func() (loop, kc string) {
		off := next(4) - next(2)
		loop = fmt.Sprintf("for (int k = %d; k < %d; k++)", next(2), next(9-max(off, 0))+next(2))
		kc = fmt.Sprintf("k + %d", off)
		if off < 0 {
			kc = "k - 1"
		}
		return loop, kc
	}
	var b strings.Builder
	b.WriteString(`int g;
int h[8];
float fa[8], fb[8];
int bump(int d) {
    int r = 0;
    for (int k = 0; k < 2; k++) r = r + d;
    g = g + r % 101;
    return g % 97;
}
pure int mix(int p, int q) { return q * (q - p) % 7; }
pure float fmul(float p, float q) { return p * q; }
int main(void) {
`)
	fmt.Fprintf(&b, " float f = %s; double d = %s;\n", lit(), lit())
	fmt.Fprintf(&b, " int a = %d; int v = 1; int x = 0;\n", next(100)+1)
	for i := 0; i < 12; i++ {
		op := ops[next(len(ops))]
		c := next(37) + 1
		if next(2) == 0 {
			fmt.Fprintf(&b, " a = (a %s %d) + v;\n", op, c)
		} else {
			fmt.Fprintf(&b, " a = (%d %s a) + v;\n", c, op)
		}
		loop, kc := kernelLoop()
		switch next(23) {
		case 0:
			fmt.Fprintf(&b, " if (a > %d) v = v + 1; else v = v - 1;\n", next(500))
		case 1:
			fmt.Fprintf(&b, " for (int k = 0; k < %d; k++) a = a + k;\n", next(6))
		case 2:
			b.WriteString(" switch ((a % 4 + 4) % 4) {\n")
			for c := 0; c < 4; c++ {
				if c == 3 && next(2) == 0 {
					b.WriteString(" default:")
				} else {
					fmt.Fprintf(&b, " case %d:", c)
				}
				fmt.Fprintf(&b, " a = a %s %d;", ops[next(3)], next(9)+1)
				if next(2) == 0 {
					b.WriteString(" break;")
				}
				b.WriteString("\n")
			}
			b.WriteString(" }\n")
		case 3:
			fmt.Fprintf(&b, " if ((x = a %% %d) > %d) v = v + x;\n", next(50)+1, next(25))
		case 4:
			fmt.Fprintf(&b, " { int w = (x = a & %d) + (v += %d); a = a + w - x; }\n", next(64), next(3)+1)
		case 5:
			fmt.Fprintf(&b, " for (int k = 0; (x = bump(k + v)) %% %d != 0 && k < 4; k++) a = a + x;\n", next(3)+2)
		case 6:
			fmt.Fprintf(&b, " h[(x++) & 7] %s= bump(a %% %d);\n", ops[next(3)], next(13)+1)
			b.WriteString(" a = a + (h[a & 7] = x) - g;\n")
		case 7:
			b.WriteString(` printf("a=%d v=%d x=%d g=%d\n", a, v, x, g);` + "\n")
		case 8:
			if next(4) == 0 {
				fmt.Fprintf(&b, " a = a / (v - %d);\n", next(4))
			}
		case 9:
			if next(2) == 0 {
				fmt.Fprintf(&b, " f = f * %s + d;\n", lit())
			} else {
				fmt.Fprintf(&b, " d = d + %s * fa[a & 7];\n", lit())
			}
		case 10:
			fop := fops[next(len(fops))]
			if next(2) == 0 {
				fmt.Fprintf(&b, " fa[x & 7] = f %s %s;\n", fop, lit())
			} else {
				fmt.Fprintf(&b, " fa[v & 7] %s= %s %s d;\n", fops[next(3)], lit(), fop)
			}
		case 11:
			fmt.Fprintf(&b, " { float t = fa[a & 7]; d = t * d + fa[x & 7]; f = fa[v & 7] + t * f; }\n")
		case 12:
			fmt.Fprintf(&b, " if (f %s %s && %s %s d || !(a %% 3)) f = f - %s; else d = d / (f + %s);\n",
				cmps[next(len(cmps))], lit(), lit(), cmps[next(len(cmps))], lit(), lit())
		case 13:
			fmt.Fprintf(&b, " f = d %s %s ? f * %s : %s - d; f++; a = a + (int)(f * 8.0f) %% 1000;\n",
				cmps[next(len(cmps))], lit(), lit(), lit())
		case 14:
			fmt.Fprintf(&b, " %s fa[k] = fa[%s] * %s + d;\n", loop, kc, lit())
		case 15:
			fmt.Fprintf(&b, " %s x += h[%s];\n", loop, kc)
		case 16:
			fmt.Fprintf(&b, " %s h[k] = h[%s] / (k - %d);\n", loop, kc, next(12))
		case 17:
			fmt.Fprintf(&b, " %s h[h[%s]] += %d;\n", loop, kc, next(5)+1)
		case 18:
			b.WriteString(" for (int k = 0; k < v; k++) { v = v - (k & 1); a = a + k; }\n")
		case 19:
			// A float op ends one arm of a branch, the other jumps to
			// the join, and the value rounds in place there.
			switch next(3) {
			case 0:
				fmt.Fprintf(&b, " if (a > %d) d = d * %s; d = (float)d;\n", next(500), lit())
			case 1:
				fmt.Fprintf(&b, " if (a & 1) f = f + %s; else d = d - f; d = (float)d;\n", lit())
			default:
				fmt.Fprintf(&b, " { double t = a > %d ? d * %s : d - %s; t = (float)t; f = f + t; }\n", next(500), lit(), lit())
			}
		case 20:
			// A division by an invariant that may be drawn as 0, next to
			// an operand that may run off its array: the load traps first.
			if z := next(3); next(2) == 0 {
				fmt.Fprintf(&b, " { int z = %d; %s h[k] = h[%s] + a / z; }\n", z, loop, kc)
			} else {
				fmt.Fprintf(&b, " { int z = %d; %s x += h[%s] + a %% z; }\n", z, loop, kc)
			}
		case 21:
			// Two ?: clamps of a gathered index, each either way, their
			// constant bounds drawn in any order.
			v, c1, c2 := "h["+kc+"]", cmps[2*next(2)], cmps[2*next(2)]
			k1, k2 := next(8), next(8)
			fmt.Fprintf(&b, " %s fa[k] = fa[%s %s %d ? %d : (%s %s %d ? %d : %s)];\n", loop, v, c1, k1, k1, v, c2, k2, k2, v)
		case 22:
			// A division by an invariant that may be 0, or a load that
			// may run off its array, whose value nothing reads, beside a
			// map: the dispatch body traps on it.
			if z := next(3); next(2) == 0 {
				fmt.Fprintf(&b, " { int z = %d; %s { a / z; h[k] = h[k] + %d; } }\n", z, loop, next(5)+1)
			} else {
				fmt.Fprintf(&b, " %s { h[%s]; fa[k] = fa[k] * %s; }\n", loop, kc, lit())
			}
		}
	}
	// Leaf calls of mix, which reads q before p and q twice, drawn after
	// the statements above so that every seed keeps the program it had
	// before them: a kernel-shaped sum whose arguments may run off either
	// end of h — q's walking forward (the loop fuses) or backward (it
	// stays on the tape, and both arguments can run off at one
	// iteration) —, then a call with an argument that has a side effect.
	q := fmt.Sprintf("k + %d", next(4)-1)
	if next(2) == 0 {
		q = fmt.Sprintf("%d - k", next(3)+6)
	}
	fmt.Fprintf(&b, " for (int k = %d; k < %d; k++) x += mix(h[k + %d], h[%s]);\n", next(2), next(8)+next(3), next(4)-1, q)
	args := [...]string{"x++, h[a & 7]", "x, x++", fmt.Sprintf("h[%d], x++", next(10))}
	fmt.Fprintf(&b, " a = a + mix(%s);\n", args[next(len(args))])
	// A float or double sum or dot, drawn last for the same reason,
	// over fb filled by a map: a fold whose operand, or whose gathered
	// index's cell, may run off its array, so its kernel stops there.
	loop, kc := kernelLoop()
	b.WriteString(" for (int k = 0; k < 8; k++) fb[k] = fa[k] * 0.5f + (float)k;\n")
	switch next(4) {
	case 0:
		fmt.Fprintf(&b, " %s f += fa[k] * fb[%s];\n", loop, kc)
	case 1:
		fmt.Fprintf(&b, " %s f += fmul(fa[k], fb[%s]);\n", loop, kc)
	case 2:
		fmt.Fprintf(&b, " %s d += fa[%s];\n", loop, kc)
	default:
		fmt.Fprintf(&b, " %s f += fa[k] * fb[h[%s]];\n", loop, kc)
	}
	// Floats print scaled to integers, so a float32 rounding shows.
	b.WriteString(` for (int k = 0; k < 8; k++) printf("%d ", (int)(fa[k] * 1e12));
 printf("%d %d %d %d %d %d %d\n", a, v, x, g, h[3], (int)(f * 1e12), (int)(d * 1e12));
`)
	// An if-converted body, drawn last and run after the print, so that
	// a seed keeps its program and its output up to here: a guarded
	// register arm or an if/else pair over a body local, a body local a
	// map stores, or a general float sum, whose load may run off its
	// array at the first or the last iteration.
	loop, kc = kernelLoop()
	switch c := next(9); next(4) {
	case 0:
		fmt.Fprintf(&b, " %s { float t = fa[%s] - %s; if (t < 0.0f) t = -t; f += t; }\n", loop, kc, lit())
	case 1:
		fmt.Fprintf(&b, " %s { int t = h[%s]; if (t > %d) t = t - %d; else t = %d - t; x += t; }\n", loop, kc, c, c, c)
	case 2:
		fmt.Fprintf(&b, " %s { float t = fa[%s] * %s; fb[k] = t; }\n", loop, kc, lit())
	default:
		fmt.Fprintf(&b, " %s d += fa[%s] - fb[k] * %s;\n", loop, kc, lit())
	}
	b.WriteString(` for (int k = 0; k < 8; k++) printf("%d ", (int)(fb[k] * 1e12));
 printf("%d %d %d\n", x, (int)(f * 1e12), (int)(d * 1e12));
 return a;
}
`)
	return b.String()
}
