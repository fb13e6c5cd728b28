package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/mem"
	"purec/internal/parser"
	"purec/internal/rt"
	"purec/internal/sema"
	"purec/internal/transform"
)

// leafCase is one program of the leaf-inline differential suite. Every
// build of src must print, return and trap exactly like the
// interpreter (a sequential build with the interpreter's trap text),
// leave the named global arrays bit-identical to it, and
// report the stated number of inlined call sites; with a twin — the
// same program with the calls substituted by hand — it must also fuse
// exactly the loops the twin fuses and trap with the twin's message.
type leafCase struct {
	name string
	src  string
	twin string
	// direct compiles parser → sema → comp without the front end, for
	// programs the SCoP stage refuses by design (an array both passed to
	// a pure function and assigned in the nest, the paper's Listing 5).
	direct  bool
	memoize bool
	vecs    []leafVec
	inlined int // Program.InlinedCalls() of every build of src
	traps   bool
	check   func(t *testing.T, label string, prog *comp.Program)
}

type leafVec struct {
	name string
	n    int
}

var leafCases = []leafCase{
	{
		// The callee reads the global scale while the caller has a local
		// scale, and the callee's parameter v is named like a caller
		// local: identifiers resolve by symbol, never by name.
		name: "hygiene",
		src: `
float scale = 3.0f;
float in[48], out[48];
pure float scaled(float v, int k) { return v * scale + (float)k; }
int main(void) {
    for (int i = 0; i < 48; i++) in[i] = 0.25f * (float)(i + 1);
    float scale = 0.5f;
    int v = 7;
    for (int k = 0; k < 48; k++)
        out[k] = scaled(in[k] * scale, v);
    printf("%g %g %g\n", out[0], out[17], out[47]);
    return 0;
}`,
		twin: `
float scale = 3.0f;
float in[48], out[48];
int main(void) {
    for (int i = 0; i < 48; i++) in[i] = 0.25f * (float)(i + 1);
    float lscale = 0.5f;
    int v = 7;
    for (int k = 0; k < 48; k++)
        out[k] = (float)(in[k] * lscale) * scale + (float)v;
    printf("%g %g %g\n", out[0], out[17], out[47]);
    return 0;
}`,
		vecs:    []leafVec{{"out", 48}},
		inlined: 1,
	},
	{
		// The stencil call with j running one past the row end: the same
		// stdout prefix and the same trap as the hand-inlined loop, on the
		// kernel (one hoisted range check) and on the dispatch path.
		name: "trap-parity",
		src: `
float **g;
float out[40];
pure float avg(pure float* up, pure float* mid, pure float* down, int j) {
    return 0.25f * (up[j] + mid[j - 1] + mid[j + 1] + down[j]);
}
int main(void) {
    g = (float**)malloc(3 * sizeof(float*));
    for (int i = 0; i < 3; i++) {
        g[i] = (float*)malloc(40 * sizeof(float));
        for (int j = 0; j < 40; j++) g[i][j] = (float)(i + j);
    }
    printf("before\n");
    for (int j = 1; j < 40; j++)
        out[j] = avg((pure float*)g[0], (pure float*)g[1], (pure float*)g[2], j);
    printf("after %g\n", out[3]);
    return 0;
}`,
		twin: `
float **g;
float out[40];
int main(void) {
    g = (float**)malloc(3 * sizeof(float*));
    for (int i = 0; i < 3; i++) {
        g[i] = (float*)malloc(40 * sizeof(float));
        for (int j = 0; j < 40; j++) g[i][j] = (float)(i + j);
    }
    printf("before\n");
    for (int j = 1; j < 40; j++)
        out[j] = 0.25f * (((pure float*)g[0])[j] + ((pure float*)g[1])[j - 1] + ((pure float*)g[1])[j + 1] + ((pure float*)g[2])[j]);
    printf("after %g\n", out[3]);
    return 0;
}`,
		inlined: 1,
		traps:   true,
	},
	{
		// float32 rounding exactly where C converts: the float return
		// inside a double expression, and a float parameter fed a double.
		name: "rounding",
		src: `
float x[40];
double d[40], w[40];
pure float third(float v) { return v / 3.0f; }
pure float half(float v) { return v * 0.5f; }
int main(void) {
    for (int i = 0; i < 40; i++) {
        x[i] = 0.1f * (float)(i + 1);
        w[i] = 0.1 * (double)(i + 1);
    }
    for (int i = 0; i < 40; i++)
        d[i] = third(x[i]) * 3.0;
    for (int i = 0; i < 40; i++)
        w[i] = half(w[i] * 1.1);
    printf("%d %d\n", (int)(d[7] * 4503599627370496.0), (int)(w[7] * 4503599627370496.0));
    return 0;
}`,
		twin: `
float x[40];
double d[40], w[40];
int main(void) {
    for (int i = 0; i < 40; i++) {
        x[i] = 0.1f * (float)(i + 1);
        w[i] = 0.1 * (double)(i + 1);
    }
    for (int i = 0; i < 40; i++)
        d[i] = (float)(x[i] / 3.0f) * 3.0;
    for (int i = 0; i < 40; i++)
        w[i] = (float)((float)(w[i] * 1.1) * 0.5f);
    printf("%d %d\n", (int)(d[7] * 4503599627370496.0), (int)(w[7] * 4503599627370496.0));
    return 0;
}`,
		vecs:    []leafVec{{"d", 40}, {"w", 40}},
		inlined: 2,
	},
	{
		// An argument with a side effect, and a parameter read three
		// times over an argument that is real work, inline: each
		// argument is evaluated once, before the callee's expression.
		name: "effect-and-reuse",
		src: `
float p[40], q[40], r[40];
pure float inc(float v) { return v + 1.0f; }
pure float cube(float v) { return v * v * v; }
int main(void) {
    for (int i = 0; i < 40; i++) p[i] = 0.5f * (float)i;
    int k = 0;
    for (int i = 0; i < 40; i++)
        q[i] = inc(p[k++]);
    for (int i = 0; i < 40; i++)
        r[i] = cube(p[i] + q[i]);
    printf("%d %g %g\n", k, q[39], r[39]);
    return 0;
}`,
		vecs:    []leafVec{{"q", 40}, {"r", 40}},
		inlined: 2,
	},
	{
		// Operand shapes bound to parameters: a slot read and written by
		// the call's own assignment, recursion past the depth cap,
		// pending products, a double narrowed by a float return, unused
		// arguments with effects, the null pointer, a struct pointer,
		// leaf calls as arguments, and a local that a later argument
		// increments.
		name: "operands",
		src: `
int h[8];
float fa[8];
double da[8];
int n;
struct P { int a; float b; };
struct P ps[4];
pure int sq(int v) { return v * v; }
pure int rec(int v) { return v <= 0 ? 0 : v + rec(v - 1); }
pure double dmix(double a, double b) { return a + b * a; }
pure float fret(double v) { return v; }
pure int ign(int a, int b) { return b; }
pure int pick(pure int* p, int i) { return p ? p[i] : -1; }
pure float memb(pure struct P* p) { return p->b * 2.0f + p->a; }
int bump(void) { n = n + 1; return n; }
int main(void) {
    for (int i = 0; i < 8; i++) { h[i] = i * 3 - 4; fa[i] = 0.3f * i; da[i] = 0.7 * i; }
    for (int i = 0; i < 4; i++) { ps[i].a = i; ps[i].b = 0.25f * i; }
    int x = 3, s = 0;
    x = sq(x);
    s += rec(6);
    double d = dmix(da[2] * da[3], da[4] * 1.5);
    float f = fret(d * 1.1);
    s += ign(bump(), sq(h[2]));
    s += ign(h[3], n);
    s += pick((pure int*)h, 5) + pick(0, 1);
    float m = memb((pure struct P*)ps + 2);
    s += sq(sq(x) - sq(s));
    x = ign(x, x++) + ign(x++, x);
    printf("%d %d %d %g %g %g\\n", x, s, n, d * 1e6, f * 1e6, m);
    return 0;
}
`,
		inlined: 22,
	},
	{
		// A call in a loop's bound: the condition compiles twice (the
		// entry and the bottom test) but is one call site.
		name: "bound-call",
		src: `
float x[40], y[40];
pure int lim(int n) { return n - 2; }
int main(void) {
    int n = 40;
    for (int i = 0; i < 40; i++) x[i] = 0.5f * (float)i;
    for (int i = 0; i < lim(n); i++)
        y[i] = x[i] * 2.0f;
    printf("%g\n", y[37]);
    return 0;
}`,
		vecs:    []leafVec{{"y", 40}},
		inlined: 1,
	},
	{
		// Two arguments that trap at the same iteration, read by the
		// callee in the opposite order: the first argument's trap is the
		// one reported, as on the interpreter.
		name: "trap-order",
		src: `
int x[10], y[20], out[11];
pure int g(int a, int b) { return b + a; }
int main(void) {
    for (int i = 0; i < 10; i++) x[i] = i;
    for (int i = 0; i < 20; i++) y[i] = 3 * i;
    printf("before\n");
    for (int i = 0; i < 11; i++)
        out[i] = g(x[i], y[2 * i]);
    printf("after %d\n", out[9]);
    return 0;
}`,
		inlined: 1,
		traps:   true,
	},
	{
		// The callee reads the cell the statement stored one iteration
		// earlier: operands are live views, iterations ascend.
		name:   "aliasing",
		direct: true,
		src: `
float x[40];
pure float shift(pure float* v, int i) { return v[i - 1] * 0.5f + 1.0f; }
int main(void) {
    x[0] = 3.0f;
    for (int i = 1; i < 40; i++)
        x[i] = shift((pure float*)x, i);
    printf("%g %g\n", x[1], x[39]);
    return 0;
}`,
		twin: `
float x[40];
int main(void) {
    x[0] = 3.0f;
    for (int i = 1; i < 40; i++)
        x[i] = ((pure float*)x)[i - 1] * 0.5f + 1.0f;
    printf("%g %g\n", x[1], x[39]);
    return 0;
}`,
		vecs:    []leafVec{{"x", 40}},
		inlined: 1,
	},
	{
		// Leaf calling leaf five deep: four levels expand, the fifth stays
		// a call. f4 inlines 1 site, f3 2, f2 3, f1 4 and main 4 (f1…f4).
		name: "depth-cap",
		src: `
int out[40];
pure int f5(int v) { return v + 5; }
pure int f4(int v) { return f5(v) * 2; }
pure int f3(int v) { return f4(v) + 3; }
pure int f2(int v) { return f3(v) * 2; }
pure int f1(int v) { return f2(v) + 1; }
int main(void) {
    for (int i = 0; i < 40; i++)
        out[i] = f1(i);
    printf("%d %d\n", out[0], out[39]);
    return 0;
}`,
		inlined: 14,
	},
	{
		// Under memoization a pure call the table cannot serve (pointer
		// argument) stays a call, so Bypassed still counts it — once per
		// execution; the scalar leaf inlines as it does without a table.
		name:    "memo-bypass",
		memoize: true,
		src: `
float x[40], y[40];
pure float peek(pure float* v, int i) { return v[i]; }
pure float sq(float v) { return v * v; }
int main(void) {
    for (int i = 0; i < 40; i++) x[i] = (float)(i % 7);
    for (int i = 0; i < 40; i++)
        y[i] = peek((pure float*)x, i) + sq(x[i]);
    printf("%g\n", y[39]);
    return 0;
}`,
		vecs:    []leafVec{{"y", 40}},
		inlined: 1,
		check: func(t *testing.T, label string, prog *comp.Program) {
			if got := prog.MemoStats().Bypassed; got != 40 {
				t.Errorf("%s: Bypassed = %d, want one per peek call (40)", label, got)
			}
		},
	},
}

type leafResult struct {
	out, trap, vecs string
	ret             int64
	fused           int
}

func leafSnapshot(ptr func(string) (mem.Pointer, error), vecs []leafVec) string {
	var b strings.Builder
	for _, v := range vecs {
		p, err := ptr(v.name)
		if err != nil {
			return err.Error()
		}
		for i := 0; i < v.n; i++ {
			fmt.Fprintf(&b, "%x,", math.Float64bits(p.Add(int64(i)).LoadFloat()))
		}
	}
	return b.String()
}

// leafInfo checks a source: through the front end, or parser → sema
// only for direct cases.
func leafInfo(t *testing.T, c leafCase, src string, cfg Config) (*comp.Program, *sema.Info) {
	t.Helper()
	if !c.direct {
		prog, art, _, err := BuildProgram(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return prog, art.Info
	}
	f, err := parser.Parse(c.name+".c", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := comp.CompileProgram(info, comp.Options{
		Backend: cfg.Backend, Vectorize: cfg.Vectorize, Memoize: cfg.Memoize,
	})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return prog, info
}

func leafRun(t *testing.T, c leafCase, src string, cfg Config, team *rt.Team) (leafResult, *comp.Program) {
	t.Helper()
	prog, _ := leafInfo(t, c, src, cfg)
	var buf strings.Builder
	proc, err := prog.NewProcess(comp.ProcOptions{Stdout: &buf, Team: team})
	if err != nil {
		t.Fatal(err)
	}
	res := leafResult{fused: prog.FusedKernels()}
	res.ret, err = proc.RunMain()
	if err != nil {
		if _, isRT := err.(*comp.RuntimeError); !isRT {
			t.Fatalf("%s: want a RuntimeError, got %T %v", c.name, err, err)
		}
		res.trap = err.Error()
	}
	res.out = buf.String()
	res.vecs = leafSnapshot(proc.GlobalPtr, c.vecs)
	return res, prog
}

// TestLeafInlineDifferential holds leaf-pure inlining to the
// interpreter and to the hand-inlined twin of every case, over
// {gcc, icc, gcc+Vectorize} × {parallel on a 3-worker team,
// sequential}.
// Run under -race in CI.
func TestLeafInlineDifferential(t *testing.T) {
	for _, c := range leafCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// The oracle.
			_, info := leafInfo(t, c, c.src, Config{NoCache: true})
			var obuf strings.Builder
			in, err := interp.New(info, &obuf)
			if err != nil {
				t.Fatal(err)
			}
			wantRet, oerr := in.RunMain()
			if (oerr != nil) != c.traps {
				t.Fatalf("interpreter: err %v, traps want %v", oerr, c.traps)
			}
			wantVecs := leafSnapshot(in.GlobalPtr, c.vecs)
			wantTrap := ""
			if oerr != nil {
				wantTrap = strings.TrimPrefix(oerr.Error(), "interp ")
			}

			for _, b := range matchedBuilds {
				for _, par := range []bool{true, false} {
					cfg := Config{
						Backend: b.backend, Vectorize: b.vectorize,
						Memoize: c.memoize, NoCache: true,
						Parallelize: par,
						Transform:   transform.Options{MinParallelTrip: -1},
					}
					team := rt.NewTeam(1)
					if par {
						team = rt.NewTeam(3)
					}
					label := fmt.Sprintf("%s build=%s par=%v", c.name, b.name, par)
					got, prog := leafRun(t, c, c.src, cfg, team)
					if got.out != obuf.String() || got.ret != wantRet || got.vecs != wantVecs || (got.trap != "") != c.traps ||
						(!par && got.trap != wantTrap) {
						t.Errorf("%s: differs from the interpreter\ngot  ret=%d trap=%q\n%s\nwant ret=%d trap=%q\n%s",
							label, got.ret, got.trap, got.out, wantRet, wantTrap, obuf.String())
					}
					if n := prog.InlinedCalls(); n != c.inlined {
						t.Errorf("%s: InlinedCalls = %d, want %d", label, n, c.inlined)
					}
					if c.check != nil {
						c.check(t, label, prog)
					}
					if c.twin == "" {
						continue
					}
					twin, _ := leafRun(t, c, c.twin, cfg, team)
					if par && c.traps {
						// The front end parallelizes the nest with the
						// pure call and not the twin's; a kernel's trap
						// text names the chunk it was checking.
						got.trap, twin.trap = "", ""
					}
					if got != twin {
						t.Errorf("%s: differs from the hand-inlined twin\ngot  %+v\ntwin %+v", label, got, twin)
					}
					if twin.fused == 0 {
						t.Errorf("%s: the twin fuses nothing, the case proves nothing", label)
					}
				}
			}
		})
	}
}
