package comp

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"purec/internal/interp"
	"purec/internal/parser"
	"purec/internal/sema"
)

// compileTape compiles src into a Machine.
func compileTape(t *testing.T, src string) (*Machine, *sema.Info) {
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
	return m, info
}

// TestTapeEquivalence runs programs exercising every construct the tape
// compiles — calls, switch and printf included — on the tape and the
// interp oracle, demanding identical return values and stdout.
func TestTapeEquivalence(t *testing.T) {
	// noOracle skips the interp comparison for shapes the interpreter
	// does not model (address of a local struct).
	noOracle := map[string]bool{"struct-ptr": true}
	cases := []struct {
		name string
		src  string
	}{
		{"arith", `int main(void) { return (2 + 3 * 4 - 5 / 2) % 7 + (1 << 4) - (65 >> 2) + (12 & 10) - (12 | 3) + (12 ^ 5) + ~3 - (-4); }`},
		{"compare-logic", `int main(void) {
			int a = 3, b = 5, r = 0;
			if (a < b && b <= 5) r += 1;
			if (a == 3 || b == 99) r += 2;
			if (!(a > b) && a != b && b >= 5) r += 4;
			return r + (a < b ? 10 : 20);
		}`},
		{"shortcircuit-effects", `int g;
		int bump(void) { g = g + 1; return 1; }
		int main(void) {
			g = 0;
			int r = (0 && bump()) + (1 || bump()) + (1 && bump()) + (0 || bump());
			return g * 10 + r;
		}`},
		{"loops", `int main(void) {
			int s = 0;
			for (int i = 0; i < 10; i++) {
				if (i == 3) continue;
				if (i == 8) break;
				s += i;
			}
			int j = 0;
			while (j < 5) { s += 100; j++; }
			do { s += 1000; j--; } while (j > 2);
			return s;
		}`},
		{"nested-break", `int main(void) {
			int s = 0;
			for (int i = 0; i < 4; i++)
				for (int j = 0; j < 4; j++) {
					if (j > i) break;
					if (j == 2) continue;
					s = s * 2 + i + j;
				}
			return s;
		}`},
		// A double rounded in place where a branch joins or a loop body
		// begins: the path that skips the float op before it (or the
		// back edge) jumps onto the rounding, so it must not fold into
		// that op.
		{"round-at-join", `int main(void) {
			double w = 0.1;
			int n = 0;
			w = w * 3.0;
			do { w = (float)w; w = w + 0.1; n++; } while (n < 3);
			printf("%d\n", (int)(w * 1e12));
			for (int c = 0; c < 2; c++) {
				double d = 0.1, e = 0.1;
				if (c) d = d * 3.0;
				d = (float)d;
				if (c) e = e + 1.0; else e = e - 0.2;
				e = (float)e;
				double t = c ? e * 0.3 : d - 0.7;
				t = (float)t;
				printf("%d %d %d\n", (int)(d * 1e12), (int)(e * 1e12), (int)(t * 1e12));
			}
			return 0;
		}`},
		{"switch-escape", `int main(void) {
			int s = 0;
			for (int i = 0; i < 6; i++) {
				switch (i % 3) {
				case 0: s += 1; break;
				case 1: s += 10; /* fall through */
				case 2: s += 100; break;
				default: s += 1000;
				}
			}
			return s;
		}`},
		{"incdec", `int main(void) {
			int i = 5;
			int a = i++ * 10 + i;
			int b = ++i * 10 + i;
			int c = i-- + --i;
			return a * 1000 + b * 10 + c;
		}`},
		{"compound-assign", `int main(void) {
			int x = 100;
			x += 5; x -= 2; x *= 3; x /= 4; x %= 50; x <<= 2; x >>= 1; x &= 0xff; x |= 3; x ^= 9;
			return x;
		}`},
		{"float-rounding", `float f;
		double d;
		float half(float v) { return v / 3.0f; }
		int main(void) {
			f = 0.1f;
			f += 0.2f;
			d = f;
			d += 0.1;
			float g = (float)d;
			f = half(g) * 2.0f;
			return (int)(f * 1000000.0f);
		}`},
		{"float-ops", `int main(void) {
			double x = 2.5;
			double y = -x + 1.0;
			float z = 3.5f;
			z++; --z;
			int cmp = (x > y) + (x >= 2.5) * 2 + (y != x) * 4 + (z == 3.5f) * 8;
			return (int)(x * y + z) * 100 + cmp + (int)-1.5 + (x < 3.0 ? 7 : 9);
		}`},
		{"pointers", `int a[10];
		int main(void) {
			int *p = a;
			for (int i = 0; i < 10; i++) p[i] = i * i;
			int *q = p + 7;
			int *r = 2 + q - 4;
			int d = q - r;
			return *q * 1000 + *r * 10 + d + (q > r) + (q != r) * 2;
		}`},
		{"ptr-compound", `int a[8];
		int main(void) {
			int *p = a;
			for (int i = 0; i < 8; i++) a[i] = i + 1;
			p += 5;
			p -= 2;
			return *p;
		}`},
		{"ptr-lvalue-compound", `int a[4];
		int *keep[2];
		int main(void) {
			keep[0] = a;
			int **pp = keep;
			*pp += 2;
			a[2] = 7;
			int r = **pp;
			pp[0] -= 1;
			a[1] = 5;
			return r * 10 + *keep[0];
		}`},
		{"matrix", `int m[3][4];
		int main(void) {
			for (int i = 0; i < 3; i++)
				for (int j = 0; j < 4; j++)
					m[i][j] = i * 10 + j;
			int *row = m[2];
			return m[1][3] * 100 + row[1];
		}`},
		{"malloc-free", `int main(void) {
			int *p = (int*)malloc(4 * sizeof(int));
			for (int i = 0; i < 4; i++) p[i] = i + 10;
			int s = p[0] + p[3];
			free(p);
			return s;
		}`},
		{"struct", `struct pt { int x; int y; };
		int main(void) {
			struct pt p;
			p.x = 3;
			p.y = 4;
			p.x += 10;
			return p.x * p.y;
		}`},
		{"struct-ptr", `struct pt { int x; int y; };
		int main(void) {
			struct pt p;
			p.x = 3;
			p.y = 4;
			struct pt *q = &p;
			q->x += 10;
			return q->x * p.y;
		}`},
		// A struct value in statement position: evaluated for its
		// address's side effects and the read of its first cell.
		{"struct-stmt", `struct S { int a; };
		struct S s;
		int main(void) { s; return 7; }`},
		{"struct-elem-stmt", `struct S { float f; int a; };
		struct S sa[4];
		int main(void) {
			int n = 0;
			for (int i = 0; i < 4; i++) { sa[i]; n += i; }
			return n;
		}`},
		{"struct-elem-effect-stmt", `struct S { int a; int b; };
		struct S sa[4];
		int g;
		int bump(void) { g = g + 1; return g; }
		int main(void) {
			sa[bump()];
			sa[bump()];
			printf("%d\n", g);
			return g;
		}`},
		// A ?: in statement position is a branch: each arm runs as an
		// effect, a struct arm included.
		{"struct-cond-stmt", `struct S { int a; };
		struct S s, t;
		int g;
		int bump(void) { g = g + 1; return g; }
		int main(void) {
			int c = 1;
			c ? s : t;
			c = 0;
			c ? s : t;
			c ? bump() : (g += 10);
			!c ? bump() : (g += 10);
			printf("%d\n", g);
			return 3;
		}`},
		// The null-pointer constant in every form sema admits: folded,
		// parenthesized, as either arm of a ?: with a pointer.
		{"null-constants", `int a[3];
		int *id(int *p) { return p; }
		int main(void) {
			int c = 1;
			int *p = (0), *q = c ? 0 : a, *r = c ? a : 1 - 1;
			p = id(2 - 2);
			return (p == 0) + (q == 0) * 2 + (r == 0) * 4 + (id(0) == 0) * 8;
		}`},
		{"calls", `int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
		int twice(int v) { return 2 * v; }
		int main(void) { return fib(12) + twice(5); }`},
		{"globals", `int gi;
		double gd;
		int *gp;
		int arr[4];
		int main(void) {
			gi = 41;
			gi++;
			gd = 2.5;
			gd *= 2.0;
			gp = arr;
			gp[2] = 9;
			return gi + (int)gd + arr[2];
		}`},
		{"ternary-sideeffect", `int main(void) {
			int i = 0;
			int r = i++ ? 100 : 200;
			double f = i ? 1.5 : 2.5;
			return r + i + (int)(f * 2.0);
		}`},
		{"cond-float-trunc", `int main(void) {
			/* intExpr CondExpr truncates a float condition to int */
			double c = 0.5;
			int r = c ? 1 : 2;
			return r;
		}`},
		// An assignment used as a value stores once and yields the stored
		// value: the right side, and the left side's address, evaluate
		// exactly once.
		{"assign-value-while", `int n;
		int next(void) { n++; if (n > 3) return 0; return n; }
		int main(void) {
			int x, s = 0;
			while ((x = next()) != 0) s += x;
			printf("%d %d\n", s, n);
			return 0;
		}`},
		{"assign-value-index", `int main(void) {
			int a[4];
			int i = 0;
			a[0] = 0; a[1] = 0;
			int v = (a[i++] = 5);
			printf("i=%d a[0]=%d a[1]=%d v=%d\n", i, a[0], a[1], v);
			return 0;
		}`},
		{"assign-value-compound", `int main(void) {
			int x = 6, y = 6;
			int w = (x += 1) + (y -= 1);
			printf("%d %d %d\n", x, y, w);
			return 0;
		}`},
		{"assign-value-postinc", `int main(void) {
			int b, i = 0;
			int a = (b = i++);
			printf("%d %d %d\n", a, b, i);
			return 0;
		}`},
		// A 4-byte float ++/-- stores the sum rounded through float32; a
		// pre-increment's value is the unrounded sum.
		{"float-incdec-rounding", `int main(void) {
			float f = 16777216.0f, g = 16777216.0f;
			double a = ++f;
			double b = g++;
			g--;
			printf("%f %f %f %f\n", f, g, a, b);
			return 0;
		}`},
		// A kernel operand's offset of several scaled invariant terms.
		{"kernel-offset-terms", `float x[64], y[64];
		int main(void) {
			int p = 2, q = 3;
			for (int i = 0; i < 8; i++) x[i] = i + 1;
			for (int i = 0; i < 8; i++) y[(i + p + q) * 2] = x[(i + q + p) * 3 - 15];
			int s = 0;
			for (int i = 0; i < 64; i++) s = s * 3 + (int)y[i];
			printf("%d\n", s);
			return 0;
		}`},
		{"parallel-region", `double x[64], y[64];
		int main(void) {
			for (int i = 0; i < 64; i++) { x[i] = i; y[i] = 0.0; }
			#pragma omp parallel for
			for (int i = 0; i < 64; i++)
				y[i] = 2.0 * x[i] + 1.0;
			double s = 0.0;
			#pragma omp parallel for reduction(+:s)
			for (int i = 0; i < 64; i++)
				s += y[i];
			return (int)s;
		}`},
	}
	// A pointer compared with the constant 0 takes the pointer path: p
	// null and not, p == 0 and 0 != p, as a branch and as a value.
	for _, p := range []struct{ name, init string }{{"null", "0"}, {"nonnull", "&g[1]"}} {
		for _, cmp := range []struct{ name, expr string }{{"eq-zero", "p == 0"}, {"zero-ne", "0 != p"}} {
			cases = append(cases,
				struct{ name, src string }{"ptr-" + p.name + "-" + cmp.name + "-branch", fmt.Sprintf(`int g[3];
		int main(void) { int *p = %s; int r = 5; if (%s) r = 7; return r; }`, p.init, cmp.expr)},
				struct{ name, src string }{"ptr-" + p.name + "-" + cmp.name + "-value", fmt.Sprintf(`int g[3];
		int main(void) { int *p = %s; int r = 1 + (%s); return r; }`, p.init, cmp.expr)})
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			mt, info := compileTape(t, c.src)
			var out bytes.Buffer
			mt.SetStdout(&out)
			got, err := mt.RunMain()
			if err != nil {
				t.Fatalf("tape run: %v", err)
			}
			if !noOracle[c.name] {
				var want bytes.Buffer
				in, err := interp.New(info, &want)
				if err != nil {
					t.Fatalf("interp: %v", err)
				}
				oracle, err := in.RunMain()
				if err != nil {
					t.Fatalf("interp run: %v", err)
				}
				if got != oracle || out.String() != want.String() {
					t.Fatalf("tape returned %d, printed %q; interp oracle %d, %q", got, out.String(), oracle, want.String())
				}
			}
			if st, _, _ := mt.Program().TapeStats(); st == 0 {
				t.Fatal("tape build reports zero instructions")
			}
		})
	}
}

// TestTapeTrapParity pins the trap texts of the tape, including the
// compound division whose right side evaluates (and the division traps)
// after the accumulator load. A fault Go's runtime raises on a raw
// segment access already reads "runtime error: …"; the trap carries
// that prefix once.
func TestTapeTrapParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		msg  string
	}{
		{"div-zero", `int main(void) { int a = 7, b = 0; return a / b; }`, "integer division by zero"},
		{"mod-zero", `int main(void) { int a = 7, b = 0; return a % b; }`, "integer modulo by zero"},
		{"compound-div-zero", `int g;
		int boom(void) { g = 1; return 0; }
		int main(void) { int x = 5; x /= boom(); return x; }`, "integer division by zero"},
		{"compound-mod-zero", `int main(void) { int x = 5, z = 0; x %= z; return x; }`, "integer modulo by zero"},
		{"oob", `int a[4]; int main(void) { int i = 4; return a[i]; }`, "out of"},
		{"oob-malloc", `int main(void) {
			int *p = (int*)malloc(4 * sizeof(int));
			p[9] = 3;
			return 0;
		}`, "runtime error: index out of range [9] with length 4"},
		{"null-deref", `int main(void) { int *p = 0; return p[0]; }`, "nil pointer"},
		{"use-after-free", `int main(void) {
			int *p = (int*)malloc(2 * sizeof(int));
			free(p);
			return p[0];
		}`, "out of range"},
		{"int-to-ptr", `int main(void) { int v = 7; int *p = (int*)v; return 0; }`, "cast of non-zero integer to pointer"},
		{"cross-segment-diff", `int a[4]; int b[4];
		int main(void) { int *p = a; int *q = b; return p - q; }`, "across segments"},
		{"huge-local-array", `int main(void) { float big[100000000000]; big[0] = 1.0f; return 0; }`,
			"runtime error: allocation of 100000000000 cells exceeds the 268435456-cell limit"},
		{"huge-malloc", `int main(void) { float *p = (float*)malloc(35184372088832 * sizeof(float)); return 0; }`,
			"runtime error: allocation of 35184372088832 cells exceeds the 268435456-cell limit"},
		{"negative-malloc", `int main(void) { int n = -4; int *p = (int*)malloc(n * sizeof(int)); return 0; }`,
			"runtime error: allocation of negative size (-4 cells)"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m, _ := compileTape(t, c.src)
			_, err := m.RunMain()
			if err == nil {
				t.Fatal("expected a trap")
			}
			if _, ok := err.(*RuntimeError); !ok {
				t.Fatalf("want *RuntimeError, got %T: %v", err, err)
			}
			msg := err.Error()
			if !strings.Contains(msg, c.msg) {
				t.Fatalf("trap %q does not mention %q", msg, c.msg)
			}
			if n := strings.Count(msg, "runtime error: "); n != 1 {
				t.Fatalf("trap %q carries the runtime error prefix %d times", msg, n)
			}
		})
	}
}

// TestTapeJumpPatching checks every emitted jump lands inside the tape
// (no zero or unpatched offsets survive compilation) across the control
// constructs that patch forward and backward.
func TestTapeJumpPatching(t *testing.T) {
	src := `int main(void) {
		int s = 0;
		for (int i = 0; i < 20; i++) {
			if (i % 2 == 0) continue;
			if (i > 15) break;
			int j = i;
			while (j > 0) { s += j; j--; if (j == 1) break; }
			do { s++; } while (0);
			s += (i < 10 && s < 10000) ? 1 : 2;
		}
		return s;
	}`
	m, info := compileTape(t, src)
	prog := m.Program()
	cf := prog.funcs["main"]
	tp := tapeOf(t, cf)
	for pc, in := range tp.code {
		switch in.op {
		case tJmp, tJz, tJnz:
			if in.a == 0 {
				t.Fatalf("pc %d: %d-op jump with unpatched zero offset", pc, in.op)
			}
			if tgt := pc + int(in.a); tgt < 0 || tgt > len(tp.code) {
				t.Fatalf("pc %d: jump lands at %d, outside [0,%d]", pc, tgt, len(tp.code))
			}
		}
	}
	got, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	in, err := interp.New(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := in.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tape returned %d, interp %d", got, want)
	}
}

// tapeOf fetches the main instruction tape the compiler attaches to a
// function.
func tapeOf(t *testing.T, cf *cfunc) *tape {
	t.Helper()
	if cf.tape == nil {
		t.Fatal("compiled function has no tape attached")
	}
	return cf.tape
}

// TestTapeConstantPooling verifies repeated literals share one pool
// entry.
func TestTapeConstantPooling(t *testing.T) {
	src := `int main(void) {
		int a = 7;
		int b = 7;
		return 7 + a + b - 7;
	}`
	m, _ := compileTape(t, src)
	_, consts, _ := m.Program().TapeStats()
	if consts != 1 {
		t.Fatalf("want 1 pooled constant (7), got %d", consts)
	}
	got, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if got != 7+7+7-7 {
		t.Fatalf("got %d", got)
	}
}

// TestTapeSlotAllocation pins the temp high-water accounting: the frame
// grows past the locals by exactly the deepest expression's register
// need, and execution stays inside it.
func TestTapeSlotAllocation(t *testing.T) {
	// The operands are globals: constants would fold at compile time,
	// and a local is read in place, so neither needs a register.
	src := `int a, b, c, d, e, f, g, h;
	int main(void) {
		a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7; h = 8;
		return ((a + b) * (c + d)) + ((e + f) * (g + h));
	}`
	m, _ := compileTape(t, src)
	prog := m.Program()
	cf := prog.funcs["main"]
	// No locals: nI is purely temps. The right-hand product holds the
	// left sum live while its two sub-sums evaluate: depth 4.
	if cf.nI != 4 {
		t.Fatalf("want 4 int temp slots, got %d", cf.nI)
	}
	_, _, temps := prog.TapeStats()
	if temps != 4 {
		t.Fatalf("want 4 temps reported, got %d", temps)
	}
	got, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if got != (1+2)*(3+4)+(5+6)*(7+8) {
		t.Fatalf("got %d", got)
	}
}

// TestTapeInlinesLeafCalls: a leaf pure call that inline.go replaces by
// its return expression is compiled on the tape like any other
// expression, not as a frame push behind tCall. The loops are kept off
// the kernels (the float sum's kernel is dropped, so its launch runs
// the dispatch body it carries; the int sum leaves a value in a local,
// which the lifter rejects) so that the tape itself has to evaluate the
// call.
func TestTapeInlinesLeafCalls(t *testing.T) {
	calls := func(tp *tape) (n int) {
		for _, in := range tp.code {
			if in.op == tCall {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		name, src string
		fn        string // function whose loop calls the leaf
	}{
		{"matmul", `
			pure float mult(float a, float b) { return a * b; }
			pure float dot(pure float* a, pure float* b, int size) {
			    float res = 0.0f;
			    for (int i = 0; i < size; ++i) { { res += mult(a[i], b[i]); } }
			    return res;
			}
			float x[8], y[8];
			int main(void) { return (int)dot((pure float*)x, (pure float*)y, 8); }`, "dot"},
		{"reduce-sum", `
			pure int square(int x) { return x * x; }
			int run(void) {
			    int s = 0;
			    for (int i = 0; i < 64; i++) { int t = square(i % 8191); s += t; }
			    return s;
			}
			int main(void) { return run(); }`, "run"},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := CompileProgram(mustCheck(t, c.src), Options{})
			if err != nil {
				t.Fatal(err)
			}
			DropKernels(prog)
			if prog.FusedKernels() != 0 {
				t.Fatalf("%d fused kernels: the loop must stay on dispatch", prog.FusedKernels())
			}
			if prog.InlinedCalls() == 0 {
				t.Fatal("no call was inlined: the test has nothing to look for")
			}
			n := calls(tapeOf(t, prog.funcs[c.fn]))
			for _, l := range prog.tapes[0].launches {
				n += calls(l.body)
			}
			if n != 0 {
				t.Errorf("tapes of %s hold %d call ops for an inlined callee, want 0", c.fn, n)
			}
		})
	}
	// The op is what a call that stays a call compiles to: tri has a
	// loop and is no leaf.
	m, _ := compileTape(t, `
		pure int tri(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
		int main(void) { int r = tri(5); return r; }`)
	if calls(tapeOf(t, m.Program().funcs["main"])) == 0 {
		t.Fatal("a non-leaf call left no call op on the tape: the scan above proves nothing")
	}
}

// TestRoundedOpsMatchTheirPairs: every rounded op equals its plain op
// followed by tRoundF on the destination, bit for bit, with the
// destination apart from and aliasing the first operand. The operands
// cover NaN, ±Inf, ±0, float32 subnormals, float64 values past float32's
// range and 0.1; I2F's integers include ±(2^53 + 2^29 + 1), which
// float64 rounds to a float32 tie, so rounding twice differs from
// rounding once there.
func TestRoundedOpsMatchTheirPairs(t *testing.T) {
	fs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat32, 3 * math.SmallestNonzeroFloat32 / 2, 0x1p-127,
		3.5e38, -3.5e38, 1e300, 0.1, 1.0 / 3, -2.5}
	is := []int64{0, -1, 7, 1<<24 + 1, 1<<53 + 1<<29 + 1, -(1<<53 + 1<<29 + 1), math.MaxInt64, math.MinInt64}
	// run executes code once over registers F, I and the pooled
	// constant k, and returns the float registers.
	run := func(code []tinstr, F []float64, I []int64, k float64) []float64 {
		tp := &tape{code: code, tapePools: &tapePools{constF: []float64{k}}}
		e := &env{I: I, F: slices.Clone(F)}
		tp.run(e, runOnce, 0, 0, 0)
		return e.F
	}
	n := 0
	for op, rop := range rounded {
		if rop == 0 {
			continue
		}
		n++
		in := tinstr{op: topcode(op), b: 1, c: 2, aux: 3}
		switch in.op {
		case tAddFC, tSubFC, tRsbFC, tMulFC, tDivFC, tRdivFC, tMulAddFC, tAddMulFC:
			in.c = 0 // constF[0]
		}
		ints := []int64{0}
		if in.op == tI2F {
			ints = is
		}
		for _, a := range []int32{0, 1} {
			in.a = a
			r := in
			r.op = rop
			for _, iv := range ints {
				for _, x := range fs {
					for _, y := range fs {
						for _, z := range fs {
							F, I := []float64{0, x, y, z}, []int64{0, iv}
							want := run([]tinstr{in, {op: tRoundF, a: a, b: a}}, F, I, y)
							got := run([]tinstr{r}, F, I, y)
							for i := range got {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Fatalf("%v on F=%v I=%v k=%v: F[%d] = %v, the op then tRoundF leave %v", r, F, I, y, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
	if n != 16 {
		t.Fatalf("%d rounded ops, want 16", n)
	}
}

// TestPointerComparedWithStructRefused: a comparison takes the pointer
// path when either operand is a pointer, and an operand that is neither
// a pointer nor arithmetic is refused rather than read as a register.
func TestPointerComparedWithStructRefused(t *testing.T) {
	src := "struct S { int a; };\nstruct S s;\nint main(void) {\n    int *p = 0;\n    return p == s;\n}\n"
	_, err := Compile(mustCheck(t, src), Options{})
	if err == nil || !strings.Contains(err.Error(), "t.c:5:17: pointer compared with struct S") {
		t.Fatalf("compile: %v", err)
	}
}
