package comp

import (
	"strings"
	"testing"

	"purec/internal/interp"
	"purec/internal/parser"
	"purec/internal/sema"
)

// compileEngine compiles src with the given engine.
func compileEngine(t *testing.T, src string, eng Engine) (*Machine, *sema.Info) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	m, err := Compile(info, Options{Engine: eng})
	if err != nil {
		t.Fatalf("compile (%s): %v", eng, err)
	}
	return m, info
}

// TestTapeEquivalence runs programs exercising every linearized
// construct — and the closure escapes — under both engines and the
// interp oracle, demanding identical results.
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
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			mc, info := compileEngine(t, c.src, EngineClosure)
			mt, _ := compileEngine(t, c.src, EngineTape)
			want, err := mc.RunMain()
			if err != nil {
				t.Fatalf("closure run: %v", err)
			}
			got, err := mt.RunMain()
			if err != nil {
				t.Fatalf("tape run: %v", err)
			}
			if got != want {
				t.Fatalf("tape returned %d, closure %d", got, want)
			}
			if !noOracle[c.name] {
				in, err := interp.New(info, nil)
				if err != nil {
					t.Fatalf("interp: %v", err)
				}
				oracle, err := in.RunMain()
				if err != nil {
					t.Fatalf("interp run: %v", err)
				}
				if got != oracle {
					t.Fatalf("tape returned %d, interp oracle %d", got, oracle)
				}
			}
			if st, _, _ := mt.Program().TapeStats(); st == 0 {
				t.Fatal("tape build reports zero instructions")
			}
		})
	}
}

// TestTapeTrapParity pins the trap contract: identical RuntimeError
// messages under both engines, including the compound-division rule
// that the divisor evaluates (and traps) before the accumulator load.
// A fault Go's runtime raises on a raw segment access already reads
// "runtime error: …"; the trap carries that prefix once.
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
			var msgs [2]string
			for i, eng := range []Engine{EngineClosure, EngineTape} {
				m, _ := compileEngine(t, c.src, eng)
				_, err := m.RunMain()
				if err == nil {
					t.Fatalf("%s: expected a trap", eng)
				}
				if _, ok := err.(*RuntimeError); !ok {
					t.Fatalf("%s: want *RuntimeError, got %T: %v", eng, err, err)
				}
				msgs[i] = err.Error()
			}
			if msgs[0] != msgs[1] {
				t.Fatalf("trap messages differ:\nclosure: %s\ntape:    %s", msgs[0], msgs[1])
			}
			if !strings.Contains(msgs[1], c.msg) {
				t.Fatalf("trap %q does not mention %q", msgs[1], c.msg)
			}
			if n := strings.Count(msgs[1], "runtime error: "); n != 1 {
				t.Fatalf("trap %q carries the runtime error prefix %d times", msgs[1], n)
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
	m, _ := compileEngine(t, src, EngineTape)
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
		case tStmt:
			for _, off := range []int32{in.a, in.c} {
				if off == tapeCtrlRet {
					continue
				}
				if tgt := pc + int(off); tgt < 0 || tgt > len(tp.code) {
					t.Fatalf("pc %d: tStmt ctrl jump lands at %d, outside [0,%d]", pc, tgt, len(tp.code))
				}
			}
		}
	}
	got, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	mc, _ := compileEngine(t, src, EngineClosure)
	want, err := mc.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tape returned %d, closure %d", got, want)
	}
}

// tapeOf fetches the main instruction tape the compiler attaches to a
// function compiled under EngineTape.
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
	m, _ := compileEngine(t, src, EngineTape)
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
	src := `int main(void) {
		return ((1 + 2) * (3 + 4)) + ((5 + 6) * (7 + 8));
	}`
	m, _ := compileEngine(t, src, EngineTape)
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
// expression, not as a pooled closure tree behind tCallI/tCallF. The
// loops are kept off the kernels (no front end, so no pragmas; a
// doubly braced body, which the matcher rejects) so that the tape
// itself has to evaluate the call.
func TestTapeInlinesLeafCalls(t *testing.T) {
	calls := func(tp *tape) (n int) {
		for _, in := range tp.code {
			if in.op == tCallI || in.op == tCallF || in.op == tCallP {
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
			    for (int i = 0; i < 64; i++) { { s += square(i % 8191); } }
			    return s;
			}
			int main(void) { return run(); }`, "run"},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := CompileProgram(mustCheck(t, c.src), Options{Engine: EngineTape})
			if err != nil {
				t.Fatal(err)
			}
			if prog.FusedKernels() != 0 {
				t.Fatalf("%d fused kernels: the loop must stay on dispatch", prog.FusedKernels())
			}
			if prog.InlinedCalls() == 0 {
				t.Fatal("no call was inlined: the test has nothing to look for")
			}
			if n := calls(tapeOf(t, prog.funcs[c.fn])); n != 0 {
				t.Errorf("tape of %s holds %d closure call ops for an inlined callee, want 0", c.fn, n)
			}
		})
	}
	// The op is what a call that stays a call compiles to: tri has a
	// loop and is no leaf.
	m, _ := compileEngine(t, `
		pure int tri(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
		int main(void) { int r = tri(5); return r; }`, EngineTape)
	if calls(tapeOf(t, m.Program().funcs["main"])) == 0 {
		t.Fatal("a non-leaf call left no call op on the tape: the scan above proves nothing")
	}
}
