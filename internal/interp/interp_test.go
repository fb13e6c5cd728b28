package interp

import (
	"bytes"
	"testing"

	"purec/internal/parser"
	"purec/internal/sema"
)

func run(t *testing.T, src string) int64 {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	in, err := New(info, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	v, err := in.RunMain()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestBasics(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"int main(void) { return 41 + 1; }", 42},
		{"int main(void) { int s = 0; for (int i = 1; i <= 10; i++) s += i; return s; }", 55},
		{"int f(int n) { return n * n; } int main(void) { return f(7); }", 49},
		{"pure int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main(void) { return fib(10); }", 55},
		{"int main(void) { int a[5]; a[0] = 1; for (int i = 1; i < 5; i++) a[i] = a[i-1] * 2; return a[4]; }", 16},
		{"int main(void) { int* p = (int*)malloc(3 * sizeof(int)); p[2] = 9; int v = p[2]; free(p); return v; }", 9},
		{"int main(void) { double x = sqrt(81.0); return (int)x; }", 9},
		{"int main(void) { return sizeof(double) + sizeof(int); }", 12},
	}
	for _, c := range cases {
		if got := run(t, c.src); got != c.want {
			t.Errorf("got %d want %d for\n%s", got, c.want, c.src)
		}
	}
}

func TestGlobals(t *testing.T) {
	got := run(t, `
int g = 10;
float w;
int bump(void) { g++; return g; }
int main(void) { bump(); bump(); w = 2.5f; return g + (int)w; }
`)
	if got != 14 {
		t.Fatalf("got %d", got)
	}
}

func TestStructsAndPointers(t *testing.T) {
	got := run(t, `
struct pair { int a; int b; };
int main(void) {
    struct pair p;
    p.a = 3;
    p.b = 4;
    struct pair* q = (struct pair*)malloc(2 * sizeof(struct pair));
    q[1].a = 10;
    struct pair* r = q + 1;
    int v = p.a + p.b + r->a;
    free(q);
    return v;
}
`)
	if got != 17 {
		t.Fatalf("got %d", got)
	}
}

func TestPragmasIgnored(t *testing.T) {
	got := run(t, `
int main(void) {
    int s = 0;
#pragma omp parallel for
    for (int i = 0; i < 10; i++)
        s += i;
    return s;
}
`)
	if got != 45 {
		t.Fatalf("got %d", got)
	}
}

func TestPrintfOutput(t *testing.T) {
	f, err := parser.Parse("t.c", `int main(void) { printf("v=%d %s\n", 7, "ok"); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	in, err := New(info, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.RunMain(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "v=7 ok\n" {
		t.Fatalf("printf: %q", buf.String())
	}
}

func TestRuntimeErrorsTrapped(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"int main(void) { int z = 0; return 3 / z; }", "interp runtime error: integer division by zero"},
		// Go's own fault text already starts with "runtime error: ".
		{"int main(void) { int *p = (int*)malloc(4 * sizeof(int)); p[9] = 3; return 0; }",
			"interp runtime error: index out of range [9] with length 4"},
		// Allocations outside [0, mem.MaxSegmentCells]; a global one
		// fails New itself.
		{"float big[100000000000]; int main(void) { big[0] = 1.0f; return 0; }",
			"interp runtime error: allocation of 100000000000 cells exceeds the 268435456-cell limit"},
		{"int main(void) { float big[100000000000]; big[0] = 1.0f; return 0; }",
			"interp runtime error: allocation of 100000000000 cells exceeds the 268435456-cell limit"},
		{"int main(void) { float *p = (float*)malloc(35184372088832 * sizeof(float)); return 0; }",
			"interp runtime error: allocation of 35184372088832 cells exceeds the 268435456-cell limit"},
		{"int main(void) { int n = -4; int *p = (int*)malloc(n * sizeof(int)); return 0; }",
			"interp runtime error: allocation of negative size (-4 cells)"},
	} {
		f, _ := parser.Parse("t.c", c.src)
		info, err := sema.Check(f)
		if err != nil {
			t.Fatal(err)
		}
		in, err := New(info, nil)
		if err == nil {
			_, err = in.RunMain()
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("got %v, want %q", err, c.want)
		}
	}
}

func TestFloat32StoreRounding(t *testing.T) {
	got := run(t, `
int main(void) {
    float f = 16777216.0f;
    f = f + 1.0f;
    if (f == 16777216.0f) return 1;
    return 0;
}
`)
	if got != 1 {
		t.Fatal("float32 store rounding not modeled")
	}
}

func TestReset(t *testing.T) {
	f, _ := parser.Parse("t.c", "int g; int main(void) { g++; return g; }")
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := in.RunMain()
	if err := in.Reset(); err != nil {
		t.Fatal(err)
	}
	v2, _ := in.RunMain()
	if v1 != 1 || v2 != 1 {
		t.Fatalf("reset: %d %d", v1, v2)
	}
}
