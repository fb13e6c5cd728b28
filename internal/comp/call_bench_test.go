package comp

import (
	"testing"
)

// callBenchSrc holds the ways a guest call can go: leafmap's stencil
// through a leaf pure function inlines into a lifted kernel (handmap
// is the same loop with the call substituted by hand, casts kept);
// leafloop is matmul's row product, a leaf call inside a float sum that
// gcc does not fuse, so the tape's dispatch evaluates the inlined
// expression per iteration; dotrows calls a pure function with a loop
// in it once per row and fibrun recurses, so both run on the frame
// stack.
const callBenchSrc = `
float a[4096], b[4096], c[64];

pure float avg3(pure float* p, int j) {
    return 0.25f * (p[j - 1] + p[j] + p[j + 1]);
}

pure float dot(pure float* x, pure float* y, int n) {
    float res = 0.0f;
    for (int i = 0; i < n; ++i)
        res += x[i] * y[i];
    return res;
}

pure float mult(float x, float y) {
    return x * y;
}

pure float dotmult(pure float* x, pure float* y, int n) {
    float res = 0.0f;
    for (int i = 0; i < n; ++i)
        res += mult(x[i], y[i]);
    return res;
}

pure int fib(int n) {
    if (n < 2)
        return n;
    return fib(n - 1) + fib(n - 2);
}

int leafmap(void) {
    for (int j = 1; j < 4095; j++)
        b[j] = avg3((pure float*)a, j);
    return 0;
}

int handmap(void) {
    for (int j = 1; j < 4095; j++)
        b[j] = 0.25f * (((pure float*)a)[j - 1] + ((pure float*)a)[j] + ((pure float*)a)[j + 1]);
    return 0;
}

int leafloop(void) {
    c[0] = dotmult((pure float*)a, (pure float*)b, 4096);
    return 0;
}

int dotrows(void) {
    for (int r = 0; r < 64; r++)
        c[r] = dot((pure float*)a + r * 64, (pure float*)b + r * 64, 8);
    return 0;
}

int fibrun(void) {
    return fib(16);
}

int main(void) {
    for (int i = 0; i < 4096; i++) {
        a[i] = (float)(i % 17) * 0.5f;
        b[i] = (float)(i % 5);
    }
    return 0;
}
`

// BenchmarkPureCall measures a guest call per path, allocations
// included: leaf-ptr must stay within noise of leaf-ptr-byhand (both are
// one fused kernel launch), leaf-loop is 4096 inlined calls per op,
// none of them a tape call op, nonleaf is 64 calls and recursive 3193 calls
// per op on the frame stack — zero allocations once it has grown.
func BenchmarkPureCall(b *testing.B) {
	for _, bc := range []struct{ name, fn string }{
		{"leaf-ptr", "leafmap"},
		{"leaf-ptr-byhand", "handmap"},
		{"leaf-loop", "leafloop"},
		{"nonleaf", "dotrows"},
		{"recursive", "fibrun"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := Compile(mustCheck(b, callBenchSrc), Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.RunMain(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.CallInt(bc.fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
