package comp

import (
	"testing"

	"purec/internal/parser"
	"purec/internal/sema"
)

// benchSrc is an axpy-shaped dispatch workload: the body leaves its
// value in a local, which keeps the lifter off the loop, so every
// iteration pays full statement dispatch on the tape.
const benchSrc = `
float x[4096], y[4096];

int run(void) {
	float a = 1.5f;
	for (int i = 0; i < 4096; i++) {
		float v = a * x[i] + y[i];
		y[i] = v;
	}
	return 0;
}

int main(void) { return run(); }
`

// benchBranchSrc is a non-canonical branchy body (apps.NoncanonSrc's
// shape).
const benchBranchSrc = `
float x[4096], y[4096];

int run(void) {
	for (int i = 0; i < 4096; i++) {
		float v = x[i];
		if (v > 2.0f)
			y[i] = v * 0.5f + y[i] * 0.25f;
		else
			y[i] = v + 0.125f;
	}
	return 0;
}

int main(void) { return run(); }
`

func benchDispatch(b *testing.B, src string) {
	b.Helper()
	file, err := parser.Parse("bench.c", src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sema.Check(file)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Compile(info, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if m.Program().FusedKernels() != 0 {
		b.Fatal("the dispatch workload fused")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallInt("run"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAxpyTape(b *testing.B)   { benchDispatch(b, benchSrc) }
func BenchmarkBranchTape(b *testing.B) { benchDispatch(b, benchBranchSrc) }

// benchFloatN is the trip count of each float loop: long enough that
// the call around the loop is noise.
const benchFloatN = 4096

// benchDotSrc is matmul's dot (Listing 7) over one row pair, and
// benchErrSrc the err loop of the satellite retrieval over one pixel's
// bands: float32 values rounded at every assignment, a register-bound
// loop tail, no kernel.
const (
	benchDotSrc = `
float x[4096], y[4096];

pure float mult(float a, float b) {
    return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += mult(a[i], b[i]);
    return res;
}

int run(void) { return (int)dot((pure float*)x, (pure float*)y, 4096); }

int main(void) { return run(); }
`
	benchErrSrc = `
float px[4096], table[4096];

pure float err(pure float* px, pure float* table, int bands, float tau) {
    float err = 0.0f;
    for (int b = 0; b < bands; b++) {
        float model = tau * table[b] + (1.0f - tau) * 0.2f;
        float d = px[b] - model;
        if (d < 0.0f)
            d = -d;
        err += d;
    }
    return err;
}

int run(void) { return (int)err((pure float*)px, (pure float*)table, 4096, 0.1f); }

int main(void) { return run(); }
`
)

// BenchmarkTapeFloatLoops reports the ns one iteration of each float
// loop takes on the tape.
func BenchmarkTapeFloatLoops(b *testing.B) {
	for _, c := range []struct{ name, src string }{{"dot", benchDotSrc}, {"err", benchErrSrc}} {
		b.Run(c.name, func(b *testing.B) {
			benchDispatch(b, c.src)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchFloatN), "ns/iter")
		})
	}
}
