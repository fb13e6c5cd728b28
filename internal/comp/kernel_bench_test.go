package comp

import (
	"strings"
	"testing"

	"purec/internal/parser"
	"purec/internal/sema"
)

// Native microbenchmarks for the hot paths the fusion engine targets,
// committed as an in-repo baseline for future perf PRs:
//
//	go test ./internal/comp -bench 'Dispatch|Fused' -run xxx
//
// BenchmarkDispatchLoop and BenchmarkFusedAxpy run the same axpy loop on
// dispatch and as a kernel; BenchmarkFusedMatmul does the same for the
// extracted-dot matrix multiplication (the reduction kernel family).
// The dispatch twins leave a value of the loop body in a local, which
// the lifter rejects.

const benchAxpySrc = `
float x[4096], y[4096];
void setup(void) {
    for (int i = 0; i < 4096; i++) {
        x[i] = (float)(i % 13) * 0.25f;
        y[i] = (float)(i % 7) * 0.5f;
    }
}
int run(void) {
    float a = 1.5f;
    for (int i = 0; i < 4096; i++)
        y[i] = a * x[i] + y[i];
    return 0;
}
int main(void) { setup(); return run(); }
`

// benchAxpyDispatchSrc is benchAxpySrc with a body the lifter rejects.
var benchAxpyDispatchSrc = strings.Replace(benchAxpySrc,
	"y[i] = a * x[i] + y[i];", "{ float v = a * x[i] + y[i]; y[i] = v; }", 1)

const benchMatmulSrc = `
float A[48][48], Bt[48][48], C[48][48];
void setup(void) {
    for (int i = 0; i < 48; i++)
        for (int j = 0; j < 48; j++) {
            A[i][j] = (float)((i + j) % 13) * 0.25f;
            Bt[i][j] = (float)((i - j) % 7) * 0.5f;
        }
}
pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int k = 0; k < size; ++k)
        res += a[k] * b[k];
    return res;
}
int run(void) {
    for (int i = 0; i < 48; ++i)
        for (int j = 0; j < 48; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], 48);
    return 0;
}
int main(void) { setup(); return run(); }
`

// benchMatmulDispatchSrc is benchMatmulSrc with a dot loop the lifter
// rejects.
var benchMatmulDispatchSrc = strings.Replace(benchMatmulSrc,
	"res += a[k] * b[k];", "{ float ak = a[k]; res += ak * b[k]; }", 1)

func benchProgram(b *testing.B, src string, opts Options) *Machine {
	b.Helper()
	f, err := parser.Parse("b.c", src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Compile(info, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.CallInt("setup"); err != nil {
		b.Fatal(err)
	}
	return m
}

func benchEntry(b *testing.B, m *Machine) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallInt("run"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchLoop is the dispatch baseline: the axpy loop run
// instruction by instruction on the tape.
func BenchmarkDispatchLoop(b *testing.B) {
	benchEntry(b, dispatchProgram(b, benchAxpyDispatchSrc, Options{}))
}

// dispatchProgram is benchProgram for a source none of whose loops fuse.
func dispatchProgram(b *testing.B, src string, opts Options) *Machine {
	b.Helper()
	m := benchProgram(b, src, opts)
	if m.Program().FusedKernels() != 0 {
		b.Fatal("the dispatch twin fused")
	}
	return m
}

// BenchmarkFusedAxpy runs the same loop as one fused triad kernel.
func BenchmarkFusedAxpy(b *testing.B) {
	m := benchProgram(b, benchAxpySrc, Options{})
	if m.Program().FusedKernels() < 1 {
		b.Fatal("axpy loop did not fuse")
	}
	benchEntry(b, m)
}

// BenchmarkFusedMatmul times the extracted-dot matmul with the fused
// reduction kernel (ICC backend) against its dispatch baseline.
func BenchmarkFusedMatmul(b *testing.B) {
	b.Run("dispatch", func(b *testing.B) {
		benchEntry(b, dispatchProgram(b, benchMatmulDispatchSrc, Options{Backend: BackendICC}))
	})
	b.Run("fused", func(b *testing.B) {
		m := benchProgram(b, benchMatmulSrc, Options{Backend: BackendICC})
		if m.Program().FusedKernels() < 1 {
			b.Fatal("dot loop did not fuse")
		}
		benchEntry(b, m)
	})
}

// BenchmarkKernelStrip times the strip evaluator on the loops the
// served applications spend their time in, per element: intmap9 is
// hist's data initialisation (a 9-op int tape), intsum the headline
// `s += square(f(i))` (the leaf call inlines, the duplicated argument
// is value-numbered), stencil4 heat's 4-load row at its 126-element
// launch size, and hazard1 the loop-carried x[i] = x[i-1] + 1, which
// the distance rule runs at strip length 1 — the floor of the single
// code path. The sink rows follow: the float dot folds with a float
// and a double accumulator (vectorized builds), the checked gather, the
// hist scatter and a double min fold.
func BenchmarkKernelStrip(b *testing.B) {
	for _, c := range []struct {
		name, src string
		elems     int
		opts      Options
	}{
		{"intmap9", `
int data[65536];
void setup(void) {}
int run(void) {
    for (int i = 0; i < 65536; i++)
        data[i] = ((i + 1000003) * 1103515245 + 12345) % 4096;
    return 0;
}`, 65536, Options{}},
		{"intsum", `
int result;
pure int square(int x) { return x * x; }
void setup(void) {}
int run(void) {
    int s = 0;
    for (int i = 0; i < 65536; i++)
        s += square((i + 1000003) % 8191);
    result = s;
    return 0;
}`, 65536, Options{}},
		{"stencil4", `
float cur[128][128], next[128][128];
void setup(void) {
    for (int i = 0; i < 128; i++)
        for (int j = 0; j < 128; j++)
            cur[i][j] = (float)((i * 7 + j) % 13) * 0.25f;
}
int run(void) {
    for (int i = 1; i < 127; i++)
        for (int j = 1; j < 127; j++)
            next[i][j] = 0.25f * (cur[i - 1][j] + cur[i][j - 1] + cur[i][j + 1] + cur[i + 1][j]);
    return 0;
}`, 126 * 126, Options{}},
		{"hazard1", `
int x[65536];
void setup(void) {}
int run(void) {
    for (int i = 1; i < 65536; i++)
        x[i] = x[i - 1] + 1;
    return 0;
}`, 65535, Options{}},
		{"dot-float", `
float x[65536], y[65536];
float result;
void setup(void) {
    for (int i = 0; i < 65536; i++) { x[i] = (float)(i % 13) * 0.25f; y[i] = (float)(i % 7) * 0.5f; }
}
int run(void) {
    float s = 0.0f;
    for (int i = 0; i < 65536; i++)
        s += x[i] * y[i];
    result = s;
    return 0;
}`, 65536, Options{Vectorize: true}},
		{"dot-double", `
double x[65536], y[65536];
double result;
void setup(void) {
    for (int i = 0; i < 65536; i++) { x[i] = (double)(i % 13) * 0.25; y[i] = (double)(i % 7) * 0.5; }
}
int run(void) {
    double s = 0.0;
    for (int i = 0; i < 65536; i++)
        s += x[i] * y[i];
    result = s;
    return 0;
}`, 65536, Options{Vectorize: true}},
		{"gather", `
int idx[65536];
float x[4096], y[65536];
void setup(void) {
    for (int i = 0; i < 4096; i++) x[i] = (float)(i % 11) * 0.5f;
    for (int i = 0; i < 65536; i++) idx[i] = (i * 7 + 13) % 4096;
}
int run(void) {
    for (int i = 0; i < 65536; i++)
        y[i] = x[idx[i]];
    return 0;
}`, 65536, Options{}},
		{"hist", `
int data[65536];
int hist[256];
void setup(void) {
    for (int i = 0; i < 65536; i++) data[i] = (i * 1103515245 + 12345) % 256;
}
int run(void) {
    for (int i = 0; i < 65536; i++)
        hist[data[i]]++;
    return 0;
}`, 65536, Options{}},
		{"min", `
double a[65536];
double result;
void setup(void) {
    for (int i = 0; i < 65536; i++) a[i] = (double)((i * 37) % 9973) * 0.5;
}
int run(void) {
    double m = 1.0e30;
    for (int i = 0; i < 65536; i++)
        if (a[i] < m) m = a[i];
    result = m;
    return 0;
}`, 65536, Options{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := benchProgram(b, c.src, c.opts)
			if m.Program().FusedKernels() < 1 {
				b.Fatalf("%s did not fuse", c.name)
			}
			b.ReportAllocs()
			benchEntry(b, m)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.elems), "ns/elem")
		})
	}
}
