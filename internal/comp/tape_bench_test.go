package comp

import (
	"testing"

	"purec/internal/parser"
	"purec/internal/sema"
)

// benchSrc is an axpy-shaped dispatch workload: the doubly braced body
// keeps the matcher off the loop, so every iteration pays full
// statement dispatch on the selected engine.
const benchSrc = `
float x[4096], y[4096];

int run(void) {
	float a = 1.5f;
	for (int i = 0; i < 4096; i++) {
		{ y[i] = a * x[i] + y[i]; }
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

func benchEngine(b *testing.B, src string, eng Engine) {
	b.Helper()
	file, err := parser.Parse("bench.c", src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sema.Check(file)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Compile(info, Options{Engine: eng})
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

func BenchmarkAxpyClosure(b *testing.B)   { benchEngine(b, benchSrc, EngineClosure) }
func BenchmarkAxpyTape(b *testing.B)      { benchEngine(b, benchSrc, EngineTape) }
func BenchmarkBranchClosure(b *testing.B) { benchEngine(b, benchBranchSrc, EngineClosure) }
func BenchmarkBranchTape(b *testing.B)    { benchEngine(b, benchBranchSrc, EngineTape) }
