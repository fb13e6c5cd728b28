package comp

import (
	"testing"

	"purec/internal/interp"
)

// TestMinMaxKernel checks the fused min/max reduction kernels against
// the interp oracle, sequentially and
// under a parallel reduction clause, and that the tape engine — which
// asks the same matcher — fuses exactly what the closure engine does
// (its own copy of the dispatch cascade once forgot this family).
func TestMinMaxKernel(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"seq-int-min", `int a[100];
		int main(void) {
			for (int i = 0; i < 100; i++) a[i] = (i * 37) % 91 - 40;
			int m = 1000000;
			for (int i = 0; i < 100; i++) if (a[i] < m) m = a[i];
			return m;
		}`},
		{"seq-float-max-ternary", `double a[100];
		int main(void) {
			for (int i = 0; i < 100; i++) a[i] = (i * 37 % 91) * 0.25;
			double m = -1.0e30;
			for (int i = 0; i < 100; i++) m = a[i] > m ? a[i] : m;
			return (int)(m * 100.0);
		}`},
		{"seq-f32-min", `float a[64];
		int main(void) {
			for (int i = 0; i < 64; i++) a[i] = 10.0f - i * 0.125f;
			float m = 1.0e30f;
			for (int i = 0; i < 64; i++) if (a[i] < m) m = a[i];
			return (int)(m * 1000.0f);
		}`},
		{"par-int-max", `int a[200];
		int main(void) {
			for (int i = 0; i < 200; i++) a[i] = (i * 53) % 171;
			int m = -1;
			#pragma omp parallel for reduction(max:m)
			for (int i = 0; i < 200; i++) if (a[i] > m) m = a[i];
			return m;
		}`},
		{"par-float-min-offset", `double a[128];
		int main(void) {
			for (int i = 0; i < 128; i++) a[i] = ((i * 29) % 83) * 0.5 - 10.0;
			double m = 1.0e30;
			#pragma omp parallel for reduction(min:m)
			for (int i = 0; i < 120; i++) if (a[i + 8] < m) m = a[i + 8];
			return (int)(m * 10.0);
		}`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			f := compile(t, c.src, Options{Engine: EngineClosure})
			if f.Program().FusedKernels() == 0 {
				t.Fatal("min/max loop did not fuse")
			}
			fused, err := f.RunMain()
			if err != nil {
				t.Fatalf("fused: %v", err)
			}
			tp := compile(t, c.src, Options{Engine: EngineTape})
			if got, want := tp.Program().FusedKernels(), f.Program().FusedKernels(); got != want {
				t.Fatalf("tape engine fused %d kernels, closure engine %d", got, want)
			}
			if taped, err := tp.RunMain(); err != nil || taped != fused {
				t.Fatalf("tape engine returned %d (%v), closure engine %d", taped, err, fused)
			}
			in, err := interp.New(f.Program().Info(), nil)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			oracle, err := in.RunMain()
			if err != nil {
				t.Fatalf("interp run: %v", err)
			}
			if fused != oracle {
				t.Fatalf("fused returned %d, interp oracle %d", fused, oracle)
			}
		})
	}
}
