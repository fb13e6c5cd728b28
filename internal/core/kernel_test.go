package core

import (
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
)

// kernelRows are the kernel workloads of internal/apps, sized down for
// tests.
func kernelRows() []oracleRow {
	kd := apps.KernDefines(512, 2)
	par := Config{Parallelize: true}
	return []oracleRow{
		{name: "axpy", src: apps.AxpySrc, defines: kd, base: par},
		{name: "copy", src: apps.CopySrc, defines: kd, base: par},
		{name: "stencil", src: apps.StencilSrc, defines: kd, base: par},
		{name: "matmul", src: apps.MatmulKernSrc, defines: apps.MatmulDefines(20), base: par},
	}
}

// TestKernelFusionOracle12Processes is the fused-kernel equivalence
// proof: every kernel workload runs through the oracle matrix, and
// every build of it must fuse a kernel — matmul's float dot only on
// icc, as gcc fuses it only with Vectorize. Fused parallel workers
// share the parent environment read-only and write disjoint chunk
// slices.
func TestKernelFusionOracle12Processes(t *testing.T) {
	rows := kernelRows()
	for i := range rows {
		iccOnly := rows[i].name == "matmul"
		rows[i].check = func(t *testing.T, b oracleBuild) {
			if b.prog.FusedKernels() == 0 && (b.cfg.Backend == comp.BackendICC || !iccOnly) {
				t.Errorf("%v: build reports zero fused kernels", b)
			}
		}
	}
	runOracleMatrix(t, false, rows)
}

func withDefs(cfg Config, defs map[string]string) Config {
	cfg.Defines = defs
	return cfg
}

// TestKernelFusionOutOfBoundsEdgeTraps pins the hoisted-range-check
// contract on the trap side: a stencil whose edge iteration reads one
// cell past the array must fail as a runtime error in the fused build
// and in the interp oracle — never silently read a neighboring
// allocation.
func TestKernelFusionOutOfBoundsEdgeTraps(t *testing.T) {
	src := `
float *x, *y;
void initvec(void) {
    x = (float*)malloc(N * sizeof(float));
    y = (float*)malloc(N * sizeof(float));
    for (int i = 0; i < N; i++)
        x[i] = 1.0f;
}
int main(void) {
    initvec();
    /* i runs to N-1 inclusive: x[i+1] reads x[N] on the last edge */
    for (int i = 1; i < N; i++)
        y[i] = 0.5f * (x[i - 1] + x[i + 1]);
    return 0;
}
`
	defs := map[string]string{"N": "64"}
	res, err := Build(src, Config{Defines: defs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.FusedKernels() == 0 {
		t.Fatal("the stencil loop did not fuse")
	}
	if _, err := res.Machine.RunMain(); err == nil {
		t.Fatal("out-of-bounds stencil edge must trap")
	} else if _, isRT := err.(*comp.RuntimeError); !isRT {
		t.Fatalf("want RuntimeError, got %T %v", err, err)
	}
	// The oracle agrees the program is faulty.
	art, err := Front(src, Config{Defines: defs})
	if err != nil {
		t.Fatal(err)
	}
	in, err := interp.New(art.Info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.RunMain(); err == nil {
		t.Fatal("interp oracle must also trap the out-of-bounds edge")
	}
}
