package apps

import "fmt"

// Kernel workloads: the canonical element-wise kernels the fusion
// engine targets, each as an init + run pair so a harness times only
// the kernel — the benchmark's comp.kernel_ns_per_elem probes and the
// fusion oracle tests (matmul, the fourth workload,
// reuses MatmulSrc — its hot loop is the extracted-dot reduction
// kernel).
//
// KernRef* compute the expected outputs with the execution model's
// float semantics (float64 arithmetic, float32 rounding at stores) so
// tests can pin every variant bit-for-bit.

// AxpySrc is the axpy kernel y = a*x + y, REPS sweeps over length N.
const AxpySrc = `
float *x, *y;

void initvec(void) {
    x = (float*)malloc(N * sizeof(float));
    y = (float*)malloc(N * sizeof(float));
    for (int i = 0; i < N; i++) {
        x[i] = (float)(i % 13) * 0.25f;
        y[i] = (float)(i % 7) * 0.5f;
    }
}

int run(void) {
    float a = 1.5f;
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < N; i++)
            y[i] = a * x[i] + y[i];
    }
    return 0;
}

int main(void) {
    initvec();
    return run();
}
`

// CopySrc is the bulk copy kernel y = x.
const CopySrc = `
float *x, *y;

void initvec(void) {
    x = (float*)malloc(N * sizeof(float));
    y = (float*)malloc(N * sizeof(float));
    for (int i = 0; i < N; i++) {
        x[i] = (float)(i % 17) * 0.125f;
        y[i] = 0.0f;
    }
}

int run(void) {
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < N; i++)
            y[i] = x[i];
    }
    return 0;
}

int main(void) {
    initvec();
    return run();
}
`

// StencilSrc is a 1-D 3-point stencil y[i] = c*(x[i-1]+x[i]+x[i+1])
// over the interior — constant-offset reads, the shape whose bounds
// check must cover [0, N) from a single hoisted test per operand.
const StencilSrc = `
float *x, *y;

void initvec(void) {
    x = (float*)malloc(N * sizeof(float));
    y = (float*)malloc(N * sizeof(float));
    for (int i = 0; i < N; i++) {
        x[i] = (float)(i % 11) * 0.5f;
        y[i] = 0.0f;
    }
}

int run(void) {
    float c = 0.3333f;
    for (int r = 0; r < REPS; r++) {
        for (int i = 1; i < N - 1; i++)
            y[i] = c * (x[i - 1] + x[i] + x[i + 1]);
    }
    return 0;
}

int main(void) {
    initvec();
    return run();
}
`

// MatmulKernSrc is the kernel matrix-multiplication workload: the paper's
// extracted-dot matmul (Listing 7 shape) with an init/run split so the
// harness times only the compute. On every backend the dot loop
// compiles to the fused reduction kernel; on dispatch it would pay tape
// instructions per iteration per operand.
const MatmulKernSrc = `
float **A, **Bt, **C;

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int k = 0; k < size; ++k)
        res += a[k] * b[k];
    return res;
}

void initmat(void) {
    A = (float**)malloc(N * sizeof(float*));
    Bt = (float**)malloc(N * sizeof(float*));
    C = (float**)malloc(N * sizeof(float*));
    for (int i = 0; i < N; i++) {
        A[i] = (float*)malloc(N * sizeof(float));
        Bt[i] = (float*)malloc(N * sizeof(float));
        C[i] = (float*)malloc(N * sizeof(float));
    }
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {
            A[i][j] = (float)((i + j) % 13) * 0.25f;
            Bt[i][j] = (float)((i - j) % 7) * 0.5f;
        }
}

int run(void) {
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], N);
    return 0;
}

int main(void) {
    initmat();
    return run();
}
`

// NoncanonSrc is the deliberately non-canonical tape workload: the
// loop body declares a local and branches per element, so it neither
// fuses (no single element-wise statement) nor vectorizes (no
// reduction shape) — every iteration runs on the tape's dispatch loop,
// making dispatch cost the whole measurement.
const NoncanonSrc = `
float *x, *y;

void initvec(void) {
    x = (float*)malloc(N * sizeof(float));
    y = (float*)malloc(N * sizeof(float));
    for (int i = 0; i < N; i++) {
        x[i] = (float)(i % 13) * 0.25f;
        y[i] = (float)(i % 7) * 0.5f;
    }
}

int run(void) {
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < N; i++) {
            float v = x[i];
            if (v > 2.5f)
                y[i] = v * 0.5f + y[i] * 0.25f;
            else
                y[i] = v + 0.125f;
        }
    }
    return 0;
}

int main(void) {
    initvec();
    return run();
}
`

// KernDefines injects the vector length and sweep count of the
// element-wise kernels.
func KernDefines(n, reps int) map[string]string {
	return map[string]string{
		"N":    fmt.Sprintf("%d", n),
		"REPS": fmt.Sprintf("%d", reps),
	}
}

// KernRefAxpy computes the axpy result after reps sweeps.
func KernRefAxpy(n, reps int) []float32 {
	x := make([]float32, n)
	y := make([]float32, n)
	for i := 0; i < n; i++ {
		x[i] = float32(float64(i%13) * 0.25)
		y[i] = float32(float64(i%7) * 0.5)
	}
	a := float32(1.5)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			y[i] = float32(float64(a)*float64(x[i]) + float64(y[i]))
		}
	}
	return y
}

// KernRefStencil computes the stencil result (one sweep is
// idempotent-free, so reps matters only through x staying constant).
func KernRefStencil(n int) []float32 {
	x := make([]float32, n)
	y := make([]float32, n)
	for i := 0; i < n; i++ {
		x[i] = float32(float64(i%11) * 0.5)
	}
	c := float32(0.3333)
	for i := 1; i < n-1; i++ {
		s := float64(x[i-1]) + float64(x[i]) + float64(x[i+1])
		y[i] = float32(float64(c) * s)
	}
	return y
}
