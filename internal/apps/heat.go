package apps

import "fmt"

// HeatSrc is the heat-distribution application (Sect. 4.1, second code):
// a plate of N×N cells, permanently heated at one boundary point,
// iterated STEPS times with a 4-point stencil into a double buffer. The
// stencil is an external pure function, which is what lets the pure tool
// chain parallelize the space nest; the time loop carries a dependence
// and stays serial.
const HeatSrc = `
float **cur, **next;

pure float avg(pure float* up, pure float* mid, pure float* down, int j) {
    return 0.25f * (up[j] + mid[j - 1] + mid[j + 1] + down[j]);
}

void initplate(void) {
    cur = (float**)malloc(N * sizeof(float*));
    next = (float**)malloc(N * sizeof(float*));
    for (int i = 0; i < N; i++) {
        cur[i] = (float*)malloc(N * sizeof(float));
        next[i] = (float*)malloc(N * sizeof(float));
    }
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {
            cur[i][j] = 0.0f;
            next[i][j] = 0.0f;
        }
}

int main(void) {
    initplate();
    for (int t = 0; t < STEPS; t++) {
        cur[0][N / 2] = 100.0f;
        for (int i = 1; i < N - 1; i++)
            for (int j = 1; j < N - 1; j++)
                next[i][j] = avg((pure float*)cur[i - 1], (pure float*)cur[i], (pure float*)cur[i + 1], j);
        for (int i = 1; i < N - 1; i++)
            for (int j = 1; j < N - 1; j++)
                cur[i][j] = next[i][j];
    }
    return 0;
}
`

// HeatInlinedSrc inlines the stencil for the classic PluTo comparator.
// The paper found this version faster than pure under GCC because the
// inlined body avoids one function call per cell (Sect. 4.3.2: 47.5 vs
// 87.8 billion user-space instructions). That gap is the paper's, not
// this compiler's: avg is a leaf pure function, comp compiles each call
// of it as the expression it returns, and the two sources compile to the
// same kernels.
const HeatInlinedSrc = `
float **cur, **next;

void initplate(void) {
    cur = (float**)malloc(N * sizeof(float*));
    next = (float**)malloc(N * sizeof(float*));
    for (int i = 0; i < N; i++) {
        cur[i] = (float*)malloc(N * sizeof(float));
        next[i] = (float*)malloc(N * sizeof(float));
    }
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {
            cur[i][j] = 0.0f;
            next[i][j] = 0.0f;
        }
}

int main(void) {
    initplate();
    for (int t = 0; t < STEPS; t++) {
        cur[0][N / 2] = 100.0f;
        for (int i = 1; i < N - 1; i++)
            for (int j = 1; j < N - 1; j++)
                next[i][j] = 0.25f * (cur[i - 1][j] + cur[i][j - 1] + cur[i][j + 1] + cur[i + 1][j]);
        for (int i = 1; i < N - 1; i++)
            for (int j = 1; j < N - 1; j++)
                cur[i][j] = next[i][j];
    }
    return 0;
}
`

// HeatDefines injects the plate size and time steps.
func HeatDefines(n, steps int) map[string]string {
	return map[string]string{
		"N":     fmt.Sprintf("%d", n),
		"STEPS": fmt.Sprintf("%d", steps),
	}
}

// HeatRef computes the final plate with the execution model's float
// semantics for verification.
func HeatRef(n, steps int) [][]float32 {
	cur := make([][]float32, n)
	next := make([][]float32, n)
	for i := range cur {
		cur[i] = make([]float32, n)
		next[i] = make([]float32, n)
	}
	for t := 0; t < steps; t++ {
		cur[0][n/2] = 100
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				// Model semantics: float64 interior arithmetic, one
				// float32 rounding at the store / pure-function return.
				s := float64(cur[i-1][j]) + float64(cur[i][j-1]) + float64(cur[i][j+1]) + float64(cur[i+1][j])
				next[i][j] = float32(0.25 * s)
			}
		}
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				cur[i][j] = next[i][j]
			}
		}
	}
	return cur
}
