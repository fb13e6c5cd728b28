package apps

import "fmt"

// ReduceSumSrc is the README quickstart kernel at benchmark scale: a
// loop accumulating results of a pure call, `s += square(i)` — the
// paper's headline pattern, which PR 3's reduction stage turns into
// `#pragma omp parallel for reduction(+:s)`. The accumulator is an
// integer, so the parallel result is bit-identical to the serial build
// at every team size — and, the sum being exact in any order, comp
// fuses the loop (square inlined, its argument computed once) into an
// integer-sum kernel on every backend, which each worker of the
// reduction runs over its chunks.
const ReduceSumSrc = `
int result;

pure int square(int x) { return x * x; }

int run(void) {
    int s = 0;
    for (int i = 0; i < N; i++)
        s += square(i % 8191);
    result = s;
    return 0;
}

int main(void) {
    return run();
}
`

// ReduceDotSrc is the extracted dot-product kernel called once at top
// level: the reduction loop inside dot is the only parallelism in the
// program, so the serial-vs-reduction comparison isolates exactly the
// new parallel-reduction runtime (in the matmul figures the dot calls
// sit inside an already-parallel nest and run inline).
const ReduceDotSrc = `
float *x, *y;
float result;

pure float mult(float a, float b) {
    return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += mult(a[i], b[i]);
    return res;
}

void initvec(void) {
    x = (float*)malloc(N * sizeof(float));
    y = (float*)malloc(N * sizeof(float));
    for (int i = 0; i < N; i++) {
        x[i] = (float)(i % 13) * 0.25f;
        y[i] = (float)(i % 7) * 0.5f;
    }
}

int run(void) {
    result = dot((pure float*)x, (pure float*)y, N);
    return 0;
}

int main(void) {
    initvec();
    return run();
}
`

// ReduceDefines injects the vector/loop length.
func ReduceDefines(n int) map[string]string {
	return map[string]string{"N": fmt.Sprintf("%d", n)}
}

// ReduceSumRef computes the integer sum the quickstart kernel must
// produce (exact at every team size).
func ReduceSumRef(n int) int64 {
	var s int64
	for i := 0; i < n; i++ {
		v := int64(i % 8191)
		s += v * v
	}
	return s
}
