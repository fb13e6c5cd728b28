package apps

import "fmt"

// Gather workloads: the gather y[i] = x[idx[i]] in two builds that
// differ only in what the value-range analysis can prove about idx.
//
// GatherSrc fills idx with (i*7+13) % M, so every cell is provably in
// [0, M-1]: the gather read cannot trap, the per-element bounds test is
// elided and the nest parallelizes. GatherOpaqueSrc routes the modulus
// through a global set by another function — the contents of idx stay
// unbounded, the checked read stays, and the nest is serialized for
// trap-order parity. Both produce bit-identical outputs on in-bounds
// data; the proof only removes work that could never fire.

// GatherSrc is the provable gather: idx contents in [0, M-1] by
// construction, visible to the interval analysis.
const GatherSrc = `
int idx[N];
float x[M];
float y[N];

void initgather(void) {
    for (int i = 0; i < M; i++) { x[i] = (float)(i % 11) * 0.5f; }
    for (int i = 0; i < N; i++) { idx[i] = (i * 7 + 13) % M; }
}

int run(void) {
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < N; i++)
            y[i] = x[idx[i]];
    }
    return 0;
}

int main(void) {
    initgather();
    return run();
}
`

// GatherOpaqueSrc is the same gather with the modulus hidden behind a
// setter: the global m is written by another function, so the analysis
// cannot bound idx's contents and the compiler must keep the checked,
// serialized gather.
const GatherOpaqueSrc = `
int idx[N];
float x[M];
float y[N];
int m;

void setm(int v) { m = v; }

void initgather(void) {
    setm(M);
    for (int i = 0; i < M; i++) { x[i] = (float)(i % 11) * 0.5f; }
    for (int i = 0; i < N; i++) { idx[i] = (i * 7 + 13) % m; }
}

int run(void) {
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < N; i++)
            y[i] = x[idx[i]];
    }
    return 0;
}

int main(void) {
    initgather();
    return run();
}
`

// GatherDefines injects the gather sizes: n output elements gathered
// from an m-element table, REPS sweeps per run.
func GatherDefines(n, m, reps int) map[string]string {
	return map[string]string{
		"N":    fmt.Sprintf("%d", n),
		"M":    fmt.Sprintf("%d", m),
		"REPS": fmt.Sprintf("%d", reps),
	}
}

// GatherRef computes the gather result with the execution model's float
// semantics (idempotent across sweeps, since x and idx are constant).
func GatherRef(n, m int) []float32 {
	x := make([]float32, m)
	for i := 0; i < m; i++ {
		x[i] = float32(float64(i%11) * 0.5)
	}
	y := make([]float32, n)
	for i := 0; i < n; i++ {
		y[i] = x[(i*7+13)%m]
	}
	return y
}
