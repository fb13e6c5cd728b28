package apps

import "fmt"

// Relational-analysis workloads (PR 8): the three shapes the interval
// analysis of PR 7 could not prove and the relational layer can — a
// derived-iterator subscript, a ?:-clamped gather, and a pointer-operand
// loop resolved by the alias analysis — plus the aliased-pointer edge
// pair that must stay serial. Each is the provable/unprovable A/B
// discipline of the gather pair (gather.go): the proof removes only work
// that could never fire, so outputs are bit-identical either way.

// DerivedSrc is the derived-iterator subscript: j = i + K inherits i's
// loop bounds through the affine relation, so x[j] proves in-bounds
// (extent N + K), the transformer forward-substitutes j, and the body
// collapses to a fusable single-statement copy.
const DerivedSrc = `
float x[M];
float y[N];

void initrel(void) {
    for (int i = 0; i < M; i++) { x[i] = (float)(i % 9) * 0.25f; }
}

int run(void) {
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < N; i++) {
            int j = i + K;
            y[i] = x[j];
        }
    }
    return 0;
}

int main(void) {
    initrel();
    return run();
}
`

// ClampGatherSrc is the ?:-clamp idiom of the k-means assignment step:
// the data-dependent index d[i] is clamped into [0, M-1] inline, the
// path-sensitive refinement proves the access, and the clamped gather
// kernel elides its per-element bounds test.
const ClampGatherSrc = `
float x[M];
float y[N];
int d[N];

void initrel(void) {
    for (int i = 0; i < M; i++) { x[i] = (float)(i % 9) * 0.25f; }
    for (int i = 0; i < N; i++) { d[i] = i % (2 * M) - M / 2; }
}

int run(void) {
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < N; i++)
            y[i] = x[d[i] < 0 ? 0 : (d[i] > M - 1 ? M - 1 : d[i])];
    }
    return 0;
}

int main(void) {
    initrel();
    return run();
}
`

// PtrScaleSrc is the no-alias pointer-operand loop: p and q are
// single-store pointers into distinct arrays, so the points-to analysis
// resolves both exactly, the dependence analysis sees disjoint regions,
// and the nest parallelizes with the p[i] check proven against x's
// extent minus the offset.
const PtrScaleSrc = `
float x[M];
float y[N];

void initrel(void) {
    for (int i = 0; i < M; i++) { x[i] = (float)(i % 9) * 0.25f; }
}

int run(void) {
    float *p = &x[K];
    float *q = &y[0];
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < N; i++)
            q[i] = p[i] * 2.0f + 1.0f;
    }
    return 0;
}

int main(void) {
    initrel();
    return run();
}
`

// AliasedPairSrc is the must-stay-serial edge: p and q overlap inside
// the same array (q = p + 1), so the write through p and the read
// through q carry a real loop dependence; the alias resolution renames
// both to x and the dependence analysis serializes the nest. A compiler
// that keyed accesses by pointer name would race here.
const AliasedPairSrc = `
float x[M];

void initrel(void) {
    for (int i = 0; i < M; i++) { x[i] = (float)(i % 9) * 0.25f; }
}

int run(void) {
    float *p = &x[0];
    float *q = &x[1];
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < N; i++)
            p[i] = q[i] * 0.5f + 0.125f;
    }
    return 0;
}

int main(void) {
    initrel();
    return run();
}
`

// RelationalDefines sizes the relational workloads: n output elements,
// an m-element table, offset k, REPS sweeps per run. DerivedSrc and
// PtrScaleSrc require m >= n + k so the shifted window stays in
// bounds; AliasedPairSrc requires m >= n + 1.
func RelationalDefines(n, m, k, reps int) map[string]string {
	return map[string]string{
		"N":    fmt.Sprintf("%d", n),
		"M":    fmt.Sprintf("%d", m),
		"K":    fmt.Sprintf("%d", k),
		"REPS": fmt.Sprintf("%d", reps),
	}
}
