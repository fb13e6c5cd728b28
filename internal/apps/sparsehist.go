package apps

import "fmt"

// SparseHistSrc is a sparse-touch array-reduction corpus program: a
// bin count over a large bin space (BINS cells) whose data values all
// land in a K-bin window starting at BASE — the shape of feature
// hashing or cluster counting where the live labels occupy a tiny
// slice of the id space. The hot loop is the same hist[data[i]]++
// array reduction as HistogramSrc, but each worker touches at
// most K bins of a BINS-cell accumulator while its dense private copy
// still costs O(BINS) to allocate, identity-fill and combine (the
// shape on which the retired block-sparse privates were measured).
//
// Only the K-bin window copies out, so checking the result stays O(K).
const SparseHistSrc = `
int data[N];
int out[K];

void initdata(void) {
    for (int i = 0; i < N; i++)
        data[i] = BASE + (i * 1103515245 + 12345) % K;
}

int run(void) {
    int hist[BINS];
    for (int b = 0; b < BINS; b++)
        hist[b] = 0;
    for (int i = 0; i < N; i++)
        hist[data[i]]++;
    for (int b = 0; b < K; b++)
        out[b] = hist[BASE + b];
    return 0;
}

int main(void) {
    initdata();
    return run();
}
`

// SparseHistDefines injects the element count, the bin-space size and
// the touched-window width; the window sits mid-space.
func SparseHistDefines(n, bins, touched int) map[string]string {
	if touched > bins {
		touched = bins
	}
	return map[string]string{
		"N":    fmt.Sprintf("%d", n),
		"BINS": fmt.Sprintf("%d", bins),
		"K":    fmt.Sprintf("%d", touched),
		"BASE": fmt.Sprintf("%d", (bins-touched)/2),
	}
}
