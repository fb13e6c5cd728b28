package core

import (
	"strings"
	"testing"

	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/rt"
)

// pragmaRow is one hand-written OpenMP pragma over one loop. A row
// with diag is malformed: the build and the interp load must both
// refuse it with that message. A row without diag is valid: both must
// run it to ret.
type pragmaRow struct {
	name string
	src  string
	diag string
	ret  int64
}

var pragmaRows = []pragmaRow{
	{name: "mixed-clause-list", diag: "reduction(+:s) has no matching 's +=' update in the annotated loop", src: `
int main(void) {
    int s = 0;
    int t = 1000;
#pragma omp parallel for reduction(+:s) reduction(/:t)
    for (int i = 0; i < 5; i++)
        t = t / 2;
    return s + t;
}`},
	{name: "missing-plus", diag: "reduction(+:nosuch) has no matching 'nosuch +=' update in the annotated loop", src: `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(+:nosuch)
    for (int i = 0; i < 10; i++)
        s += i;
    return s;
}`},
	{name: "missing-sub", diag: "reduction(-:nosuch) has no matching 'nosuch -=' update in the annotated loop", src: `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(-:nosuch)
    for (int i = 0; i < 10; i++)
        s = s + i;
    return s;
}`},
	{name: "missing-min", diag: "reduction(min:m) has no matching 'm =' update in the annotated loop", src: `
int main(void) {
    int m = 7;
#pragma omp parallel for reduction(min:m)
    for (int i = 0; i < 10; i++)
        m += i;
    return m;
}`},
	{name: "missing-max-array", diag: "reduction(max:hi[]) has no matching 'hi[...] =' update in the annotated loop", src: `
int main(void) {
    int hi[4];
    for (int b = 0; b < 4; b++)
        hi[b] = 0;
#pragma omp parallel for reduction(max:hi[])
    for (int i = 0; i < 16; i++)
        hi[i % 4] += i;
    return hi[0];
}`},
	{name: "missing-plus-array", diag: "reduction(+:hist[]) has no matching 'hist[...] +=' update in the annotated loop", src: `
int main(void) {
    int hist[8];
    int s = 0;
#pragma omp parallel for reduction(+:hist[])
    for (int i = 0; i < 10; i++)
        s += i;
    return s;
}`},
	{name: "noncanonical-parallel-for", diag: "#pragma omp parallel for requires a canonical loop (int i = lb; i < ub; i++)", src: `
int a[16];
int main(void) {
#pragma omp parallel for
    for (int i = 0; i < 16; i += 2)
        a[i] = i;
    return a[2] + a[14];
}`},
	{name: "noncanonical-reduction", diag: "#pragma omp parallel for requires a canonical loop (int i = lb; i < ub; i++)", src: `
int main(void) {
    int s = 0;
    int i;
#pragma omp parallel for reduction(+:s)
    for (i = 0; i < 10; i += 2)
        s += i;
    return s;
}`},
	{name: "pointer-accumulator", diag: "reduction(+:p) names a non-scalar accumulator", src: `
int main(void) {
    int a[4];
    int* p = a;
#pragma omp parallel for reduction(+:p)
    for (int i = 0; i < 4; i++)
        p += 1;
    return 0;
}`},
	{name: "unknown-schedule", diag: `unknown schedule "bogus,3"`, src: `
int a[16];
int main(void) {
#pragma omp parallel for schedule(bogus,3)
    for (int i = 0; i < 16; i++)
        a[i] = i;
    return a[15];
}`},
	{name: "malformed-reduction", diag: "malformed reduction(+s) clause", src: `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(+s)
    for (int i = 0; i < 10; i++)
        s += i;
    return s;
}`},
	{name: "plain-sub-reversed", diag: "reduction(-:s) has no matching 's -=' update in the annotated loop", src: `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(-:s)
    for (int i = 0; i < 10; i++)
        s = i - s;
    return s;
}`},
	{name: "dead-function", diag: "reduction(*:nosuch) has no matching 'nosuch *=' update in the annotated loop", src: `
int unused(void) {
    int s = 0;
#pragma omp parallel for reduction(*:nosuch)
    for (int i = 0; i < 4; i++)
        s += i;
    return s;
}
int main(void) { return 3; }`},
	{name: "plain-sub", ret: 500 - 4950, src: `
int main(void) {
    int s = 500;
#pragma omp parallel for reduction(-:s)
    for (int i = 0; i < 100; i++)
        s = s - i;
    return s;
}`},
	{name: "unsupported-op", ret: 45, src: `
int main(void) {
    int s = 0;
#pragma omp parallel for reduction(/:nosuch)
    for (int i = 0; i < 10; i++)
        s = s + i;
    return s;
}`},
	{name: "simd-is-not-parallel-for", ret: 45, src: `
int main(void) {
    int s = 0;
#pragma omp simd reduction(+:nosuch) schedule(bogus)
    for (int i = 0; i < 10; i++)
        s = s + i;
    return s;
}`},
	{name: "min-without-pattern", ret: 49, src: `
int a[50];
int main(void) {
    for (int i = 0; i < 50; i++)
        a[i] = i;
    int m = 0;
#pragma omp parallel for reduction(min:m)
    for (int i = 0; i < 50; i++)
        if (a[i] > m) m = a[i];
    return m;
}`},
	{name: "mixed-valid", ret: 45 + 1000/32, src: `
int main(void) {
    int s = 0;
    int t = 1000;
#pragma omp parallel for reduction(+:s) reduction(/:t) schedule(dynamic,3)
    for (int i = 0; i < 10; i++) {
        s += i;
        if (i < 5) t = t / 2;
    }
    return s + t;
}`},
	{name: "array-min", ret: -5 + 1 + 2 + 3, src: `
int main(void) {
    int lo[4];
    for (int b = 0; b < 4; b++)
        lo[b] = 1000;
#pragma omp parallel for reduction(min:lo[]) schedule(guided,2)
    for (int i = 0; i < 40; i++)
        if (i % 4 - (i == 20) * 5 < lo[i % 4]) lo[i % 4] = i % 4 - (i == 20) * 5;
    return lo[0] + lo[1] + lo[2] + lo[3];
}`},
}

// TestPragmaParity holds the compiler and the interp oracle to one
// reading of every hand-written pragma: a malformed pragma is refused
// by the build and the interp load with byte-identical text (from the
// source position on), and a valid one
// runs to the same result on a simulated 3-worker team and in the
// oracle.
func TestPragmaParity(t *testing.T) {
	for _, row := range pragmaRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			art, err := Front(row.src, Config{FileName: "parity.c"})
			if err != nil {
				t.Fatal(err)
			}
			var diags []string
			var rets []int64
			if prog, err := art.Compile(Config{}); err != nil {
				diags = append(diags, sourceDiag(err))
			} else {
				proc, err := prog.NewProcess(comp.ProcOptions{Team: rt.NewSimTeam(3)})
				if err != nil {
					t.Fatal(err)
				}
				ret, err := proc.RunMain()
				if err != nil {
					t.Fatal(err)
				}
				rets = append(rets, ret)
			}
			in, err := interp.New(art.Info, nil)
			if err == nil {
				ret, rerr := in.RunMain()
				if rerr != nil {
					diags = append(diags, sourceDiag(rerr))
				} else {
					rets = append(rets, ret)
				}
			} else {
				diags = append(diags, sourceDiag(err))
			}
			if row.diag == "" {
				if len(diags) > 0 {
					t.Fatalf("valid pragma refused: %q (ran: %v)", diags, rets)
				}
				for _, ret := range rets {
					if ret != row.ret {
						t.Fatalf("tape, interp returned %v, want %d each", rets, row.ret)
					}
				}
				return
			}
			if len(diags) != 2 {
				t.Fatalf("malformed pragma ran on %d of 2 (returned %v; refused with %q)", 2-len(diags), rets, diags)
			}
			for _, d := range diags {
				if d != diags[0] || !strings.HasSuffix(d, ": "+row.diag) {
					t.Fatalf("tape, interp refused with %q, want one text ending in %q", diags, row.diag)
				}
			}
		})
	}
}

// sourceDiag is an error's text from its source position on, the part
// that names the pragma's fault, without the layers that wrapped it.
func sourceDiag(err error) string {
	msg := err.Error()
	if i := strings.Index(msg, "parity.c:"); i >= 0 {
		return msg[i:]
	}
	return msg
}
