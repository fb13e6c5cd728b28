package core

import (
	"strings"
	"testing"

	"purec/internal/interp"
	"purec/internal/transform"
)

// reduceSrc is the README quickstart shape: a loop accumulating results
// of a pure call — the paper's headline pattern, which the reduction
// stage must parallelize end to end.
const reduceSrc = `#include <stdio.h>
pure int square(int x) { return x * x; }
int main(void) {
    int s = 0;
    for (int i = 0; i < 100; i++) s += square(i);
    printf("%d\n", s);
    return s == 328350;
}
`

// TestQuickstartReductionParallelizes pins the acceptance criterion:
// the README quickstart loop compiles to a parallel reduction — the
// report shows a parallel nest with reduction(+:s) — and the computed
// sum is identical to the serial build and the interp oracle.
func TestQuickstartReductionParallelizes(t *testing.T) {
	res, err := Build(reduceSrc, Config{Parallelize: true, TeamSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stages.Transformed, "reduction(+:s)") {
		t.Fatalf("transformed source lacks the reduction clause:\n%s", res.Stages.Transformed)
	}
	if len(res.Report.Loops) != 1 {
		t.Fatalf("want 1 SCoP in report, got %d", len(res.Report.Loops))
	}
	lr := res.Report.Loops[0]
	if lr.ParallelLevel != 0 {
		t.Fatalf("quickstart nest not parallel: %+v", lr)
	}
	if len(lr.Reductions) != 1 || lr.Reductions[0] != "+:s" {
		t.Fatalf("report reductions = %v, want [+:s]", lr.Reductions)
	}
	if lr.SerialReason != "" {
		t.Fatalf("parallel nest carries a serial reason: %q", lr.SerialReason)
	}

	par, err := res.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Build(reduceSrc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := seq.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	in, err := interp.New(res.Info, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := in.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if par != 1 || ser != 1 || oracle != 1 {
		t.Fatalf("parallel=%d serial=%d oracle=%d, want all 1 (sum matches 328350)", par, ser, oracle)
	}
}

// TestSerialReasonReachesReport pins the diagnosis path: when a scalar
// write is not a recognized reduction, the report says so.
func TestSerialReasonReachesReport(t *testing.T) {
	src := `
pure int f(int x) { return x + 1; }
int main(void) {
    int s = 0;
    int t = 0;
    for (int i = 0; i < 100; i++) {
        s += f(i);
        t = s + 2;
    }
    return t;
}
`
	res, err := Build(src, Config{Parallelize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Loops) != 1 {
		t.Fatalf("want 1 SCoP, got %d", len(res.Report.Loops))
	}
	lr := res.Report.Loops[0]
	if lr.ParallelLevel != -1 {
		t.Fatalf("nest must stay serial (s is read by t's update): %+v", lr)
	}
	if !strings.Contains(lr.SerialReason, "scalar write to") || !strings.Contains(lr.SerialReason, "s") {
		t.Fatalf("SerialReason = %q, want a scalar-write explanation naming s", lr.SerialReason)
	}
	if !strings.Contains(res.Report.String(), lr.SerialReason) {
		t.Fatal("Report.String must include the serialization reason")
	}
}

// reduceOracleSrc exercises an integer reduction with a pure call under
// an imbalance-prone schedule; run() returns the checksum.
const reduceOracleSrc = `
pure int weight(int x) { return (x * x) % 97 + (x % 7); }
int run(void) {
    int s = 1234;
    for (int i = 0; i < 3000; i++)
        s += weight(i);
    return s;
}
int main(void) { return run(); }
`

// TestReductionOracle12Processes proves integer reductions
// bit-identical through the oracle matrix; every build must carry the
// reduction clause.
func TestReductionOracle12Processes(t *testing.T) {
	runOracleMatrix(t, false, []oracleRow{{name: "weight", src: reduceOracleSrc, base: Config{Parallelize: true},
		check: func(t *testing.T, b oracleBuild) {
			if !strings.Contains(b.art.Stages.Transformed, "reduction(+:s)") {
				t.Fatalf("reduction not recognized:\n%s", b.art.Stages.Transformed)
			}
		}}})
}

// TestReductionUnderTiling checks reductions compose with the tiling
// path: the k-accumulation of the tiled matmul test still reduces
// correctly (array writes remain ordinary accesses; only the scalar
// accumulator is privatized).
func TestReductionUnderTiling(t *testing.T) {
	src := `
#define N 24
float A[N];
int main(void) {
    for (int i = 0; i < N; i++)
        A[i] = (float)(i % 5) * 0.5f;
    float s = 0.0f;
    for (int i = 0; i < N; i++)
        s += A[i];
    return (int)s;
}
`
	par, err := Build(src, Config{Parallelize: true, TeamSize: 4,
		Transform: transform.Options{Tile: true, TileSizes: []int{8}, MinParallelTrip: -1}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Build(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tiled reduction: got %d want %d", got, want)
	}
}

// TestMinMaxReductionParallelizes pins the ROADMAP follow-up end to
// end: the canonical min if-pattern is recognized by scop, excluded
// from the parallelism decision, emitted as reduction(min:m), and the
// parallel run matches the serial build and the interp oracle exactly.
func TestMinMaxReductionParallelizes(t *testing.T) {
	src := `
int a[4000];
void setup(void) {
    for (int i = 0; i < 4000; i++)
        a[i] = (i * 2654435761) % 100000;
}
int main(void) {
    setup();
    int m = 1 << 30;
    for (int i = 0; i < 4000; i++)
        if (a[i] < m) m = a[i];
    return m % 251;
}
`
	res, err := Build(src, Config{Parallelize: true, TeamSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stages.Transformed, "reduction(min:m)") {
		t.Fatalf("transformed source lacks the min clause:\n%s", res.Stages.Transformed)
	}
	var lr *transform.LoopReport
	for i := range res.Report.Loops {
		for _, r := range res.Report.Loops[i].Reductions {
			if r == "min:m" {
				lr = &res.Report.Loops[i]
			}
		}
	}
	if lr == nil {
		t.Fatalf("no loop report carries the min:m reduction: %+v", res.Report.Loops)
	}
	if lr.ParallelLevel != 0 {
		t.Fatalf("min nest not parallel: %+v", *lr)
	}

	par, err := res.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Build(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := seq.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	in, err := interp.New(res.Info, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := in.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if par != ser || par != oracle {
		t.Fatalf("parallel=%d serial=%d oracle=%d must all agree", par, ser, oracle)
	}
}

// TestMinMaxTernaryRecognized covers the ?: form and the max
// direction through the same pipeline.
func TestMinMaxTernaryRecognized(t *testing.T) {
	src := `
int a[1000];
int main(void) {
    for (int i = 0; i < 1000; i++)
        a[i] = (i * 37) % 8191;
    int m = -1;
    for (int i = 0; i < 1000; i++)
        m = a[i] > m ? a[i] : m;
    return m % 127;
}
`
	res, err := Build(src, Config{Parallelize: true, TeamSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stages.Transformed, "reduction(max:m)") {
		t.Fatalf("transformed source lacks the max clause:\n%s", res.Stages.Transformed)
	}
	par, err := res.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Build(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := seq.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if par != ser {
		t.Fatalf("parallel=%d serial=%d", par, ser)
	}
}

// TestMinMaxUsedElsewhereStaysSerial: an accumulator read by another
// statement in the nest is a real dependence, not a reduction.
func TestMinMaxUsedElsewhereStaysSerial(t *testing.T) {
	src := `
int a[100], b[100];
int main(void) {
    for (int i = 0; i < 100; i++)
        a[i] = i;
    int m = 1 << 30;
    for (int i = 0; i < 100; i++) {
        if (a[i] < m) m = a[i];
        b[i] = m;
    }
    return m;
}
`
	res, err := Build(src, Config{Parallelize: true, TeamSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.Report.Loops {
		for _, r := range lr.Reductions {
			if r == "min:m" && lr.ParallelLevel >= 0 {
				t.Fatalf("m is read by b[i]=m; the nest must stay serial: %+v", lr)
			}
		}
	}
	par, err := res.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Build(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := seq.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if par != ser {
		t.Fatalf("parallel=%d serial=%d", par, ser)
	}
}
