package core

import (
	"fmt"
	"strings"
	"testing"

	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/rt"
	"purec/internal/transform"
)

// stripCase is one program of the strip differential.
type stripCase struct {
	name, src string
	// fused, when ≥ 0, is the FusedKernels() the sequential gcc build
	// must report: the cases that must stay on dispatch say so here.
	fused int
	// traps: the program ends in a guest trap. Which sibling chunks ran
	// before it is schedule-dependent, so these compare sequential
	// builds only — stdout, trap text and the cells of `out`.
	traps bool
	// seq: the case folds floats, which fuse into sums only under
	// -vectorize and reassociate across workers, so it runs the
	// sequential gcc and gcc+vec builds, and fused counts the latter.
	seq bool
}

// stripLens are the strip lengths the cases straddle: comp's stripLen
// and its neighbours, so that the boundaries stay covered should the
// constant move.
var stripLens = []int{64, 128, 256}

// genStripCases builds the programs that only a strip-mined evaluator
// can get wrong: loop-carried distances around the strip length,
// through the array and through an aliasing pointer; trip counts around
// it at unit and wider store strides; zero divisors in the middle of a
// strip; and the integer-sum sink with every accumulator that must
// refuse it.
func genStripCases() []stripCase {
	var cases []stripCase
	const n = 4*256 + 40 // room for the longest distance, 3*256+5
	dists := []int{1, 2}
	trips := []int{0, 1}
	for _, s := range stripLens {
		dists = append(dists, s-1, s, s+1, 3*s+5)
		trips = append(trips, s-1, s, s+1, 2*s+3)
	}
	for _, d := range dists {
		// In place through the array (x), through a pointer into it
		// (p over y — a compound assign and a triad shape), and the
		// forward reads that carry no value from store to load.
		cases = append(cases, stripCase{name: fmt.Sprintf("distance-%d", d), fused: 5, src: fmt.Sprintf(`
int x[%[1]d]; int y[%[1]d]; int z[%[1]d]; float fx[%[1]d]; float fy[%[1]d];
int main(void) {
    for (int i = 0; i < %[1]d; i++) {
        x[i] = i * 7 %% 13; y[i] = i %% 5 + 1; z[i] = i %% 11;
        fx[i] = 0.25f * (float)(i %% 9); fy[i] = 0.125f * (float)(i %% 7);
    }
    for (int i = %[2]d; i < %[1]d; i++) x[i] = x[i - %[2]d] + 3;
    int* p = y + %[2]d;
    for (int i = 0; i < %[1]d - %[2]d; i++) p[i] = y[i] * 2 + p[i] %% 3;
    for (int i = 0; i < %[1]d - %[2]d; i++) z[i] = z[i + %[2]d] * 3 + i;
    float* q = fx + %[2]d;
    for (int i = 0; i < %[1]d - %[2]d; i++) q[i] = 0.5f * fx[i] + q[i];
    for (int i = %[2]d; i < %[1]d; i++) fy[i] = (fy[i - %[2]d] + fy[i]) * 0.75f - fy[i];
    for (int i = 0; i < %[1]d; i++) printf("%%d %%d %%d %%g %%g\n", x[i], y[i], z[i], fx[i], fy[i]);
    return 0;
}`, n, d)})
	}
	// Operands of unequal stride over the same cells: the store runs
	// ahead of a load that later reads what it wrote; a loop-invariant
	// cell inside the stored range.
	cases = append(cases, stripCase{name: "unequal-strides", fused: 3, src: `
int x[700]; int y[700];
int main(void) {
    for (int i = 0; i < 700; i++) { x[i] = i % 23; y[i] = i % 29; }
    for (int i = 0; i < 340; i++) x[2 * i + 1] = x[i] + 2;
    for (int i = 0; i < 340; i++) y[i] = y[2 * i] + y[150];
    for (int i = 0; i < 200; i++) x[3 * i] = x[i + 200] - x[2 * i];
    for (int i = 0; i < 700; i++) printf("%d %d\n", x[i], y[i]);
    return 0;
}`})
	for _, stride := range []int{1, 3} {
		var loops strings.Builder
		for j, trip := range trips {
			fmt.Fprintf(&loops, "    for (int i = 0; i < %d; i++) a[%d * i] = (b[i] + i) * %d %% 11;\n", trip, stride, j+2)
			fmt.Fprintf(&loops, "    for (int i = 0; i < %d; i++) fa[%d * i + 1] = fb[i] * 0.1f + fb[i + 1] * %d.5f;\n", trip, stride, j)
			fmt.Fprintf(&loops, "    for (int i = 0; i < %d; i++) fa[%d * i] = 0.1f * (float)(seed + %d);\n", trip/2, stride, j)
		}
		cells := 3*(2*256+3) + 8
		cases = append(cases, stripCase{name: fmt.Sprintf("trips-stride-%d", stride), fused: 3 * len(trips), src: fmt.Sprintf(`
int a[%[1]d]; int b[%[1]d]; float fa[%[1]d]; float fb[%[1]d];
int main(void) {
    for (int i = 0; i < %[1]d; i++) { a[i] = -1; b[i] = i * 5 %% 17; fa[i] = -1.0f; fb[i] = 0.3f * (float)(i %% 21); }
    int seed = b[3] + 1;
%[2]s    for (int i = 0; i < %[1]d; i++) printf("%%d %%g\n", a[i], fa[i]);
    return 0;
}`, cells, loops.String())})
	}
	// A zero divisor at element k, in the middle of a strip, whose op
	// comes second; the op that comes first has its own zero at a later
	// element. The dispatch loop dies at k on the second op, with
	// out[0..k) written.
	for _, tc := range []struct {
		name, first, second string
		k, later            int
	}{
		{"quo-after-rem", "%", "/", 70, 90},
		{"rem-after-quo", "/", "%", 200, 201},
		{"quo-at-strip-start", "%", "/", 256, 300},
		{"rem-scalar-sum", "%", "/", 5, 6},
	} {
		body := fmt.Sprintf("out[i] = num[i] %s d1[i] + num[i] %s d2[i];", tc.first, tc.second)
		if tc.name == "rem-scalar-sum" {
			body = fmt.Sprintf("s += num[i] %s d1[i] + num[i] %s d2[i];", tc.first, tc.second)
		}
		cases = append(cases, stripCase{name: "trap-" + tc.name, fused: -1, traps: true, src: fmt.Sprintf(`
int num[400]; int d1[400]; int d2[400]; int out[400];
int main(void) {
    for (int i = 0; i < 400; i++) { num[i] = i * 13 + 5; d1[i] = 1 + i %% 3; d2[i] = 2 + i %% 5; out[i] = -7; }
    d2[%d] = 0;
    d1[%d] = 0;
    printf("before\n");
    int s = 0;
    for (int i = 0; i < 400; i++) %s
    printf("after %%d\n", s);
    return 0;
}`, tc.k, tc.later, body)})
	}
	// The integer-sum sink, and the accumulators that must refuse it.
	sum := func(name string, fused int, decl, loop, show string) {
		cases = append(cases, stripCase{name: "sum-" + name, fused: fused, src: fmt.Sprintf(`
int x[700]; int g;
pure int square(int v) { return v * v; }
int main(void) {
    for (int i = 0; i < 700; i++) x[i] = i * 31 %% 19 - 9;
    %s
    %s
    printf("%%d\n", %s);
    return 0;
}`, decl, loop, show)})
	}
	sum("square", 2, "int s = 5;", "for (int i = 0; i < 700; i++) s += square((i + 1000003) % 8191);", "s")
	sum("loads", 2, "int s = 0;", "for (int i = 1; i < 699; i++) s += x[i - 1] * x[i + 1] % 7 + (x[i] ^ i);", "s")
	sum("wraps", 2, "int s = 9223372036854775807;", "for (int i = 0; i < 700; i++) s += (x[i] + 40) * 4611686018427387905;", "s")
	sum("invariant", 2, "int s = 3; int c = 41;", "for (int i = 0; i < 700; i++) s += c * 3 - 1;", "s")
	sum("strided", 2, "int s = 0;", "for (int i = 0; i < 230; i++) s += x[3 * i + 2] - x[i];", "s")
	sum("reads-itself", 1, "int s = 1;", "for (int i = 0; i < 60; i++) s += s + i;", "s")
	sum("in-a-bound", 1, "int s = -300;", "for (int i = 0; i < 100 - s; i++) s += 1 + x[i] % 2;", "s")
	sum("global", 1, "g = 3;", "for (int i = 0; i < 700; i++) g += x[i] * 3;", "g")
	sum("char", 1, "char c = 1;", "for (int i = 0; i < 700; i++) c += x[i] * 5;", "c")
	sum("iterator", 1, "int s = 0; int i;", "for (i = 0; i < 700; i++) i += x[i] % 2 + 1;", "i")
	// An operand whose base is null or freed: the same loop runs once
	// over a live base (fused, out written), then once more over the
	// dead one, where the dispatch loop dies at its first element.
	for _, tc := range []struct{ name, dead, loop string }{
		{"null-map-load", "p = 0;", "out[i] = p[i] * 2 + 1;"},
		{"null-map-store", "q = 0;", "q[i] = x[i] - 5;"},
		{"freed-float-map", "free(fa);", "fout[i] = fa[i] * 0.5f + 1.0f;"},
		{"freed-int-sum", "free(a);", "s += a[i] * 3;"},
		{"null-gather-base", "p = 0;", "out[i] = p[idx[i]];"},
		{"freed-scatter-target", "free(h);", "h[idx[i]] += 3;"},
	} {
		cases = append(cases, stripCase{name: "trap-" + tc.name, fused: 2, traps: true, src: fmt.Sprintf(`
int x[400]; int idx[400]; int out[400]; float fout[400];
int main(void) {
    int* a = (int*)malloc(400 * sizeof(int)); int* h = (int*)malloc(50 * sizeof(int));
    float* fa = (float*)malloc(400 * sizeof(float));
    for (int i = 0; i < 400; i++) { x[i] = i * 3 + 1; idx[i] = (i * 7) %% 50; a[i] = i %% 9; fa[i] = 0.25f * (float)i; }
    for (int i = 0; i < 50; i++) h[i] = i;
    int* p = x; int* q = out; int s = 0;
    for (int r = 0; r < 2; r++) {
        for (int i = 0; i < 400; i++) %[2]s
        printf("round %%d %%d %%d %%g %%d\n", r, out[r * 7], s, fout[9], h[r]);
        %[1]s
    }
    return 0;
}`, tc.dead, tc.loop)})
	}
	return append(cases, genSinkCases(trips)...)
}

// genSinkCases builds the programs of the sinks other than the element
// store: gathered loads out of bounds in the middle of a strip, float
// sums, dots and ELL products into slots and cells — among them cells
// an operand reads —, min/max folds over NaN data, and scatters whose
// target is their own index array, each fold at the trip counts around
// the strip length.
func genSinkCases(trips []int) []stripCase {
	var cases []stripCase
	// A gathered index outside x at element k: the dispatch loop dies
	// there with Go's own index text, out[0..k) written; a clamped
	// gather never leaves x; a scatter out of bounds updates the cells
	// before it.
	for _, tc := range []struct {
		name, bad, loop string
		k               int
		traps           bool
	}{
		{"gather-past-end", "50", "out[i] = x[idx[i]];", 70, true},
		{"gather-negative", "-1", "out[i] = x[idx[i]];", 200, true},
		{"gather-clamped", "-9", "out[i] = x[idx[i] < 0 ? 0 : (idx[i] > 49 ? 49 : idx[i])];", 130, false},
		{"scatter-past-end", "400", "out[idx[i]] += 3;", 90, true},
	} {
		cases = append(cases, stripCase{name: "trap-" + tc.name, fused: 2, traps: tc.traps, src: fmt.Sprintf(`
int x[50]; int idx[400]; int out[400];
int main(void) {
    for (int i = 0; i < 50; i++) x[i] = i * 3 + 1;
    for (int i = 0; i < 400; i++) { idx[i] = (i * 7) %% 50; out[i] = -7; }
    idx[%d] = %s;
    idx[%d] = 60;
    printf("before\n");
    for (int i = 0; i < 400; i++) %s
    for (int i = 0; i < 400; i++) printf("%%d\n", out[i]);
    return 0;
}`, tc.k, tc.bad, tc.k+40, tc.loop)})
	}
	// The ELL product's gathered index fails at element 90: the cell
	// accumulator holds the sum of the elements before it.
	cases = append(cases, stripCase{name: "trap-ell-cell", fused: 1, traps: true, seq: true, src: `
float out[8]; float x[400]; float y[50]; int z[400];
int main(void) {
    for (int i = 0; i < 400; i++) { x[i] = 0.1f * (float)(i % 17); z[i] = (i * 3) % 50; }
    for (int i = 0; i < 50; i++) y[i] = 0.3f * (float)(i % 13) + 0.01f;
    z[90] = 50;
    printf("before\n");
    for (int k = 0; k < 400; k++) out[3] += x[k] * y[z[k]];
    return 0;
}`})
	var folds, aliased, minmax, scatter strings.Builder
	for j, t := range trips {
		fmt.Fprintf(&folds, `
    sf = 0.25f; for (int k = 0; k < %[1]d; k++) sf += xf[k]; printf("%%.9g\n", sf);
    sd = 0.25; for (int k = 0; k < %[1]d; k++) sd += xd[k]; printf("%%.17g\n", sd);
    sf = 0.5f; for (int k = 0; k < %[1]d; k++) sf += xf[k] * yf[k]; printf("%%.9g\n", sf);
    sd = 0.5; for (int k = 0; k < %[1]d; k++) sd += xd[k] * yd[k]; printf("%%.17g\n", sd);
    sf = 0.0f; for (int k = 0; k < %[1]d; k++) sf += xf[k] * yf[zi[k]]; printf("%%.9g\n", sf);
    sd = 0.0; for (int k = 0; k < %[1]d; k++) sd += yd[zi[k]] * xd[k]; printf("%%.17g\n", sd);
    sf = 0.0f; for (int k = 0; k < %[1]d; k++) sf += (float)(xd[k] * yd[k]); printf("%%.9g\n", sf);
    sd = 0.0; for (int k = 0; k < %[1]d; k++) sd += (float)(xf[k] * yf[k]); printf("%%.17g\n", sd);
    for (int k = 0; k < %[1]d; k++) cf[%[2]d] += xf[k] * yf[zi[k]];
    for (int k = 0; k < %[1]d; k++) cd[%[2]d] += xd[k];`, t, j%8)
		fmt.Fprintf(&aliased, `
    for (int k = 0; k < %[1]d; k++) xf[%[2]d] += xf[k];
    for (int k = 0; k < %[1]d; k++) yd[%[2]d] += xd[k] * yd[zi[k]];
    printf("%%.9g %%.17g\n", xf[%[2]d], yd[%[2]d]);`, t, 3+j)
		fmt.Fprintf(&minmax, `
    dm = 1.0e30; for (int k = 0; k < %[1]d; k++) if (d[k] < dm) dm = d[k];
    fm = 1.0e30f; for (int k = 0; k < %[1]d; k++) if (d[k] < fm) fm = d[k];
    fm2 = -1.0e30f; for (int k = 0; k < %[1]d; k++) fm2 = d[k] > fm2 ? d[k] : fm2;
    dn = z / z; for (int k = 0; k < %[1]d; k++) if (d[k] < dn) dn = d[k];
    printf("%%.17g %%.9g %%.9g %%g\n", dm, fm, fm2, dn);`, t)
		fmt.Fprintf(&scatter, `
    im = 1000000; for (int k = 0; k < %[1]d; k++) if (a[k] < im) im = a[k];
    iM = -1000000; for (int k = 0; k < %[1]d; k++) iM = a[k] > iM ? a[k] : iM;
    printf("%%d %%d\n", im, iM);
    for (int i = 0; i < %[1]d; i++) p[h[i]] ^= 1;
    for (int i = 0; i < %[1]d / 2; i++) p[h[2 * i]] ^= 2;`, t)
	}
	const decls = `
float xf[%[1]d]; float yf[%[1]d]; double xd[%[1]d]; double yd[%[1]d]; int zi[%[1]d];
float cf[8]; double cd[8];
int main(void) {
    for (int i = 0; i < %[1]d; i++) {
        xf[i] = 0.1f * (float)(i %% 17) - 0.7f; yf[i] = 0.3f * (float)(i %% 13) + 0.01f;
        xd[i] = 0.1 * (double)(i %% 19) - 0.9; yd[i] = 0.7 * (double)(i %% 11) + 0.003;
        zi[i] = (i * 7 + 3) %% %[1]d;
    }
    float sf; double sd;%[2]s
    for (int i = 0; i < 8; i++) printf("%%.9g %%.17g\n", cf[i], cd[i]);
    return 0;
}`
	n := 2*256 + 3
	return append(cases,
		stripCase{name: "fold-sums", fused: 10 * len(trips), seq: true, src: fmt.Sprintf(decls, n, folds.String())},
		// The accumulator cell inside its own operand and inside the
		// gathered array: written through, element by element.
		stripCase{name: "fold-aliased", fused: 2 * len(trips), seq: true, src: fmt.Sprintf(decls, n, aliased.String())},
		stripCase{name: "fold-minmax", fused: 4 * len(trips), seq: true, src: fmt.Sprintf(`
double d[%[1]d];
int main(void) {
    double z = 0.0;
    for (int i = 0; i < %[1]d; i++) d[i] = 0.37 * (double)((i * 29) %% 101) - 11.000000001;
    for (int i = 0; i < %[1]d; i += 37) d[i] = z / z;
    double dm; float fm; float fm2; double dn;%[2]s
    return 0;
}`, n, minmax.String())},
		// Int min/max folds, and a scatter through a pointer into its
		// own index array, at unit and at double index stride.
		stripCase{name: "fold-int-scatter", fused: 4 * len(trips), src: fmt.Sprintf(`
int a[%[1]d]; int h[%[1]d];
int main(void) {
    for (int i = 0; i < %[1]d; i++) { a[i] = (i * 37) %% 91 - 40; h[i] = (i * 7) %% 512; }
    int* p = h;
    int im; int iM;%[2]s
    for (int i = 0; i < %[1]d; i++) printf("%%d\n", h[i]);
    return 0;
}`, n, scatter.String())})
}

// TestStripDifferential holds the strip evaluator to the interpreter on
// the generated cases: × {sequential build; parallel
// builds under static and dynamic,1 on real teams of 1, 2 and 3
// workers} — {sequential gcc, gcc+vec} for the float-fold cases —,
// equal stdout, return value and trap text. The parallel builds launch
// the map kernels chunk by chunk from parallelFor on the shared parent
// environment and the int sum and min/max folds from parallelReduceFor
// (the front end writes the reduction clauses), so run it under -race.
func TestStripDifferential(t *testing.T) {
	type build struct {
		par   bool
		sched string
		vec   bool
	}
	for _, c := range genStripCases() {
		builds := []build{{false, "", false}, {true, "static", false}, {true, "dynamic,1", false}}
		if c.seq {
			builds = []build{{false, "", false}, {false, "", true}}
		}
		art, err := Front(c.src, Config{})
		if err != nil {
			t.Fatalf("%s: front: %v\n%s", c.name, err, c.src)
		}
		var wantOut strings.Builder
		in, err := interp.New(art.Info, &wantOut)
		if err != nil {
			t.Fatal(err)
		}
		wantRet, err := in.RunMain()
		wantTrap := ""
		if err != nil {
			wantTrap = strings.TrimPrefix(err.Error(), "interp ")
		}
		if c.traps != (wantTrap != "") || (c.traps && !strings.Contains(wantTrap, "by zero") && !strings.Contains(wantTrap, "index out of range") && !strings.Contains(wantTrap, "nil pointer dereference")) {
			t.Fatalf("%s: interp trap %q, case expects traps=%v", c.name, wantTrap, c.traps)
		}
		wantCells := ""
		if c.traps {
			p, err := in.GlobalPtr("out")
			if err != nil {
				t.Fatal(err)
			}
			wantCells = fmt.Sprint(p.Seg.I, p.Seg.F)
		}
		for _, b := range builds {
			if b.par && c.traps {
				continue
			}
			cfg := Config{Parallelize: b.par, Vectorize: b.vec, NoCache: true,
				Transform: transform.Options{Schedule: b.sched, MinParallelTrip: -1}}
			prog, _, _, err := BuildProgram(c.src, cfg)
			if err != nil {
				t.Fatalf("%s: %v\n%s", c.name, err, c.src)
			}
			if !b.par && b.vec == c.seq && c.fused >= 0 && prog.FusedKernels() != c.fused {
				t.Errorf("%s: vec=%v: %d fused kernels, want %d\n%s", c.name, b.vec, prog.FusedKernels(), c.fused, c.src)
			}
			workers := []int{0}
			if b.par {
				workers = []int{1, 2, 3}
			}
			for _, w := range workers {
				var team *rt.Team
				if w > 0 {
					team = rt.NewTeam(w)
				}
				var out strings.Builder
				proc, err := prog.NewProcess(comp.ProcOptions{Stdout: &out, Team: team})
				if err != nil {
					t.Fatal(err)
				}
				ret, err := proc.RunMain()
				trap := ""
				if err != nil {
					trap = err.Error()
				}
				if out.String() != wantOut.String() || ret != wantRet || trap != wantTrap {
					t.Errorf("%s: par=%v sched=%q vec=%v workers=%d differs from the interpreter\n%s\ngot  ret=%d trap=%q\nwant ret=%d trap=%q\nstdout: %s",
						c.name, b.par, b.sched, b.vec, w, c.src, ret, trap, wantRet, wantTrap, firstDiff(out.String(), wantOut.String()))
				}
				if c.traps {
					p, err := proc.GlobalPtr("out")
					if err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprint(p.Seg.I, p.Seg.F); got != wantCells {
						t.Errorf("%s: vec=%v: cells written before the trap differ from the interpreter's\ngot  %s\nwant %s", c.name, b.vec, got, wantCells)
					}
				}
			}
		}
	}
}

// firstDiff renders the first line where two outputs part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
