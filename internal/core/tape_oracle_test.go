package core

import (
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
)

// TestTapeEngineOracle12Processes is the tape-backend equivalence
// proof: the kernel workloads plus the non-canonical branchy body, the
// one workload whose every iteration dispatches on the tape, run
// through the oracle matrix. Tape workers clone the environment slice
// headers but share the constant pools and instruction array read-only.
//
// The iterators row reads loop iterators declared outside their nests
// after the nests ran (a local, a global another function returns, both
// iterators of a 2-deep nest): those nests must stay serial, since the
// parallelized form declares fresh iterators.
//
// The struct-array rows index arrays of structs, global and local, one
// and two dimensions deep, with array fields: an element is as many
// cells as its struct, so the storage and every subscript count cells,
// not elements.
func TestTapeEngineOracle12Processes(t *testing.T) {
	par := Config{Parallelize: true}
	runOracleMatrix(t, false, append(kernelRows(), oracleRow{name: "noncanon",
		src: apps.NoncanonSrc, defines: apps.KernDefines(512, 2), base: par},
		oracleRow{name: "iterators", src: liveIteratorSrc, base: par},
		oracleRow{name: "struct-array-global", src: structArraySrc, defines: map[string]string{"LOCAL": "0"}, base: par},
		oracleRow{name: "struct-array-local", src: structArraySrc, defines: map[string]string{"LOCAL": "1"}, base: par}))
}

// structArraySrc fills an array of structs and a grid of them, global
// or (LOCAL=1) local to main, reads them back in another order and
// leaves a plain parallel nest beside them for the teams.
const structArraySrc = `
struct P { int x; float y; int w[2]; };
#if LOCAL == 0
struct P ga[40];
struct P grid[4][5];
#endif
int sq[64];

int main(void) {
#if LOCAL == 1
    struct P ga[40];
    struct P grid[4][5];
#endif
    for (int i = 0; i < 40; i++) { ga[i].x = i * 3; ga[i].y = 0.5f * i; ga[i].w[1] = i; ga[i].w[0] = 0; }
    for (int i = 0; i < 4; i++)
        for (int j = 0; j < 5; j++) { grid[i][j].x = i * 5 + j; grid[i][j].w[1] = j; }
    for (int i = 0; i < 64; i++)
        sq[i] = i * i;
    int s = 0;
    for (int i = 0; i < 40; i++)
        s += ga[i].x + ga[39 - i].w[1] + ga[i].w[0];
    for (int i = 0; i < 4; i++)
        s += grid[i][4].x * grid[3][i].w[1];
    printf("%d %f %d\n", s, ga[39].y, sq[63]);
    return 0;
}
`

const liveIteratorSrc = `
float a[100];
float b[8][8];
int g;
int lastg(void) { return g; }
int main(void) {
    int i, j;
    for (i = 0; i < 100; i++)
        a[i] = 2.0f * i;
    printf("%d\n", i);
    for (g = 0; g < 100; g++)
        a[g] = a[g] + 1.0f;
    printf("%d\n", lastg());
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++)
            b[i][j] = i + j;
    printf("%d %d\n", i, j);
    return 0;
}
`

// TestTapeEngineTrapParity pins the trap side of the tape contract:
// faulty programs must fail as runtime errors on the tape exactly as
// they do in the interp oracle — same fault, never a silent wrong
// answer. The loop bodies store twice, or fold an accumulator that
// reads itself, which the lifter rejects, so the tape's dispatch itself
// runs them.
func TestTapeEngineTrapParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"oob-store", `
float *y;
int main(void) {
    y = (float*)malloc(8 * sizeof(float));
    for (int i = 0; i <= 8; i++) {
        float v = 1.0f;
        y[i] = v;
        y[i] = v;
    }
    return 0;
}
`},
		{"div-zero", `
int d;
int main(void) {
    d = 0;
    int s = 0;
    for (int i = 0; i < 4; i++) {
        int q = i / d;
        s = s * 2 + q;
    }
    return s;
}
`},
		{"rem-zero", `
int d;
int main(void) {
    d = 0;
    return 7 % d;
}
`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := Build(tc.src, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Program.FusedKernels() != 0 {
				t.Fatal("the loop fused")
			}
			if _, err := res.Machine.RunMain(); err == nil {
				t.Fatal("faulty program must trap")
			} else if _, isRT := err.(*comp.RuntimeError); !isRT {
				t.Fatalf("want RuntimeError, got %T %v", err, err)
			}
			// The oracle agrees the program is faulty.
			art, err := Front(tc.src, Config{})
			if err != nil {
				t.Fatal(err)
			}
			in, err := interp.New(art.Info, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.RunMain(); err == nil {
				t.Fatal("interp oracle must also trap")
			}
		})
	}
}
