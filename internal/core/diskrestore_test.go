package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/rt"
	"purec/internal/transform"
)

// restoreSample is what the disk-restore tests range over: a seeded
// slice of both program generators, every apps source at its small
// corpus size, and the C sources embedded in examples/.
func restoreSample(t *testing.T) []apps.Sample {
	t.Helper()
	var out []apps.Sample
	for seed := uint32(0); seed < 12; seed++ {
		out = append(out,
			apps.Sample{Name: fmt.Sprintf("oracle-%d", seed), Src: genOracleProgram(seed)},
			apps.Sample{Name: fmt.Sprintf("alias-%d", seed), Src: genAliasProgram(seed)})
	}
	out = append(out, apps.Corpus()...)
	for _, name := range []string{"quickstart", "histogram", "reduction"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", name, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		_, rest, ok := strings.Cut(string(data), "const src = `")
		src, _, ok2 := strings.Cut(rest, "`")
		if !ok || !ok2 {
			t.Fatalf("examples/%s/main.go has no `const src` literal", name)
		}
		out = append(out, apps.Sample{Name: "example-" + name, Src: src})
	}
	return out
}

// runProgram executes main on a real team of the given size and returns
// stdout, the return value and the trap text.
func runProgram(t *testing.T, prog *comp.Program, workers int) (string, int64, string) {
	t.Helper()
	var out strings.Builder
	proc, err := prog.NewProcess(comp.ProcOptions{Stdout: &out, Team: rt.NewTeam(workers)})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := proc.RunMain()
	trap := ""
	if err != nil {
		trap = err.Error()
	}
	return out.String(), ret, trap
}

func sorted(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

// TestDiskRestoreEqualsBuild: an artifact that went through Store and a
// Load by another DiskCache compiles to the program the cold build
// compiled — same memoizable set, same fused kernels — and that program
// prints and returns what the interpreter does, on a real 2-worker
// team. The load provably runs no value-range analysis: the restored
// artifact has none.
func TestDiskRestoreEqualsBuild(t *testing.T) {
	restored, memoizable := 0, 0
	for _, s := range restoreSample(t) {
		base := Config{FileName: "t.c", Parallelize: true, Memoize: true, Defines: s.Defines}
		oracle, err := Front(s.Src, base)
		if generated := s.Defines == nil && !strings.HasPrefix(s.Name, "example-"); err != nil && generated {
			// The aliasing generator passes arrays to pure functions in
			// nests that assign them (refused under Parallelize, Listing
			// 5); such a program is cached as a serial build. The purity
			// generator emits impure probes on purpose, and a program no
			// front end accepts never reaches the cache.
			base.Parallelize = false
			if oracle, err = Front(s.Src, base); err != nil {
				continue
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		var wantOut strings.Builder
		in, err := interp.New(oracle.Info, &wantOut)
		if err != nil {
			t.Fatal(err)
		}
		wantRet, err := in.RunMain()
		wantTrap := ""
		if err != nil {
			wantTrap = strings.TrimPrefix(err.Error(), "interp ")
		}

		cfg := base
		name := s.Name
		cold, err := Front(s.Src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		coldProg, err := cold.Compile(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dir := t.TempDir()
		writer, err := NewDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		key := Key(s.Src, cfg)
		if err := writer.Store(key, cfg, cold); err != nil {
			t.Fatalf("%s: store: %v", name, err)
		}
		reader, err := NewDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		front := FrontRuns()
		art, ok := reader.Load(s.Src, key, cfg)
		if !ok {
			t.Fatalf("%s: a freshly stored entry did not load (%+v)", name, reader.Stats())
		}
		if FrontRuns() != front {
			t.Fatalf("%s: Load entered the front end", name)
		}
		if art.VRA != nil {
			t.Fatalf("%s: restored artifact carries a value-range analysis: Load re-analysed", name)
		}
		if art.Stages.Transformed != cold.Stages.Transformed || art.Stages.Final != "" {
			t.Fatalf("%s: restored stages differ: Transformed equal=%v, Final %d bytes, want equal and empty",
				name, art.Stages.Transformed == cold.Stages.Transformed, len(art.Stages.Final))
		}
		if got, want := fmt.Sprint(sorted(art.Memoizable)), fmt.Sprint(sorted(cold.Memoizable)); got != want {
			t.Errorf("%s: memoizable set %s restored, cold build has %s", name, got, want)
		}
		prog, err := art.Compile(cfg)
		if err != nil {
			t.Fatalf("%s: restored artifact does not compile: %v", name, err)
		}
		if prog.FusedKernels() != coldProg.FusedKernels() ||
			fmt.Sprint(sorted(prog.Memoizable())) != fmt.Sprint(sorted(coldProg.Memoizable())) {
			t.Errorf("%s: restored program has %d fused kernels, memoizes %v; cold build %d, %v",
				name, prog.FusedKernels(), sorted(prog.Memoizable()),
				coldProg.FusedKernels(), sorted(coldProg.Memoizable()))
		}
		out, ret, trap := runProgram(t, prog, 2)
		if out != wantOut.String() || ret != wantRet || trap != wantTrap {
			t.Errorf("%s: restored program differs from the interpreter\ngot  ret=%d trap=%q\nwant ret=%d trap=%q\nstdout: %s",
				name, ret, trap, wantRet, wantTrap, firstDiff(out, wantOut.String()))
		}
		restored++
		if len(art.Memoizable) > 0 {
			memoizable++
		}
	}
	// The comparison is only worth its time while some entries carry a
	// memoizable set.
	if memoizable == 0 {
		t.Errorf("none of %d restored artifacts carried a memoizable set", restored)
	}
}

// editHeader rewrites the header of an entry through edit. With resum it
// also stamps the checksum Store would have computed for the edited
// fields — what an entry looks like that was damaged before it was
// summed, or written by a toolchain whose analysis disagrees with this
// one; without, the stored sum stays and no longer matches.
func editHeader(t *testing.T, path string, resum bool, edit func(e *diskEntry)) {
	t.Helper()
	editEntry(t, path, func(header, text []byte) []byte {
		e := &diskEntry{}
		if err := json.Unmarshal(header, e); err != nil {
			t.Fatal(err)
		}
		edit(e)
		if resum {
			e.Sum = e.sum(text)
		}
		header, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return append(append(header, '\n'), text...)
	})
}

// TestDiskCacheTamperedMemoizableRejected: the memoizable set sits
// under the integrity sum, and a set that sums clean but names no pure
// function of the stored text is a revalidation failure. Either way the
// entry is deleted, never executed, and the request is served by a
// rebuild that prints what the source says.
func TestDiskCacheTamperedMemoizableRejected(t *testing.T) {
	noPureFunction := func(e *diskEntry) { e.Memoizable = []string{"main"} }
	t.Run("memoizable-names-no-pure-function", func(t *testing.T) {
		corruptAndRebuild(t, "revalidation", func(t *testing.T, path string) {
			editHeader(t, path, true, noPureFunction)
		})
	})
	// The same edit under the sum the entry was stored with never gets
	// as far as revalidation.
	t.Run("memoizable-stale-sum", func(t *testing.T) {
		corruptAndRebuild(t, "corrupt", func(t *testing.T, path string) {
			editHeader(t, path, false, noPureFunction)
		})
	})
	// The helper itself must not be what gets the entries rejected: an
	// entry re-summed without an edit is a hit.
	d, dir := newDiskTest(t, 0)
	cfg := Config{FileName: "t.c"}
	key := Key(diskCacheSrc, cfg)
	if bs, _ := runViaCache(t, NewProgramCache(8).WithDisk(d), diskCacheSrc, cfg); bs != SourceCompiled {
		t.Fatalf("seed build source = %v", bs)
	}
	editHeader(t, filepath.Join(dir, key.String()+".json"), true, func(*diskEntry) {})
	if bs, out := runViaCache(t, NewProgramCache(8).WithDisk(d), diskCacheSrc, cfg); bs != SourceDisk || out != "s=376\n" {
		t.Fatalf("re-summed intact entry: source %v output %q, want a disk hit printing s=376", bs, out)
	}
}

// rollSrc is the second program of testdata/diskcache-v1 and -v2 (the
// first is diskCacheSrc).
const rollSrc = `
int *buf;

pure int twice(int x) { return x + x; }

int main(void) {
    buf = (int*)malloc(32 * sizeof(int));
    int s = 0;
    for (int i = 0; i < 32; i++)
        buf[i] = twice(i);
    for (int i = 0; i < 32; i++)
        s += buf[i];
    printf("t=%d\n", s);
    return s % 101;
}
`

// TestDiskCacheRollOverFromV1: testdata/diskcache-v1 holds two entries
// exactly as the first format wrote them (one indented JSON document
// each, version 1). A daemon of this version pointed at such a
// directory rejects each entry once, as stale and as nothing else,
// rebuilds it, and serves it from disk from then on.
func TestDiskCacheRollOverFromV1(t *testing.T) { rollOver(t, "diskcache-v1") }

// TestDiskCacheRollOverFromV2: testdata/diskcache-v2 holds the same two
// programs as version 2 wrote them, a header line carrying the storing
// build's bounds proofs as node ordinals, then the text. They roll over
// like version 1: stale once, rebuilt, served from disk.
func TestDiskCacheRollOverFromV2(t *testing.T) { rollOver(t, "diskcache-v2") }

// rollOver points a fresh disk cache at the entries of testdata/<old>,
// written under an older diskEntryVersion.
func rollOver(t *testing.T, old string) {
	d, dir := newDiskTest(t, 0)
	cfg := Config{FileName: "t.c", Parallelize: true}
	programs := []struct{ file, src, out string }{
		{"acc.json", diskCacheSrc, "s=376\n"},
		{"twice.json", rollSrc, "t=992\n"},
	}
	for _, p := range programs {
		data, err := os.ReadFile(filepath.Join("testdata", old, p.file))
		if err != nil {
			t.Fatal(err)
		}
		// The file takes the name this build looks the program up under,
		// so the test keeps meaning "an old entry is in the way" should
		// the key derivation ever change.
		if err := os.WriteFile(filepath.Join(dir, Key(p.src, cfg).String()+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pass := func(want BuildSource) {
		t.Helper()
		cache := NewProgramCache(8).WithDisk(d)
		for _, p := range programs {
			if bs, out := runViaCache(t, cache, p.src, cfg); bs != want || out != p.out {
				t.Fatalf("%s: build source %v output %q, want %v and %q", p.file, bs, out, want, p.out)
			}
		}
	}
	pass(SourceCompiled)
	if st := d.Stats(); st.Stale != 2 || st.Corrupt != 0 || st.Revalidation != 0 || st.Stores != 2 || st.Hits != 0 {
		t.Fatalf("after the first pass over %s: %+v, want 2 stale, 2 stores", old, st)
	}
	pass(SourceDisk)
	pass(SourceDisk)
	if st := d.Stats(); st.Stale != 2 || st.Corrupt != 0 || st.Revalidation != 0 || st.Stores != 2 || st.Hits != 4 {
		t.Fatalf("after two more passes: %+v, want the same 2 stale and 4 hits", st)
	}
}

// TestTransformedNestTrapsAgree: a guest trap inside a nest that tiling
// or skewing rebuilt — the loops, bounds and rewritten subscripts are
// nodes transform synthesized — reads the same in a fresh build, in a
// build restored from a disk entry (which re-parses the printed text),
// and in the interpreter on either model: same stdout, same return,
// byte-identical trap text. The two-statement bodies run on the tape;
// the fused rows' inner loops are kernels whose operand runs off its
// array, on 1- and 2-worker teams, and built sequentially, where the
// globals they stored before the trap must be interp's too.
func TestTransformedNestTrapsAgree(t *testing.T) {
	rows := []struct {
		name, src     string
		skewed, fused bool
	}{
		{"oob-read", `float B[4096];
float C[64][64];
float E[64][64];
int main(void) {
    printf("start\n");
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++) {
            C[i][j] = B[i * 64 + j + 1] + 1.0f;
            E[i][j] = 2.0f;
        }
    printf("unreached\n");
    return 0;
}
`, false, false},
		{"div-zero", `int K[64][64];
int L[64][64];
int main(void) {
    printf("start\n");
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++) {
            K[i][j] = 100 / (i + j - 126);
            L[i][j] = 2;
        }
    printf("unreached\n");
    return 0;
}
`, false, false},
		{"skewed-stencil-oob", `float A[64][64];
float D[64][64];
float E[64][64];
int main(void) {
    printf("start\n");
    for (int i = 1; i < 64; i++)
        for (int j = 1; j < 63; j++) {
            A[i][j] = A[i - 1][j] + A[i][j - 1] + A[i - 1][j + 1] + D[i][j + 2];
            E[i][j] = 2.0f;
        }
    printf("unreached\n");
    return 0;
}
`, true, false},
		{"fused-float-map", `float B[4096];
float C[64][64];
int main(void) {
    printf("start\n");
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            C[i][j] = B[i * 64 + j + 1] * 2.0f + 1.0f;
    printf("unreached\n");
    return 0;
}
`, false, true},
		{"fused-int-sum", `int K[4096];
int main(void) {
    int s = 0;
    printf("start\n");
    for (int i = 0; i < 4096; i++)
        K[i] = i % 7;
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            s += K[i * 64 + j + 1];
    printf("unreached %d\n", s);
    return 0;
}
`, false, true},
		{"fused-min-fold", `int K[4096];
int main(void) {
    int m = 1000;
    printf("start\n");
    for (int i = 0; i < 4096; i++)
        K[i] = 4096 - i;
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            if (K[i * 64 + j + 1] < m) m = K[i * 64 + j + 1];
    printf("unreached %d\n", m);
    return 0;
}
`, false, true},
		{"fused-read-before-start", `float B[4096];
float C[64][64];
int main(void) {
    printf("start\n");
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            C[i][j] = B[i * 64 + j - 1] + 1.0f;
    printf("unreached\n");
    return 0;
}
`, false, true},
		// Variables named like the iterators tiling and skewing add, in
		// subscripts the analysis proves in bounds: the added iterators
		// take other names, so the subscripts still read the user's
		// variables.
		{"tile-name-in-subscript", `float B[2][64];
float X[4096];
float C[64][64];
int main(void) {
    int iT = 0;
    printf("start\n");
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            C[i][j] = B[iT + 1][j] + X[i * 64 + j + 1];
    printf("unreached\n");
    return 0;
}
`, false, false},
		{"skew-name-in-subscript", `float A[64][64];
float D[64][64];
float W[2];
int main(void) {
    int j_sk = 0;
    printf("start\n");
    for (int i = 1; i < 64; i++)
        for (int j = 1; j < 63; j++)
            A[i][j] = A[i - 1][j] + A[i][j - 1] + A[i - 1][j + 1] + D[i][j + 2] * W[j_sk + 1];
    printf("unreached\n");
    return 0;
}
`, true, false},
		// Both operands run off at the last element: the dispatch loop
		// reads the right side before the compound store's own cell.
		{"fused-compound-order", `float X[8], Y[10];
int main(void) {
    printf("start\n");
    for (int i = 0; i < 9; i++)
        Y[i + 2] += X[i] + 1.0f;
    printf("unreached\n");
    return 0;
}
`, false, true},
		// The last element divides by zero before it reads past X.
		{"fused-division-first", `int X[8], Y[10], D[10];
int main(void) {
    printf("start\n");
    for (int i = 0; i < 8; i++)
        D[i] = i + 1;
    for (int i = 0; i < 9; i++)
        Y[i] = 5 / D[i + 1] + X[i];
    printf("unreached\n");
    return 0;
}
`, false, true},
	}
	for _, row := range rows {
		if row.fused {
			// Built sequentially, every store before the trap shows.
			art, err := Front(row.src, Config{FileName: "t.c"})
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			prog, err := art.Compile(Config{})
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			if prog.FusedKernels() == 0 {
				t.Fatalf("%s: no fused kernel", row.name)
			}
			proc, err := prog.NewProcess(comp.ProcOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := observeRun(art.Info, proc), observeInterp(t, art); got != want {
				t.Errorf("%s sequential: the build differs from the interpreter at %s", row.name, firstDiff(got, want))
			}
		}
		transforms := []transform.Options{{Tile: true}, {Skew: true}, {Tile: true, Skew: true}}
		if row.fused {
			// A tiled inner loop is no kernel.
			transforms = []transform.Options{{}}
		}
		for _, tr := range transforms {
			tr.MinParallelTrip = -1
			cfg := Config{FileName: "t.c", Parallelize: true, Transform: tr}
			name := fmt.Sprintf("%s tile=%v skew=%v", row.name, tr.Tile, tr.Skew)
			cold, err := Front(row.src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// The stencil's nest tiles only once it is skewed.
			lr := cold.Report.Loops[0]
			if lr.Tiled != (tr.Tile && (!row.skewed || tr.Skew)) || lr.Skewed != (row.skewed && tr.Skew) {
				t.Fatalf("%s: tiled=%v skewed=%v, not what the row's transform does", name, lr.Tiled, lr.Skewed)
			}
			coldProg, err := cold.Compile(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dir := t.TempDir()
			writer, err := NewDiskCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			key := Key(row.src, cfg)
			if err := writer.Store(key, cfg, cold); err != nil {
				t.Fatalf("%s: store: %v", name, err)
			}
			reader, err := NewDiskCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			restored, ok := reader.Load(row.src, key, cfg)
			if !ok {
				t.Fatalf("%s: the stored entry did not load", name)
			}
			restoredProg, err := restored.Compile(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			type outcome struct {
				stdout string
				ret    int64
				trap   string
			}
			interpret := func(art *Artifact) outcome {
				var out strings.Builder
				in, err := interp.New(art.Info, &out)
				if err != nil {
					t.Fatal(err)
				}
				ret, err := in.RunMain()
				trap := ""
				if err != nil {
					trap = strings.TrimPrefix(err.Error(), "interp ")
				}
				return outcome{out.String(), ret, trap}
			}
			run := func(prog *comp.Program, workers int) outcome {
				out, ret, trap := runProgram(t, prog, workers)
				return outcome{out, ret, trap}
			}
			want := interpret(cold)
			if want.trap == "" || want.stdout != "start\n" {
				t.Fatalf("%s: the interpreter ran %+v, want a trap after the first line", name, want)
			}
			plain, err := Front(row.src, Config{FileName: "t.c"})
			if err != nil {
				t.Fatal(err)
			}
			if got := interpret(plain); got != want {
				t.Errorf("%s: the interpreter gives %+v on the rewritten program, %+v on the user's", name, want, got)
			}
			if row.fused && coldProg.FusedKernels() == 0 {
				t.Fatalf("%s: no fused kernel", name)
			}
			for what, got := range map[string]outcome{
				"fresh build": run(coldProg, 2), "fresh build, 1 worker": run(coldProg, 1),
				"restored build": run(restoredProg, 2), "interp on the restored model": interpret(restored)} {
				if got != want {
					t.Errorf("%s: %s gives %+v, the interpreter %+v", name, what, got, want)
				}
			}
		}
	}
}
