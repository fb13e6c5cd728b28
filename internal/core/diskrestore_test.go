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
// compiled — same proofs, same memoizable set, same elided checks and
// fused kernels — and that program prints and returns what the
// interpreter does, on a real 2-worker team, under both engines. The
// load provably runs no analysis: the restored artifact has no findings
// and no alias facts.
func TestDiskRestoreEqualsBuild(t *testing.T) {
	restored, withProofs, memoizable := 0, 0, 0
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

		for _, eng := range []comp.Engine{comp.EngineClosure, comp.EngineTape} {
			cfg := base
			cfg.Engine = eng
			name := fmt.Sprintf("%s engine=%v", s.Name, eng)
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
			if art.VRA.Alias != nil || len(art.VRA.Findings) != 0 {
				t.Fatalf("%s: restored analysis carries alias facts or findings: Load re-analysed", name)
			}
			if art.Stages.Transformed != cold.Stages.Transformed || art.Stages.Final != "" {
				t.Fatalf("%s: restored stages differ: Transformed equal=%v, Final %d bytes, want equal and empty",
					name, art.Stages.Transformed == cold.Stages.Transformed, len(art.Stages.Final))
			}
			if got, want := len(art.VRA.Proofs()), len(cold.VRA.Proofs()); got != want {
				t.Errorf("%s: %d proofs restored, cold build has %d", name, got, want)
			}
			if got, want := fmt.Sprint(sorted(art.Memoizable)), fmt.Sprint(sorted(cold.Memoizable)); got != want {
				t.Errorf("%s: memoizable set %s restored, cold build has %s", name, got, want)
			}
			prog, err := art.Compile(cfg)
			if err != nil {
				t.Fatalf("%s: restored artifact does not compile: %v", name, err)
			}
			if prog.ElidedChecks() != coldProg.ElidedChecks() || prog.FusedKernels() != coldProg.FusedKernels() ||
				fmt.Sprint(sorted(prog.Memoizable())) != fmt.Sprint(sorted(coldProg.Memoizable())) {
				t.Errorf("%s: restored program has %d elided checks, %d fused kernels, memoizes %v; cold build %d, %d, %v",
					name, prog.ElidedChecks(), prog.FusedKernels(), sorted(prog.Memoizable()),
					coldProg.ElidedChecks(), coldProg.FusedKernels(), sorted(coldProg.Memoizable()))
			}
			out, ret, trap := runProgram(t, prog, 2)
			if out != wantOut.String() || ret != wantRet || trap != wantTrap {
				t.Errorf("%s: restored program differs from the interpreter\ngot  ret=%d trap=%q\nwant ret=%d trap=%q\nstdout: %s",
					name, ret, trap, wantRet, wantTrap, firstDiff(out, wantOut.String()))
			}
			restored++
			if len(art.VRA.Proofs()) > 0 {
				withProofs++
			}
			if len(art.Memoizable) > 0 {
				memoizable++
			}
		}
	}
	// The comparison is only worth its time while the entries carry
	// something: most programs have proofs, some a memoizable set.
	if withProofs < restored/2 || memoizable == 0 {
		t.Errorf("of %d restored artifacts only %d carried proofs and %d a memoizable set", restored, withProofs, memoizable)
	}
}

// editHeader rewrites the header of an entry through edit. With resum it
// also stamps the checksum Store would have computed for the edited
// fields — what an entry looks like that was damaged before it was
// summed, or written by a toolchain whose analysis disagrees with this
// parser; without, the stored sum stays and no longer matches.
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

// TestDiskCacheTamperedProofsRejected: the proof list and the memoizable
// set sit under the integrity sum, and a list that sums clean but cannot
// have come from an analysis of the stored text is a revalidation
// failure. Either way the entry is deleted, never executed, and the
// request is served by a rebuild that prints what the source says.
func TestDiskCacheTamperedProofsRejected(t *testing.T) {
	// diskCacheSrc proves two accesses, acc[i] as store and as load.
	proofsOf := func(t *testing.T, e *diskEntry) []int {
		if len(e.Proofs) != 2 {
			t.Fatalf("stored entry has proofs %v, want two", e.Proofs)
		}
		return e.Proofs
	}
	for _, c := range []struct {
		name string
		edit func(t *testing.T, e *diskEntry)
	}{
		{"ordinal-past-the-end", func(t *testing.T, e *diskEntry) { e.Proofs = append(proofsOf(t, e), 1<<20) }},
		{"ordinals-out-of-order", func(t *testing.T, e *diskEntry) { p := proofsOf(t, e); e.Proofs = []int{p[1], p[0]} }},
		{"ordinal-repeated", func(t *testing.T, e *diskEntry) { p := proofsOf(t, e); e.Proofs = []int{p[0], p[0]} }},
		{"negative-ordinal", func(t *testing.T, e *diskEntry) { e.Proofs = append([]int{-1}, proofsOf(t, e)...) }},
		// The node after a proven acc[i] in walk order is its base, the
		// identifier acc: an expression, but nothing the analysis proves.
		{"ordinal-on-an-identifier", func(t *testing.T, e *diskEntry) { p := proofsOf(t, e); e.Proofs = []int{p[0], p[0] + 1} }},
		{"memoizable-names-no-pure-function", func(t *testing.T, e *diskEntry) { e.Memoizable = []string{"main"} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			corruptAndRebuild(t, "revalidation", func(t *testing.T, path string) {
				editHeader(t, path, true, func(e *diskEntry) { c.edit(t, e) })
			})
		})
	}
	// The same edits under the sum the entry was stored with never get as
	// far as revalidation.
	for _, c := range []struct {
		name string
		edit func(t *testing.T, e *diskEntry)
	}{
		{"proofs-stale-sum", func(t *testing.T, e *diskEntry) { e.Proofs = proofsOf(t, e)[:1] }},
		{"memoizable-stale-sum", func(t *testing.T, e *diskEntry) { e.Memoizable = []string{"main"} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			corruptAndRebuild(t, "corrupt", func(t *testing.T, path string) {
				editHeader(t, path, false, func(e *diskEntry) { c.edit(t, e) })
			})
		})
	}
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

// rollSrc is the second program of testdata/diskcache-v1 (the first is
// diskCacheSrc).
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
// exactly as the previous format wrote them (one indented JSON document
// each, version 1). A daemon of this version pointed at such a
// directory rejects each entry once, as stale and as nothing else,
// rebuilds it, and serves it from disk from then on.
func TestDiskCacheRollOverFromV1(t *testing.T) {
	d, dir := newDiskTest(t, 0)
	cfg := Config{FileName: "t.c", Parallelize: true}
	programs := []struct{ file, src, out string }{
		{"acc.json", diskCacheSrc, "s=376\n"},
		{"twice.json", rollSrc, "t=992\n"},
	}
	for _, p := range programs {
		data, err := os.ReadFile(filepath.Join("testdata", "diskcache-v1", p.file))
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
		t.Fatalf("after the first pass over a v1 directory: %+v, want 2 stale, 2 stores", st)
	}
	pass(SourceDisk)
	pass(SourceDisk)
	if st := d.Stats(); st.Stale != 2 || st.Corrupt != 0 || st.Revalidation != 0 || st.Stores != 2 || st.Hits != 4 {
		t.Fatalf("after two more passes: %+v, want the same 2 stale and 4 hits", st)
	}
}
