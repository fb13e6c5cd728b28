package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"purec/internal/core"
	"purec/internal/serve"
)

func corpusKeys(progs []*program) map[core.CacheKey]bool {
	keys := map[core.CacheKey]bool{}
	for _, p := range progs {
		keys[p.key] = true
	}
	return keys
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	a, b := genCorpus(7, 6, 2), genCorpus(7, 6, 2)
	for i := range a {
		if a[i].source != b[i].source || a[i].key != b[i].key || string(a[i].body) != string(b[i].body) {
			t.Fatalf("program %d differs between two draws of seed 7", i)
		}
	}
	for i := range a {
		if like := a[i%4]; len(a[i].body) != len(like.body) || len(a[i].source)%unitBytes != 0 {
			t.Fatalf("program %d has a %d-byte source and a %d-byte body, program %d of its class %d", i, len(a[i].source), len(a[i].body), i%4, len(like.body))
		}
	}
	keys := corpusKeys(a)
	if len(keys) != len(a) {
		t.Fatalf("seed 7 drew %d programs but %d distinct keys", len(a), len(keys))
	}
	for _, p := range genCorpus(8, 6, 2) {
		if keys[p.key] {
			t.Fatalf("seeds 7 and 8 share the key of a %s program", p.class)
		}
	}
	if got := []string{a[0].class, a[3].class}; !reflect.DeepEqual(got, genClasses) {
		t.Fatalf("corpus classes at 0 and 3 are %v, want %v", got, genClasses)
	}
	for _, w := range workloads {
		one, other := corpusKeys(w.programs(7, quickSizing)), w.programs(8, quickSizing)
		for _, p := range other {
			if one[p.key] {
				t.Fatalf("%s: seeds 7 and 8 share the key of %s", w.name, p.class)
			}
		}
	}
}

// Every template must come out of the front end with exactly the nests
// it was designed to parallelize marked parallel, or compile_cold would
// quietly turn into a benchmark of rejected SCoPs.
func TestTemplatesParallelizeAsDesigned(t *testing.T) {
	for _, tmpl := range unitTemplates {
		t.Run(tmpl.name, func(t *testing.T) {
			var b strings.Builder
			fmt.Fprintf(&b, "#define N %d\n#define M %d\n", genN, genM)
			tmpl.render(&b, 0, rand.New(rand.NewSource(1)))
			b.WriteString("int main(void) { return u0() % 251; }\n")
			art, err := core.Front(b.String(), requestConfig(nil))
			if err != nil {
				t.Fatalf("front end: %v\n%s", err, b.String())
			}
			if len(art.Rejections) != 0 {
				t.Errorf("rejected loops: %v", art.Rejections)
			}
			parallel := 0
			for _, l := range art.Report.Loops {
				if l.ParallelLevel >= 0 {
					parallel++
				} else if !strings.Contains(l.SerialReason, "trip count") {
					t.Errorf("nest serialized for a reason other than its short trip count: %s", l.SerialReason)
				}
			}
			if parallel != tmpl.parallel {
				t.Errorf("%d nests parallel, designed %d\n%s", parallel, tmpl.parallel, art.Report)
			}
		})
	}
	src, designed := genSource(genLarge, 0, rand.New(rand.NewSource(2)))
	sr, err := stagedFront(src, requestConfig(nil), false)
	if err != nil {
		t.Fatal(err)
	}
	if designed != genLarge || sr.parallelNests != designed {
		t.Errorf("generated program: %d nests parallel, designed %d, target %d", sr.parallelNests, designed, genLarge)
	}
}

// The trace's stage spans are only worth reading while the staged front
// end is the pipeline.
func TestStagedFrontMatchesCore(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	progs := []*program{genProgram(genLarge, 0, r), appProgram(quickSizing.warmApps[0], 3, 2)}
	for _, p := range progs {
		want, err := core.Front(p.source, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stagedFront(p.source, p.cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.art.Stages != want.Stages {
			t.Errorf("%s: staged front end's source snapshots differ from core.Front's", p.class)
		}
		if got.art.SCoPs != want.SCoPs || !reflect.DeepEqual(got.art.Rejections, want.Rejections) {
			t.Errorf("%s: SCoPs %d/%d, rejections %v/%v", p.class, got.art.SCoPs, want.SCoPs, got.art.Rejections, want.Rejections)
		}
		if got.art.Report.String() != want.Report.String() {
			t.Errorf("%s: transform reports differ", p.class)
		}
		if len(got.art.VRA.Proofs()) != len(want.VRA.Proofs()) {
			t.Errorf("%s: %d proofs, core.Front has %d", p.class, len(got.art.VRA.Proofs()), len(want.VRA.Proofs()))
		}
	}
}

func TestServedProgramsEqualOracle(t *testing.T) {
	progs := genCorpus(4, 52, 0) // a whole number of rounds
	if _, err := runOracle(progs); err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("compile_cold")
	got := drive(w, d.url, progs, passes(1, len(progs)))
	if err := d.stop(); err != nil {
		t.Error(err)
	}
	if err := got.failure(); err != nil {
		t.Fatal(err)
	}
	if got.requests != len(progs) || got.built != len(progs) {
		t.Fatalf("%d replies, %d of them compiled, for %d programs", got.requests, got.built, len(progs))
	}
	for _, p := range progs {
		if !strings.HasPrefix(p.wantOut, "gen ") {
			t.Fatalf("oracle output %q", p.wantOut)
		}
	}
}
