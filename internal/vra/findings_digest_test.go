package vra

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"

	"purec/internal/apps"
	"purec/internal/parser"
	"purec/internal/preproc"
	"purec/internal/sema"
)

// findingsGolden pins, per program, sha256 over the Kind, Pos, Expr and
// Msg of every finding in order: the findings of every apps.Corpus()
// program (defines expanded) and of the testdata programs. A change to
// how the analysis computes its findings must leave them byte-identical.
var findingsGolden = map[string]string{
	"aliased-pair":     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"axpy":             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"clamp-gather":     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"clamp.pc":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"clean.pc":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"copy":             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"dead-code-shapes": "cfd81034ef5386083aa75917bfd3038262552d48082fca05ad15471b4ce0b2b9", // 7
	"dead_guard.pc":    "3cc4903393d64586a388c5150281af2bc31257d84a8896024bc2bda0b9f562de", // 2
	"dead_store.pc":    "ae648ac37f72932383e750fc40cb93c0b74aa83b6184aff36fa93b6ebb708fa9", // 2
	"definite_oob.pc":  "b93b5596810f9d9156e6773c84df41cfe49992ad28bb85169aaeec87faf6a638", // 2
	"derived":          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"derived.pc":       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"entailment.pc":    "365a0fcb37895e873b68f32238490bcfff67521e169fb67f7d410a98f95553f1", // 2
	"gather":           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"gather-opaque":    "7f6a05cecea61ab8e69ee18c9bb7ac1734a3ed166e6410bfaeccfcf837251fe7", // 1
	"heat":             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"heat-inlined":     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"histogram":        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"lama":             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"lama-manual":      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"matmul":           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"matmul-inlined":   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"matmul-kern":      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"matmul-noinitpar": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"memosat":          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"noncanon":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"possible_oob.pc":  "5e6f3b2b2d5a8882d5e81db369f477cfc34d585a54e2039fcbe21e4305393e72", // 2
	"ptr-scale":        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"reduce-dot":       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"reduce-sum":       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"satellite":        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"sparsehist":       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"stencil":          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // 0
	"uninit_scalar.pc": "3925ce8134dc6810913bda562c9f898f091e31c63a9e0b3b87f2427d01b8a86a", // 2
	"unused_var.pc":    "6a161033444e22b6e0b662e6c15267de705fe4955dc705b9bd5d6d6ab40bcbae", // 1
}

// deadCodeShapes exercises the liveness pass: overwrites in nested and
// sibling blocks, a read between two stores, compound stores, a store
// through parentheses, a local array a pointer aims into, stores with calls or side
// effects on the right, and locals that are never read.
const deadCodeShapes = `int g;
int f(int v) { return v + 1; }
int main(void) {
    int a = 0, b, c, d, e, h, k[1];
    int *p = &k[0];
    a = 1;
    a = 2;
    b = a;
    { c = 1; c = 2; { c = 3; d = c; c = 4; } c = 5; }
    (e) = 1;
    (e) = 2;
    e = f(e);
    e = 7;
    h = 1;
    h += 2;
    h = 3;
    *p = 1;
    k[0] = 2;
    k[0] = 3;
    for (int i = 0; i < 4; i++) { a = i; a = i + 1; g = a; }
    if (g) { b = 1; b = 2; } else { b = 3; }
    while (g > 10) { d = 1; g--; d = 2; }
    int unused, never = 5;
    never = 6;
    return b + d + g;
}
`

func findingsDigest(r *Result) string {
	h := sha256.New()
	for _, f := range r.Findings {
		h.Write([]byte(f.String()))
		h.Write([]byte{0})
		h.Write([]byte(f.Expr))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFindingsDigests(t *testing.T) {
	got := map[string]*Result{}
	for _, s := range apps.Corpus() {
		ex := &preproc.Expander{}
		for k, v := range s.Defines {
			ex.Define(k, v)
		}
		src, err := ex.Expand(s.Src)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		file, err := parser.Parse(s.Name+".c", src)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		info, err := sema.Check(file)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		got[s.Name] = Analyze(info)
	}
	file, err := parser.Parse("shapes.c", deadCodeShapes)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(file)
	if err != nil {
		t.Fatal(err)
	}
	got["dead-code-shapes"] = Analyze(info)
	names, err := filepath.Glob(filepath.Join("testdata", "*.pc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range names {
		got[filepath.Base(path)] = analyzeFile(t, filepath.Base(path))
	}
	for name, r := range got {
		if d := findingsDigest(r); d != findingsGolden[name] {
			t.Errorf("%q: %q, // %d findings", name, d, len(r.Findings))
		}
	}
	if len(got) != len(findingsGolden) {
		t.Errorf("%d programs, %d digests", len(got), len(findingsGolden))
	}
}
