package vra

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/ast"
	"purec/internal/parser"
	"purec/internal/preproc"
	"purec/internal/sema"
)

// analyzeSeparately is the schedule Analyze replaced: collecting rounds
// to a fixpoint (poisoning after three), then one walk that only proves.
func analyzeSeparately(info *sema.Info) *Result {
	a := newAnalyzer(info)
	for round := 0; ; round++ {
		a.contentChanged = false
		a.changed = map[*sema.Symbol]bool{}
		a.walkAll(true, false)
		if !a.contentChanged {
			break
		}
		if round >= 2 {
			a.poison()
			break
		}
	}
	a.walkAll(false, true)
	return a.finish()
}

// render lists what an analysis tells its consumers: the findings, and
// the proof and note of every array access.
func render(info *sema.Info, r *Result) string {
	var b strings.Builder
	for _, f := range r.Findings {
		fmt.Fprintln(&b, f)
	}
	ast.Walk(info.File, func(n ast.Node) bool {
		if e, ok := n.(*ast.IndexExpr); ok {
			fmt.Fprintf(&b, "%s %s proven=%v note=%q\n", e.Pos(), ast.PrintExpr(e), r.Proven(e), r.Note(e))
		}
		return true
	})
	return b.String()
}

// Index arrays whose contents flow into each other take collecting
// rounds: copyN has a chain of N copies written before their sources.
func copyChain(n int) string {
	var b strings.Builder
	for k := 0; k <= n; k++ {
		fmt.Fprintf(&b, "int c%d[8];\n", k)
	}
	b.WriteString("float x[8];\nint main(void) {\n")
	for k := n; k > 0; k-- {
		fmt.Fprintf(&b, "    for (int i = 0; i < 8; i++) c%d[i] = c%d[i];\n", k, k-1)
	}
	fmt.Fprintf(&b, "    for (int i = 0; i < 8; i++) c0[i] = i;\n")
	fmt.Fprintf(&b, "    float s = 0.0f;\n    for (int i = 0; i < 8; i++) s += x[c%d[i]] + x[c0[i] + 1];\n", n)
	b.WriteString("    printf(\"%f\\n\", s);\n    return 0;\n}\n")
	return b.String()
}

// TestProvingRidesTheCollectingRounds: Analyze proves in every
// collecting round after the first and keeps a round's results only
// when it changed no content. Its findings, notes and proofs are those
// of the schedule that collects first and proves in a walk of its own,
// it never walks more, and a program whose contents settle in the first
// round (every corpus program) takes two walks instead of three.
func TestProvingRidesTheCollectingRounds(t *testing.T) {
	type program struct {
		name, src string
		defines   map[string]string
		walks     int // 0: at most the separate schedule's
	}
	var progs []program
	for _, s := range apps.Corpus() {
		progs = append(progs, program{s.Name, s.Src, s.Defines, 2})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.pc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{f, string(src), nil, 0})
	}
	// Walks: no tracked array (2, as before), contents settled by the
	// first round (2, was 3), one more round (3, was 4), still widening
	// in the third round and poisoned (4, as before).
	progs = append(progs,
		program{"no-index-array", "float x[8];\nint main(void) { float s = 0.0f; for (int i = 0; i < 8; i++) s += x[i]; return (int)s; }\n", nil, 2},
		program{"copy0", copyChain(0), nil, 2},
		program{"copy1", copyChain(1), nil, 3},
		program{"copy2", copyChain(2), nil, 4},
		program{"copy3", copyChain(3), nil, 4})
	for _, p := range progs {
		ex := &preproc.Expander{}
		for k, v := range p.defines {
			ex.Define(k, v)
		}
		stripped, _ := preproc.StripSystemIncludes(p.src)
		src, err := ex.Expand(stripped)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		// Two models of one source: the sets are keyed by node.
		var infos [2]*sema.Info
		for i := range infos {
			f, err := parser.Parse(p.name, src)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if infos[i], err = sema.Check(f); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		got, want := Analyze(infos[0]), analyzeSeparately(infos[1])
		if g, w := render(infos[0], got), render(infos[1], want); g != w {
			t.Errorf("%s: the analysis differs from collecting first and proving after\ngot:\n%s\nwant:\n%s", p.name, g, w)
		}
		if got.walks > want.walks || p.walks != 0 && got.walks != p.walks {
			t.Errorf("%s: %d walks, proving separately takes %d, want %d", p.name, got.walks, want.walks, p.walks)
		}
	}
}
