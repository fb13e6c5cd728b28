package core

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"purec/internal/apps"
	"purec/internal/ast"
	"purec/internal/parser"
	"purec/internal/preproc"
)

// multiNestProgram joins the first n apps.Corpus() sources into one
// translation unit: each sample has its defines expanded and its
// file-scope names suffixed with its index, and a new main calls every
// renamed main in turn. The result is a program of many independent
// loop nests, the shape the disk cache serves in the benchmark corpus.
func multiNestProgram(tb testing.TB, n int) string {
	tb.Helper()
	var out, calls strings.Builder
	for k, s := range apps.Corpus()[:n] {
		stripped, _ := preproc.StripSystemIncludes(s.Src)
		ex := &preproc.Expander{}
		for name, body := range s.Defines {
			ex.Define(name, body)
		}
		text, err := ex.Expand(stripped)
		if err != nil {
			tb.Fatalf("%s: %v", s.Name, err)
		}
		file, err := parser.Parse(s.Name, text)
		if err != nil {
			tb.Fatalf("%s: %v", s.Name, err)
		}
		var names []string
		for _, d := range file.Decls {
			switch x := d.(type) {
			case *ast.FuncDecl:
				names = append(names, x.Name)
			case *ast.VarDeclGroup:
				for _, v := range x.Decls {
					names = append(names, v.Name)
				}
			case *ast.StructDecl:
				names = append(names, x.Name)
			}
		}
		re := regexp.MustCompile(`\b(` + strings.Join(names, "|") + `)\b`)
		out.WriteString(re.ReplaceAllString(text, fmt.Sprintf("${1}_%d", k)))
		fmt.Fprintf(&calls, "    r += main_%d();\n", k)
	}
	fmt.Fprintf(&out, "\nint main(void) {\n    int r = 0;\n%s    return r;\n}\n", calls.String())
	return out.String()
}

// BenchmarkDiskLoad measures one DiskCache.Load — read, header decode,
// checksum, parse, semantic check, proof rebuild — on a small and a
// large multi-nest program, and reports the entry's size on disk.
func BenchmarkDiskLoad(b *testing.B) {
	for _, size := range []struct {
		name    string
		samples int
	}{{"100-lines", 3}, {"400-lines", 10}} {
		b.Run(size.name, func(b *testing.B) {
			src := multiNestProgram(b, size.samples)
			cfg := Config{FileName: "multi.c", Parallelize: true}
			art, err := Front(src, cfg)
			if err != nil {
				b.Fatal(err)
			}
			d, err := NewDiskCache(b.TempDir(), 0)
			if err != nil {
				b.Fatal(err)
			}
			key := Key(src, cfg)
			if err := d.Store(key, cfg, art); err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(filepath.Join(d.Dir(), key.String()+".json"))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := d.Load(src, key, cfg); !ok {
					b.Fatal("stored entry did not load")
				}
			}
			b.ReportMetric(float64(fi.Size()), "entry-bytes")
			b.ReportMetric(float64(strings.Count(src, "\n")), "source-lines")
		})
	}
}
