// Markdown link checker: every relative link in the top-level docs
// (README.md, ARCHITECTURE.md, CHANGES.md, the examples' READMEs) must
// point at a file or directory that exists in the repository, so the
// docs cannot silently rot when files move. External links (http/…)
// and intra-document anchors are not fetched. The same holds for the
// Markdown files Go comments cite.
package purec

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches [text](target); image links (![alt](src)) match too
// and get the same existence check, which is what we want. Link-shaped
// text inside code spans would also match — keep literal examples in
// the docs pointing at real files.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func TestMarkdownLinksResolve(t *testing.T) {
	docs := []string{"README.md", "ARCHITECTURE.md", "CHANGES.md"}
	examples, err := filepath.Glob("examples/*/README.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, examples...)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		base := filepath.Dir(doc)
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external: not fetched
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(base, target)); err != nil {
				t.Errorf("%s: broken link %q: %v", doc, m[1], err)
			}
		}
	}
}

// TestDocsMentionCurrentFigures guards the flag tables against going
// stale: every figure the purebench driver accepts must appear in the
// README's figure list.
func TestDocsMentionCurrentFigures(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"2", "11", "m1", "m2"} {
		if !strings.Contains(string(readme), "`"+fig+"`") {
			t.Errorf("README figure list lacks %q", fig)
		}
	}
}

// mdName matches a Markdown file name in prose, with an optional
// relative directory path in front.
var mdName = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestGoCommentsCiteExistingDocs: every Markdown file a Go comment
// cites must be a file of the repository, relative to the commented
// file's directory or to the repository root.
func TestGoCommentsCiteExistingDocs(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			for _, name := range mdName.FindAllString(g.Text(), -1) {
				_, errDir := os.Stat(filepath.Join(filepath.Dir(path), name))
				_, errRoot := os.Stat(name)
				if errDir != nil && errRoot != nil {
					t.Errorf("%s: comment cites %s, which is no file of the repository", fset.Position(g.Pos()), name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
