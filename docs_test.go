// Markdown link checker: every relative link in the top-level docs
// (README.md, ARCHITECTURE.md, CHANGES.md, the examples' READMEs) must
// point at a file or directory that exists in the repository, so the
// docs cannot silently rot when files move. External links (http/…)
// and intra-document anchors are not fetched.
package purec

import (
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
	for _, fig := range []string{"m1", "m2", "r1", "a1"} {
		if !strings.Contains(string(readme), "`"+fig+"`") {
			t.Errorf("README figure list lacks %q", fig)
		}
	}
}
