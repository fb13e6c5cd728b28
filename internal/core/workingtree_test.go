package core

import (
	"fmt"
	"reflect"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/parser"
	"purec/internal/transform"
)

// treeCmp walks a working tree and a parsed tree in lockstep.
type treeCmp struct {
	// seen holds every node of the working tree reached so far.
	seen map[treeNode]bool
}

type treeNode struct {
	t reflect.Type
	p uintptr
}

// sameAsParse reports where the working tree of art differs from the
// tree parsing art.Stages.Transformed builds: a node of another type, a
// position, operator, name, value or literal or pragma text that
// differs, or a node of the working tree that is reachable twice. The
// type sema recorded on an expression node is not compared.
func sameAsParse(art *Artifact, fileName string) error {
	parsed, err := parser.Parse(fileName, art.Stages.Transformed)
	if err != nil {
		return fmt.Errorf("transformed source does not parse: %v", err)
	}
	c := &treeCmp{seen: map[treeNode]bool{}}
	return c.cmp(reflect.ValueOf(art.Info.File), reflect.ValueOf(parsed), "file")
}

func (c *treeCmp) cmp(a, b reflect.Value, path string) error {
	if a.Type() != b.Type() {
		return fmt.Errorf("%s: %s in the working tree, %s in the parse", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Errorf("%s: nil in one tree only", path)
			}
			return nil
		}
		if a.Kind() == reflect.Interface {
			return c.cmp(a.Elem(), b.Elem(), path)
		}
		key := treeNode{a.Type(), a.Pointer()}
		if c.seen[key] {
			return fmt.Errorf("%s: %s is reachable twice in the working tree", path, a.Type())
		}
		c.seen[key] = true
		return c.cmp(a.Elem(), b.Elem(), path+"/"+a.Elem().Type().Name())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).Name == "typed" {
				continue // the checked type: a parse has none yet
			}
			if err := c.cmp(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); err != nil {
				return err
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: %d elements in the working tree, %d in the parse", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := c.cmp(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	default:
		if a.Interface() != b.Interface() {
			return fmt.Errorf("%s: %v in the working tree, %v in the parse", path, a.Interface(), b.Interface())
		}
	}
	return nil
}

// printerShapes are sources whose printing is easy to get wrong: a
// leading pure read as a declaration modifier, declarators sharing a
// base type, unnamed parameters, every statement form, operators that
// print next to each other ("- -x" is not "--x"), and literals.
var printerShapes = []apps.Sample{
	{Name: "shapes-decls", Src: `struct pt { int x; float* w; };
pure float* gp, q, *r[2];
int proto(int, pure float*);
static inline int sq(const int v) { return v * v; }
pure int add(pure int* a, int n) { int s = 0, *t, u[3]; for (int i = 0; i < n; i++) s += a[i]; return s; }
int main(void) {
    struct pt p;
    int x = 3, y;
    int a[4], z = 0;
    p.x = 1;
    y = - -x + - --x + -(-x) + ~!x;
    y = (x = 2) ? x : (y = 1);
    y = x > 1 ? x < 3 ? 1 : 2 : 3;
    y += sizeof(int) + sizeof x + (int)2.5f + 'a' + 0x1F + 010;
    for (;;) { if (y > 0) break; else if (y < -5) continue; else y++; }
    do y--; while (y > 100);
    while (x) x--;
    switch (y) { case 1: y = 2; case 2: { y++; break; } default: ; }
    printf("%d %s\n", y, "q\"s");
    return add((pure int*)a, 4) + sq(p.x) - y * 0;
}
`},
	// The private j is substituted into both uses; each gets its own
	// copy of every node of the initializer, casts and literals too.
	{Name: "shapes-substituted-private", Src: `float x[80];
float y[64];
float z[64];
int main(void) {
    for (int i = 0; i < 64; i++) {
        int j = (int)i + 'a' - 97 + sizeof(char);
        y[i] = x[j];
        z[i] = x[j] + 1.0f;
    }
    return 0;
}
`},
}

// TestWorkingTreeIsTheParse: Front parses once, so the model it hands to
// Compile is the working tree the passes rewrote. Printing Transformed
// places that tree, and the test holds it to the tree a restart on the
// printed file (a disk-cache load) builds, node by node, on every corpus
// source under every transform and on the disk-restore sample.
func TestWorkingTreeIsTheParse(t *testing.T) {
	transforms := []struct {
		name string
		opts transform.Options
	}{{"none", transform.Options{}}, {"tile", transform.Options{Tile: true}},
		{"skew", transform.Options{Skew: true}}, {"tile+skew", transform.Options{Tile: true, Skew: true}}}
	built := 0
	for _, s := range apps.Corpus() {
		for _, par := range []bool{false, true} {
			for _, tr := range transforms {
				for _, backend := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
					cfg := Config{FileName: "t.c", Defines: s.Defines, Parallelize: par, Transform: tr.opts, Backend: backend}
					art, err := Front(s.Src, cfg)
					if err != nil {
						t.Fatalf("%s par=%v %s: %v", s.Name, par, tr.name, err)
					}
					if err := sameAsParse(art, cfg.FileName); err != nil {
						t.Errorf("%s par=%v %s %v: %v", s.Name, par, tr.name, backend, err)
					}
					built++
				}
			}
		}
	}
	for _, s := range printerShapes {
		for _, par := range []bool{false, true} {
			art, err := Front(s.Src, Config{FileName: "t.c", Parallelize: par})
			if err != nil {
				t.Fatalf("%s par=%v: %v", s.Name, par, err)
			}
			if err := sameAsParse(art, "t.c"); err != nil {
				t.Errorf("%s par=%v: %v", s.Name, par, err)
			}
			built++
		}
	}
	for _, s := range restoreSample(t) {
		cfg := Config{FileName: "t.c", Parallelize: true, Memoize: true, Defines: s.Defines}
		art, err := Front(s.Src, cfg)
		if err != nil {
			cfg.Parallelize = false
			if art, err = Front(s.Src, cfg); err != nil {
				continue
			}
		}
		if err := sameAsParse(art, cfg.FileName); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		built++
	}
	t.Logf("%d working trees equal their parse", built)
}
