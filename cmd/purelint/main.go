// Command purelint enforces the repository's guest-memory access
// discipline on the Go sources: every read or write of a mem.Segment's
// backing slices outside internal/mem must go through the package's
// checked accessors (Load*/Store*, FloatRange/IntRange), and pointer
// offsets must move through AddChecked/DiffChecked rather than raw
// field arithmetic.
//
// Usage:
//
//	purelint [packages-or-dirs...]   (default: ./...)
//
// Rules (outside internal/mem):
//
//	rawmem: indexing or subslicing a Segment backing slice directly
//	        (p.Seg.I[k], seg.F[a:b], …) bypasses the bounds/freed
//	        discipline the mem accessors centralize
//	rawoff: arithmetic on a raw .Off field (p.Off + k) or forging a
//	        Pointer literal with an explicit Off bypasses
//	        AddChecked/DiffChecked overflow handling
//
// Sites that are deliberate — hot dispatch loops that re-validate by
// construction, oracle scans — carry an audit note:
//
//	//lint:rawmem <why this site is safe>        (this or next line)
//	//lint:file-rawmem <why this file is safe>   (whole file)
//
// When the walked tree contains internal/core/cache.go, purelint also
// enforces cache-key completeness:
//
//	cachekey: every field of core.Config, comp.Options and
//	          transform.Options must either be hashed by cacheKey
//	          (appear as cfg.<Field> — directly or through a local
//	          alias like t := cfg.Transform) or carry a waiver note
//	          //lint:cachekey <why this field cannot affect codegen>
//	          in its doc comment. A codegen-affecting knob that is
//	          missing from the hash would let two differently-compiled
//	          programs share one cache slot.
//
// Taking a whole-slice alias (xs := p.Seg.F) is legal: the alias cannot
// trap by itself, and the Go runtime bounds-checks any later index.
// purelint prints one line per violation and exits non-zero if any
// exist, so it slots into CI next to go vet.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var files []string
	for _, root := range roots {
		root = strings.TrimSuffix(root, "/...")
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && d.Name() != "." {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fatalf("%v", err)
		}
	}
	sort.Strings(files)

	var bad []string
	for _, path := range files {
		// internal/mem owns the raw representation; the discipline the
		// lint enforces is that everyone else goes through it.
		if strings.Contains(filepath.ToSlash(path), "internal/mem/") {
			continue
		}
		msgs, err := lintFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		bad = append(bad, msgs...)
	}
	ckMsgs, err := checkCacheKey(files)
	if err != nil {
		fatalf("%v", err)
	}
	bad = append(bad, ckMsgs...)
	for _, m := range bad {
		fmt.Println(m)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "purelint: %d violation(s)\n", len(bad))
		os.Exit(1)
	}
}

func lintFile(path string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	waived := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if strings.HasPrefix(text, "lint:file-rawmem") {
				return nil, nil
			}
			if strings.HasPrefix(text, "lint:rawmem") {
				// The note covers its own line and the next one, so it
				// can trail the statement or sit right above it.
				line := fset.Position(c.Pos()).Line
				waived[line] = true
				waived[line+1] = true
			}
		}
	}
	var msgs []string
	report := func(pos token.Pos, rule, msg string) {
		p := fset.Position(pos)
		if waived[p.Line] {
			return
		}
		msgs = append(msgs, fmt.Sprintf("%s: %s: %s", p, rule, msg))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			if segSlice(x.X) {
				report(x.Pos(), "rawmem",
					"raw Segment slice index bypasses the mem accessors (use Load*/Store* or a *Range view)")
			}
		case *ast.SliceExpr:
			if segSlice(x.X) {
				report(x.Pos(), "rawmem",
					"raw Segment subslice bypasses the mem accessors (use FloatRange/IntRange)")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD || x.Op == token.SUB || x.Op == token.MUL {
				if offField(x.X) || offField(x.Y) {
					report(x.Pos(), "rawoff",
						"raw .Off arithmetic bypasses AddChecked/DiffChecked")
				}
			}
		case *ast.CompositeLit:
			if pointerLit(x) && hasField(x, "Off") && hasField(x, "Seg") {
				report(x.Pos(), "rawoff",
					"forged Pointer with explicit Off bypasses AddChecked")
			}
		}
		return true
	})
	return msgs, nil
}

// segSlice reports whether e is a Segment backing-slice field: a
// selector .I/.F/.P whose receiver is itself a .Seg selector or an
// identifier conventionally naming a segment.
func segSlice(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "I", "F", "P":
	default:
		return false
	}
	switch recv := sel.X.(type) {
	case *ast.SelectorExpr:
		return recv.Sel.Name == "Seg"
	case *ast.Ident:
		return recv.Name == "seg" || recv.Name == "Seg"
	}
	return false
}

// offField reports whether e (modulo parens) selects a field named Off.
func offField(e ast.Expr) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Off"
}

// pointerLit reports whether the composite literal's type names
// Pointer (mem.Pointer or a local alias).
func pointerLit(x *ast.CompositeLit) bool {
	switch t := x.Type.(type) {
	case *ast.Ident:
		return t.Name == "Pointer"
	case *ast.SelectorExpr:
		return t.Sel.Name == "Pointer"
	}
	return false
}

// hasField reports whether the composite literal sets the named field.
func hasField(x *ast.CompositeLit, name string) bool {
	for _, el := range x.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
			return true
		}
	}
	return false
}

// ----------------------------------------------------------------------------
// cachekey: program-cache key completeness

// cacheKeyStructs are the option structs whose fields shape compiled
// Programs; the rule checks each declared field against the set of
// fields cacheKey actually hashes.
var cacheKeyStructs = []struct{ file, typeName string }{
	{"internal/core/pipeline.go", "Config"},
	{"internal/comp/comp.go", "Options"},
	{"internal/transform/transform.go", "Options"},
}

// checkCacheKey runs the cachekey rule when the walked file set
// contains the cache implementation (so linting an unrelated subtree
// stays silent). Field-name matching is deliberately flat: a hashed
// Config field and a comp.Options field of the same name (Backend,
// Engine, Vectorize, …) are the same knob — the pipeline copies one into
// the other — so one hash write covers both declarations.
func checkCacheKey(files []string) ([]string, error) {
	bySuffix := func(sfx string) string {
		for _, f := range files {
			if strings.HasSuffix(filepath.ToSlash(f), sfx) {
				return f
			}
		}
		return ""
	}
	cachePath := bySuffix("internal/core/cache.go")
	if cachePath == "" {
		return nil, nil
	}
	hashed, err := hashedFields(cachePath)
	if err != nil {
		return nil, err
	}
	if len(hashed) == 0 {
		return []string{cachePath + ": cachekey: cacheKey hashes no cfg fields (rule cannot verify completeness)"}, nil
	}
	var msgs []string
	for _, tgt := range cacheKeyStructs {
		path := bySuffix(tgt.file)
		if path == "" {
			continue
		}
		m, err := checkStructHashed(path, tgt.typeName, hashed)
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, m...)
	}
	return msgs, nil
}

// hashedFields parses the cacheKey function and returns the names of
// every field it hashes: selectors on cfg itself plus selectors on
// locals assigned from a cfg field (t := cfg.Transform; t.Tile …).
func hashedFields(cachePath string) (map[string]bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, cachePath, nil, 0)
	if err != nil {
		return nil, err
	}
	var body *ast.BlockStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "cacheKey" {
			body = fd.Body
		}
	}
	if body == nil {
		return nil, fmt.Errorf("%s: cacheKey function not found", cachePath)
	}
	aliases := map[string]bool{"cfg": true}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			sel, ok := rhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if recv, ok := sel.X.(*ast.Ident); ok && aliases[recv.Name] {
				if lhs, ok := as.Lhs[i].(*ast.Ident); ok {
					aliases[lhs.Name] = true
				}
			}
		}
		return true
	})
	hashed := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); ok && aliases[recv.Name] {
			hashed[sel.Sel.Name] = true
		}
		return true
	})
	return hashed, nil
}

// checkStructHashed reports fields of the named struct that are neither
// hashed by cacheKey nor waived with //lint:cachekey in the field's doc
// or trailing comment.
func checkStructHashed(path, typeName string, hashed map[string]bool) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var st *ast.StructType
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != typeName {
			return true
		}
		if s, ok := ts.Type.(*ast.StructType); ok {
			st = s
		}
		return false
	})
	if st == nil {
		return nil, fmt.Errorf("%s: struct %s not found", path, typeName)
	}
	waived := func(fl *ast.Field) bool {
		for _, cg := range []*ast.CommentGroup{fl.Doc, fl.Comment} {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if strings.Contains(c.Text, "lint:cachekey") {
					return true
				}
			}
		}
		return false
	}
	var msgs []string
	for _, fl := range st.Fields.List {
		for _, name := range fl.Names {
			if hashed[name.Name] || waived(fl) {
				continue
			}
			p := fset.Position(name.Pos())
			msgs = append(msgs, fmt.Sprintf(
				"%s: cachekey: %s.%s is not hashed by cacheKey and carries no //lint:cachekey waiver (a codegen-affecting knob missing from the key corrupts the program cache)",
				p, typeName, name.Name))
		}
	}
	return msgs, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "purelint: "+format+"\n", args...)
	os.Exit(1)
}
