// Package preproc implements the preprocessing stages of the paper's
// compiler chain (Fig. 1):
//
//   - PC-PrePro: StripSystemIncludes removes #include <...> lines before
//     the rest of the chain runs, recording them for later reinsertion;
//   - GCC-E analog: Expand resolves local #include "..." files, object-
//     and function-like #define macros, #undef, and #ifdef/#ifndef/#if
//     conditionals;
//   - PC-PosPro: ReinsertSystemIncludes puts the system includes back at
//     the top of the final source.
//
// #pragma lines pass through untouched so SCoP markers and OpenMP
// directives survive the round trip.
package preproc

import (
	"fmt"
	"strconv"
	"strings"
)

// StripSystemIncludes removes all #include <...> lines from src and
// returns the stripped source plus the removed lines in order.
func StripSystemIncludes(src string) (string, []string) {
	var out []string
	var removed []string
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "#include") && strings.Contains(t, "<") {
			removed = append(removed, t)
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n"), removed
}

// ReinsertSystemIncludes prepends the previously removed system include
// lines to src (PC-PosPro).
func ReinsertSystemIncludes(src string, includes []string) string {
	if len(includes) == 0 {
		return src
	}
	return strings.Join(includes, "\n") + "\n" + src
}

// MaxExpansion bounds the text one Expand produces, intermediate
// rescans of a line included: four times purecd's default request-body
// cap. A few doubling #defines (M1 = M0+M0, M2 = M1+M1, …) reach
// gigabytes, so expansion stops at the budget with an error instead of
// exhausting memory.
const MaxExpansion = 16 << 20

// errExpansion is the error of an expansion over MaxExpansion.
var errExpansion = fmt.Errorf("macro expansion exceeds %d bytes", MaxExpansion)

// maxCondDepth bounds the nesting of a #if expression (parentheses and
// unary operators), which is evaluated recursively.
const maxCondDepth = 1024

type macro struct {
	params   []string // nil for object-like macros
	body     string
	funcLike bool
}

// Expander performs macro expansion and conditional processing.
type Expander struct {
	// Files resolves #include "name" to file contents.
	Files map[string]string
	// MaxDepth bounds recursive expansion (defaults to 32).
	MaxDepth int

	macros map[string]macro
}

// Expand preprocesses src: resolves local includes, collects and expands
// #define macros, and evaluates #ifdef/#ifndef/#if/#else/#endif
// conditionals. System includes must have been stripped beforehand.
func (e *Expander) Expand(src string) (string, error) {
	if e.macros == nil {
		e.macros = map[string]macro{}
	}
	if e.MaxDepth == 0 {
		e.MaxDepth = 32
	}
	return e.expand(src, 0)
}

// Expand runs a one-shot expander with no include files.
func Expand(src string) (string, error) {
	e := &Expander{}
	return e.Expand(src)
}

// Define registers an object-like macro before expansion (used by the
// bench harness to inject problem sizes, mirroring -DN=4096).
func (e *Expander) Define(name, body string) {
	if e.macros == nil {
		e.macros = map[string]macro{}
	}
	e.macros[name] = macro{body: body}
}

func (e *Expander) expand(src string, depth int) (string, error) {
	if depth > 16 {
		return "", fmt.Errorf("#include nesting too deep")
	}
	var out strings.Builder
	// cond stack: each entry is (taking, everTaken)
	type condState struct{ taking, everTaken bool }
	var conds []condState
	active := func() bool {
		for _, c := range conds {
			if !c.taking {
				return false
			}
		}
		return true
	}
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		// Join backslash continuations.
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			line = strings.TrimSuffix(line, "\\") + lines[i+1]
			i++
		}
		t := strings.TrimSpace(line)
		if !strings.HasPrefix(t, "#") {
			if active() {
				x, err := e.expandLine(line, 0)
				if err != nil {
					return "", err
				}
				out.WriteString(x)
				out.WriteByte('\n')
				if out.Len() > MaxExpansion {
					return "", errExpansion
				}
			}
			continue
		}
		directive, rest := splitDirective(t)
		switch directive {
		case "pragma":
			if active() {
				out.WriteString(line)
				out.WriteByte('\n')
			}
		case "include":
			if !active() {
				continue
			}
			name, ok := localIncludeName(rest)
			if !ok {
				return "", fmt.Errorf("unsupported include %q (system includes must be stripped by PC-PrePro first)", t)
			}
			content, ok := e.Files[name]
			if !ok {
				return "", fmt.Errorf("include file %q not found", name)
			}
			sub, err := e.expand(content, depth+1)
			if err != nil {
				return "", err
			}
			out.WriteString(sub)
			if !strings.HasSuffix(sub, "\n") {
				out.WriteByte('\n')
			}
			if out.Len() > MaxExpansion {
				return "", errExpansion
			}
		case "define":
			if active() {
				if err := e.define(rest); err != nil {
					return "", err
				}
			}
		case "undef":
			if active() {
				delete(e.macros, strings.TrimSpace(rest))
			}
		case "ifdef":
			_, defined := e.macros[strings.TrimSpace(rest)]
			conds = append(conds, condState{taking: defined, everTaken: defined})
		case "ifndef":
			_, defined := e.macros[strings.TrimSpace(rest)]
			conds = append(conds, condState{taking: !defined, everTaken: !defined})
		case "if":
			v, err := e.evalCond(rest)
			if err != nil {
				return "", fmt.Errorf("#if: %v", err)
			}
			conds = append(conds, condState{taking: v, everTaken: v})
		case "elif":
			if len(conds) == 0 {
				return "", fmt.Errorf("#elif without #if")
			}
			top := &conds[len(conds)-1]
			if top.everTaken {
				top.taking = false
			} else {
				v, err := e.evalCond(rest)
				if err != nil {
					return "", fmt.Errorf("#elif: %v", err)
				}
				top.taking = v
				top.everTaken = v
			}
		case "else":
			if len(conds) == 0 {
				return "", fmt.Errorf("#else without #if")
			}
			top := &conds[len(conds)-1]
			top.taking = !top.everTaken
			top.everTaken = true
		case "endif":
			if len(conds) == 0 {
				return "", fmt.Errorf("#endif without #if")
			}
			conds = conds[:len(conds)-1]
		default:
			return "", fmt.Errorf("unsupported preprocessor directive #%s", directive)
		}
	}
	if len(conds) != 0 {
		return "", fmt.Errorf("unterminated #if/#ifdef")
	}
	return out.String(), nil
}

func splitDirective(t string) (string, string) {
	t = strings.TrimSpace(strings.TrimPrefix(t, "#"))
	for i := 0; i < len(t); i++ {
		if t[i] == ' ' || t[i] == '\t' || t[i] == '(' {
			if t[i] == '(' {
				return t[:i], t[i:]
			}
			return t[:i], strings.TrimSpace(t[i+1:])
		}
	}
	return t, ""
}

func localIncludeName(rest string) (string, bool) {
	rest = strings.TrimSpace(rest)
	if len(rest) >= 2 && rest[0] == '"' {
		if j := strings.IndexByte(rest[1:], '"'); j >= 0 {
			return rest[1 : 1+j], true
		}
	}
	return "", false
}

func (e *Expander) define(rest string) error {
	rest = strings.TrimSpace(rest)
	i := 0
	for i < len(rest) && isIdentChar(rest[i]) {
		i++
	}
	if i == 0 {
		return fmt.Errorf("bad #define %q", rest)
	}
	name := rest[:i]
	if i < len(rest) && rest[i] == '(' {
		// function-like macro
		j := strings.IndexByte(rest[i:], ')')
		if j < 0 {
			return fmt.Errorf("bad #define %q: missing )", rest)
		}
		paramPart := rest[i+1 : i+j]
		var params []string
		for _, pp := range strings.Split(paramPart, ",") {
			pp = strings.TrimSpace(pp)
			if pp != "" {
				params = append(params, pp)
			}
		}
		e.macros[name] = macro{params: params, body: strings.TrimSpace(rest[i+j+1:]), funcLike: true}
		return nil
	}
	e.macros[name] = macro{body: strings.TrimSpace(rest[i:])}
	return nil
}

func isIdentChar(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

// expandLine performs token-boundary macro substitution on one source
// line, iterating until no macro names remain (bounded by MaxDepth and
// MaxExpansion).
func (e *Expander) expandLine(line string, depth int) (string, error) {
	if depth >= e.MaxDepth {
		return line, nil
	}
	var out strings.Builder
	i := 0
	changed := false
	for i < len(line) {
		c := line[i]
		switch {
		case c == '"' || c == '\'':
			// copy string/char literal verbatim
			quote := c
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == quote {
					j++
					break
				}
				j++
			}
			out.WriteString(line[i:j])
			i = j
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			out.WriteString(line[i:])
			i = len(line)
		case isIdentStart(c):
			j := i + 1
			for j < len(line) && isIdentChar(line[j]) {
				j++
			}
			word := line[i:j]
			m, ok := e.macros[word]
			if !ok {
				out.WriteString(word)
				i = j
				continue
			}
			if !m.funcLike {
				out.WriteString(m.body)
				if out.Len() > MaxExpansion {
					return "", errExpansion
				}
				changed = true
				i = j
				continue
			}
			// function-like: need '(' (possibly after spaces)
			k := j
			for k < len(line) && (line[k] == ' ' || line[k] == '\t') {
				k++
			}
			if k >= len(line) || line[k] != '(' {
				out.WriteString(word)
				i = j
				continue
			}
			args, end, ok := parseArgs(line, k)
			if !ok {
				out.WriteString(word)
				i = j
				continue
			}
			if !substParams(&out, m, args) {
				return "", errExpansion
			}
			changed = true
			i = end
		default:
			out.WriteByte(c)
			i++
		}
	}
	res := out.String()
	if changed {
		return e.expandLine(res, depth+1)
	}
	return res, nil
}

// parseArgs parses a balanced macro argument list starting at the '(' at
// position k; it returns the comma-separated top-level arguments and the
// index just past the closing ')'.
func parseArgs(line string, k int) ([]string, int, bool) {
	depth := 0
	var args []string
	var cur strings.Builder
	i := k
	for ; i < len(line); i++ {
		c := line[i]
		switch c {
		case '(':
			depth++
			if depth > 1 {
				cur.WriteByte(c)
			}
		case ')':
			depth--
			if depth == 0 {
				args = append(args, strings.TrimSpace(cur.String()))
				return args, i + 1, true
			}
			cur.WriteByte(c)
		case ',':
			if depth == 1 {
				args = append(args, strings.TrimSpace(cur.String()))
				cur.Reset()
			} else {
				cur.WriteByte(c)
			}
		default:
			cur.WriteByte(c)
		}
	}
	return nil, i, false
}

// substParams writes the body with the parameters substituted at
// identifier boundaries to out; it reports false once out exceeds
// MaxExpansion.
func substParams(out *strings.Builder, m macro, args []string) bool {
	body := m.body
	i := 0
	for i < len(body) {
		if isIdentStart(body[i]) {
			j := i + 1
			for j < len(body) && isIdentChar(body[j]) {
				j++
			}
			word := body[i:j]
			replaced := false
			for pi, pn := range m.params {
				if word == pn && pi < len(args) {
					out.WriteByte('(')
					out.WriteString(args[pi])
					out.WriteByte(')')
					replaced = true
					break
				}
			}
			if out.Len() > MaxExpansion {
				return false
			}
			if !replaced {
				out.WriteString(word)
			}
			i = j
			continue
		}
		out.WriteByte(body[i])
		i++
	}
	return true
}

// evalCond evaluates a #if condition: integers, defined(X), !, &&, ||,
// comparisons and basic arithmetic over macro-expanded text.
func (e *Expander) evalCond(rest string) (bool, error) {
	// Replace defined(X) / defined X before macro expansion.
	s := rest
	for {
		idx := strings.Index(s, "defined")
		if idx < 0 {
			break
		}
		j := idx + len("defined")
		for j < len(s) && (s[j] == ' ' || s[j] == '\t') {
			j++
		}
		var name string
		var end int
		if j < len(s) && s[j] == '(' {
			k := strings.IndexByte(s[j:], ')')
			if k < 0 {
				return false, fmt.Errorf("bad defined() in %q", rest)
			}
			name = strings.TrimSpace(s[j+1 : j+k])
			end = j + k + 1
		} else {
			k := j
			for k < len(s) && isIdentChar(s[k]) {
				k++
			}
			name = s[j:k]
			end = k
		}
		val := "0"
		if _, ok := e.macros[name]; ok {
			val = "1"
		}
		s = s[:idx] + val + s[end:]
	}
	s, err := e.expandLine(s, 0)
	if err != nil {
		return false, err
	}
	v, err := evalIntExpr(s)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// evalIntExpr evaluates a small integer expression grammar used in #if
// lines: || && == != < <= > >= + - * / % ! unary- parentheses.
func evalIntExpr(s string) (int64, error) {
	p := &condParser{s: s}
	v, err := p.orExpr()
	if err != nil {
		return 0, err
	}
	p.skip()
	if p.i < len(p.s) {
		return 0, fmt.Errorf("trailing input %q in #if expression", p.s[p.i:])
	}
	return v, nil
}

type condParser struct {
	s     string
	i     int
	depth int
}

func (p *condParser) skip() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *condParser) has(tok string) bool {
	p.skip()
	if strings.HasPrefix(p.s[p.i:], tok) {
		p.i += len(tok)
		return true
	}
	return false
}

func (p *condParser) orExpr() (int64, error) {
	v, err := p.andExpr()
	if err != nil {
		return 0, err
	}
	for p.has("||") {
		w, err := p.andExpr()
		if err != nil {
			return 0, err
		}
		if v != 0 || w != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v, nil
}

func (p *condParser) andExpr() (int64, error) {
	v, err := p.cmpExpr()
	if err != nil {
		return 0, err
	}
	for p.has("&&") {
		w, err := p.cmpExpr()
		if err != nil {
			return 0, err
		}
		if v != 0 && w != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v, nil
}

func (p *condParser) cmpExpr() (int64, error) {
	v, err := p.addExpr()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case p.has("=="):
			w, err := p.addExpr()
			if err != nil {
				return 0, err
			}
			v = b2i(v == w)
		case p.has("!="):
			w, err := p.addExpr()
			if err != nil {
				return 0, err
			}
			v = b2i(v != w)
		case p.has("<="):
			w, err := p.addExpr()
			if err != nil {
				return 0, err
			}
			v = b2i(v <= w)
		case p.has(">="):
			w, err := p.addExpr()
			if err != nil {
				return 0, err
			}
			v = b2i(v >= w)
		case p.has("<"):
			w, err := p.addExpr()
			if err != nil {
				return 0, err
			}
			v = b2i(v < w)
		case p.has(">"):
			w, err := p.addExpr()
			if err != nil {
				return 0, err
			}
			v = b2i(v > w)
		default:
			return v, nil
		}
	}
}

func (p *condParser) addExpr() (int64, error) {
	v, err := p.mulExpr()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case p.has("+"):
			w, err := p.mulExpr()
			if err != nil {
				return 0, err
			}
			v += w
		case p.has("-"):
			w, err := p.mulExpr()
			if err != nil {
				return 0, err
			}
			v -= w
		default:
			return v, nil
		}
	}
}

func (p *condParser) mulExpr() (int64, error) {
	v, err := p.unary()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case p.has("*"):
			w, err := p.unary()
			if err != nil {
				return 0, err
			}
			v *= w
		case p.has("/"):
			w, err := p.unary()
			if err != nil {
				return 0, err
			}
			if w == 0 {
				return 0, fmt.Errorf("division by zero in #if")
			}
			v /= w
		case p.has("%"):
			w, err := p.unary()
			if err != nil {
				return 0, err
			}
			if w == 0 {
				return 0, fmt.Errorf("modulo by zero in #if")
			}
			v %= w
		default:
			return v, nil
		}
	}
}

func (p *condParser) unary() (int64, error) {
	if p.depth++; p.depth > maxCondDepth {
		return 0, fmt.Errorf("#if expression nesting exceeds %d levels", maxCondDepth)
	}
	defer func() { p.depth-- }()
	p.skip()
	if p.has("!") {
		v, err := p.unary()
		if err != nil {
			return 0, err
		}
		return b2i(v == 0), nil
	}
	if p.has("-") {
		v, err := p.unary()
		if err != nil {
			return 0, err
		}
		return -v, nil
	}
	if p.has("(") {
		v, err := p.orExpr()
		if err != nil {
			return 0, err
		}
		if !p.has(")") {
			return 0, fmt.Errorf("missing ) in #if expression")
		}
		return v, nil
	}
	p.skip()
	j := p.i
	for j < len(p.s) && (p.s[j] >= '0' && p.s[j] <= '9' || p.s[j] == 'x' || p.s[j] == 'X' ||
		p.s[j] >= 'a' && p.s[j] <= 'f' || p.s[j] >= 'A' && p.s[j] <= 'F') {
		j++
	}
	if j == p.i {
		// Undefined identifiers evaluate to 0, as in C preprocessing.
		if p.i < len(p.s) && isIdentStart(p.s[p.i]) {
			for p.i < len(p.s) && isIdentChar(p.s[p.i]) {
				p.i++
			}
			return 0, nil
		}
		return 0, fmt.Errorf("expected number in #if expression at %q", p.s[p.i:])
	}
	text := strings.TrimRight(p.s[p.i:j], "uUlL")
	p.i = j
	var v int64
	var err error
	if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
		v, err = strconv.ParseInt(text[2:], 16, 64)
	} else {
		v, err = strconv.ParseInt(text, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	return v, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
