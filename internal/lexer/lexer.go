// Package lexer turns mini-C source text into a token stream.
//
// The lexer understands the full operator set of C, all literal forms used
// by the paper's evaluation programs, line and block comments, and
// preprocessor lines. Preprocessor lines other than #pragma are expected to
// have been handled by internal/preproc before parsing; #pragma lines are
// emitted as token.PRAGMA so that scop/omp annotations survive the round
// trip through the tool chain exactly as in the paper's Fig. 1.
package lexer

import (
	"fmt"
	"strings"

	"purec/internal/token"
)

// ErrorList collects lexical errors with their positions.
type ErrorList []error

// Error implements the error interface by joining all messages.
func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	msgs := make([]string, len(l))
	for i, e := range l {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "\n")
}

// Err returns nil when the list is empty and the list otherwise.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

// Lexer scans one source buffer.
type Lexer struct {
	src      string
	file     string
	off      int // byte offset of ch
	rdOff    int // byte offset after ch
	ch       byte
	line     int
	col      int
	keepCmts bool
	errs     ErrorList
}

// Option configures a Lexer.
type Option func(*Lexer)

// KeepComments makes the lexer emit COMMENT tokens instead of skipping them.
func KeepComments() Option { return func(l *Lexer) { l.keepCmts = true } }

// New returns a lexer over src; file is used in positions and diagnostics.
func New(file, src string, opts ...Option) *Lexer {
	l := &Lexer{src: src, file: file, line: 1, col: 0}
	for _, o := range opts {
		o(l)
	}
	l.next()
	return l
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() ErrorList { return l.errs }

const eofByte = 0

func (l *Lexer) next() {
	if l.rdOff >= len(l.src) {
		l.off = len(l.src)
		l.ch = eofByte
		l.col++
		return
	}
	if l.ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	l.off = l.rdOff
	l.ch = l.src[l.rdOff]
	l.rdOff++
}

func (l *Lexer) peek() byte {
	if l.rdOff < len(l.src) {
		return l.src[l.rdOff]
	}
	return eofByte
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) errorf(p token.Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// Scan returns the next token. At end of input it returns EOF forever.
func (l *Lexer) Scan() token.Token {
	for {
		l.skipSpace()
		pos := l.pos()
		switch {
		case l.ch == eofByte:
			return token.Token{Kind: token.EOF, Pos: pos}
		case isLetter(l.ch):
			lit := l.scanIdent()
			kind := token.Lookup(lit)
			if kind == token.IDENT {
				return token.Token{Kind: kind, Lit: lit, Pos: pos}
			}
			return token.Token{Kind: kind, Lit: lit, Pos: pos}
		case isDigit(l.ch) || (l.ch == '.' && isDigit(l.peek())):
			kind, lit := l.scanNumber()
			return token.Token{Kind: kind, Lit: lit, Pos: pos}
		case l.ch == '\'':
			return token.Token{Kind: token.CHARLIT, Lit: l.scanChar(), Pos: pos}
		case l.ch == '"':
			return token.Token{Kind: token.STRINGLIT, Lit: l.scanString(), Pos: pos}
		case l.ch == '#':
			lit, isPragma := l.scanDirective()
			if isPragma {
				return token.Token{Kind: token.PRAGMA, Lit: lit, Pos: pos}
			}
			// Other directives should have been expanded by the
			// preprocessor; report and skip the line.
			l.errorf(pos, "unexpected preprocessor directive %q (run the preprocessor first)", firstWord(lit))
			continue
		case l.ch == '/' && (l.peek() == '/' || l.peek() == '*'):
			lit := l.scanComment()
			if l.keepCmts {
				return token.Token{Kind: token.COMMENT, Lit: lit, Pos: pos}
			}
			continue
		default:
			kind := l.scanOperator()
			if kind == token.ILLEGAL {
				ch := l.ch
				l.next()
				l.errorf(pos, "illegal character %q", string(rune(ch)))
				return token.Token{Kind: token.ILLEGAL, Lit: string(rune(ch)), Pos: pos}
			}
			return token.Token{Kind: kind, Pos: pos}
		}
	}
}

// ScanAll scans until EOF and returns all tokens including the final EOF.
func (l *Lexer) ScanAll() []token.Token {
	// Mini-C runs at 2.3 bytes per token and up, so this is one
	// allocation for ordinary sources; growing a slice of 56-byte
	// tokens step by step cost more than scanning them.
	toks := make([]token.Token, 0, (len(l.src)-l.off)/2+1)
	for {
		t := l.Scan()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) skipSpace() {
	for l.ch == ' ' || l.ch == '\t' || l.ch == '\n' || l.ch == '\r' || l.ch == '\v' || l.ch == '\f' {
		l.next()
	}
}

func (l *Lexer) scanIdent() string {
	start := l.off
	for isLetter(l.ch) || isDigit(l.ch) {
		l.next()
	}
	return l.src[start:l.off]
}

func (l *Lexer) scanNumber() (token.Kind, string) {
	start := l.off
	kind := token.INTLIT
	if l.ch == '0' && (l.peek() == 'x' || l.peek() == 'X') {
		l.next()
		l.next()
		for isHexDigit(l.ch) {
			l.next()
		}
		l.scanIntSuffix()
		return token.INTLIT, l.src[start:l.off]
	}
	for isDigit(l.ch) {
		l.next()
	}
	if l.ch == '.' {
		kind = token.FLOATLIT
		l.next()
		for isDigit(l.ch) {
			l.next()
		}
	}
	if l.ch == 'e' || l.ch == 'E' {
		if isDigit(l.peek()) || ((l.peek() == '+' || l.peek() == '-') && l.rdOff+1 < len(l.src) && isDigit(l.src[l.rdOff+1])) {
			kind = token.FLOATLIT
			l.next()
			if l.ch == '+' || l.ch == '-' {
				l.next()
			}
			for isDigit(l.ch) {
				l.next()
			}
		}
	}
	if kind == token.FLOATLIT {
		if l.ch == 'f' || l.ch == 'F' || l.ch == 'l' || l.ch == 'L' {
			l.next()
		}
	} else {
		l.scanIntSuffix()
	}
	return kind, l.src[start:l.off]
}

func (l *Lexer) scanIntSuffix() {
	for l.ch == 'u' || l.ch == 'U' || l.ch == 'l' || l.ch == 'L' {
		l.next()
	}
}

func (l *Lexer) scanChar() string {
	start := l.off
	pos := l.pos()
	l.next() // opening quote
	for l.ch != '\'' {
		if l.ch == eofByte || l.ch == '\n' {
			l.errorf(pos, "unterminated character literal")
			return l.src[start:l.off]
		}
		if l.ch == '\\' {
			l.next()
		}
		l.next()
	}
	l.next() // closing quote
	return l.src[start:l.off]
}

func (l *Lexer) scanString() string {
	start := l.off
	pos := l.pos()
	l.next() // opening quote
	for l.ch != '"' {
		if l.ch == eofByte || l.ch == '\n' {
			l.errorf(pos, "unterminated string literal")
			return l.src[start:l.off]
		}
		if l.ch == '\\' {
			l.next()
		}
		l.next()
	}
	l.next() // closing quote
	return l.src[start:l.off]
}

// scanDirective consumes a whole preprocessor line (with backslash
// continuations) and reports whether it is a #pragma.
func (l *Lexer) scanDirective() (string, bool) {
	start := l.off
	for l.ch != eofByte {
		if l.ch == '\\' && l.peek() == '\n' {
			l.next()
			l.next()
			continue
		}
		if l.ch == '\n' {
			break
		}
		l.next()
	}
	line := l.src[start:l.off]
	body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	return line, strings.HasPrefix(body, "pragma")
}

func (l *Lexer) scanComment() string {
	start := l.off
	if l.peek() == '/' {
		for l.ch != '\n' && l.ch != eofByte {
			l.next()
		}
		return l.src[start:l.off]
	}
	pos := l.pos()
	l.next() // '/'
	l.next() // '*'
	for {
		if l.ch == eofByte {
			l.errorf(pos, "unterminated block comment")
			return l.src[start:l.off]
		}
		if l.ch == '*' && l.peek() == '/' {
			l.next()
			l.next()
			return l.src[start:l.off]
		}
		l.next()
	}
}

func (l *Lexer) scanOperator() token.Kind {
	ch := l.ch
	switch ch {
	case '+':
		l.next()
		if l.ch == '+' {
			l.next()
			return token.INC
		}
		if l.ch == '=' {
			l.next()
			return token.ADDASSIGN
		}
		return token.ADD
	case '-':
		l.next()
		switch l.ch {
		case '-':
			l.next()
			return token.DEC
		case '=':
			l.next()
			return token.SUBASSIGN
		case '>':
			l.next()
			return token.ARROW
		}
		return token.SUB
	case '*':
		l.next()
		if l.ch == '=' {
			l.next()
			return token.MULASSIGN
		}
		return token.MUL
	case '/':
		l.next()
		if l.ch == '=' {
			l.next()
			return token.QUOASSIGN
		}
		return token.QUO
	case '%':
		l.next()
		if l.ch == '=' {
			l.next()
			return token.REMASSIGN
		}
		return token.REM
	case '&':
		l.next()
		if l.ch == '&' {
			l.next()
			return token.LAND
		}
		if l.ch == '=' {
			l.next()
			return token.ANDASSIGN
		}
		return token.AND
	case '|':
		l.next()
		if l.ch == '|' {
			l.next()
			return token.LOR
		}
		if l.ch == '=' {
			l.next()
			return token.ORASSIGN
		}
		return token.OR
	case '^':
		l.next()
		if l.ch == '=' {
			l.next()
			return token.XORASSIGN
		}
		return token.XOR
	case '<':
		l.next()
		if l.ch == '<' {
			l.next()
			if l.ch == '=' {
				l.next()
				return token.SHLASSIGN
			}
			return token.SHL
		}
		if l.ch == '=' {
			l.next()
			return token.LEQ
		}
		return token.LSS
	case '>':
		l.next()
		if l.ch == '>' {
			l.next()
			if l.ch == '=' {
				l.next()
				return token.SHRASSIGN
			}
			return token.SHR
		}
		if l.ch == '=' {
			l.next()
			return token.GEQ
		}
		return token.GTR
	case '=':
		l.next()
		if l.ch == '=' {
			l.next()
			return token.EQL
		}
		return token.ASSIGN
	case '!':
		l.next()
		if l.ch == '=' {
			l.next()
			return token.NEQ
		}
		return token.NOT
	case '~':
		l.next()
		return token.TILDE
	case '(':
		l.next()
		return token.LPAREN
	case ')':
		l.next()
		return token.RPAREN
	case '[':
		l.next()
		return token.LBRACK
	case ']':
		l.next()
		return token.RBRACK
	case '{':
		l.next()
		return token.LBRACE
	case '}':
		l.next()
		return token.RBRACE
	case ',':
		l.next()
		return token.COMMA
	case ';':
		l.next()
		return token.SEMI
	case ':':
		l.next()
		return token.COLON
	case '?':
		l.next()
		return token.QUESTION
	case '.':
		if l.peek() == '.' && l.rdOff+1 < len(l.src) && l.src[l.rdOff+1] == '.' {
			l.next()
			l.next()
			l.next()
			return token.ELLIPSIS
		}
		l.next()
		return token.DOT
	}
	return token.ILLEGAL
}

func firstWord(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i]
	}
	return s
}
