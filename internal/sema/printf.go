package sema

import (
	"strings"

	"purec/internal/ast"
	"purec/internal/types"
)

// FormatPiece is one piece of a printf format: literal text, or one
// conversion (Verb != 0).
type FormatPiece struct {
	Text string
	Verb byte
}

// ParseFormat splits a format into text and conversions; flags, width,
// precision and length modifiers are skipped.
func ParseFormat(format string) []FormatPiece {
	var pieces []FormatPiece
	i := 0
	for i < len(format) {
		j := strings.IndexByte(format[i:], '%')
		if j < 0 {
			pieces = append(pieces, FormatPiece{Text: format[i:]})
			break
		}
		if j > 0 {
			pieces = append(pieces, FormatPiece{Text: format[i : i+j]})
		}
		i += j + 1
		for i < len(format) && strings.IndexByte("-+ 0123456789.l", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			break
		}
		v := format[i]
		i++
		if v == '%' {
			pieces = append(pieces, FormatPiece{Text: "%"})
			continue
		}
		pieces = append(pieces, FormatPiece{Verb: v})
	}
	return pieces
}

// charPtr is the type of a %s argument.
var charPtr = types.PointerTo(types.CharType, false, false)

// printfVerbs are the conversions printf supports.
const printfVerbs = "diuxcfges"

// printf holds a printf call, its arguments checked, to its format: a
// string literal whose conversions are all supported, each with an
// argument of its kind — a pointer (the constant 0 included) for %s, a
// number for every other conversion.
func (c *checker) printf(x *ast.CallExpr) {
	if len(x.Args) == 0 {
		c.errorf(x.Pos(), "printf needs a format string")
		return
	}
	lit, ok := ast.Unparen(x.Args[0]).(*ast.StringLit)
	if !ok {
		c.errorf(x.Pos(), "printf format must be a string literal")
		return
	}
	args := len(x.Args) - 1
	for _, pc := range ParseFormat(lit.Value) {
		switch {
		case pc.Verb == 0:
		case args == 0:
			c.errorf(x.Pos(), "printf: not enough arguments for format %q", lit.Value)
			return
		case strings.IndexByte(printfVerbs, pc.Verb) < 0:
			c.errorf(x.Pos(), "printf: unsupported verb %%%c", pc.Verb)
			return
		default:
			a := x.Args[len(x.Args)-args]
			switch t := a.Checked(); {
			case pc.Verb == 's' && !t.IsPtr() && !assignable(charPtr, t, a):
				c.errorf(a.Pos(), "printf: %%s takes a pointer, got %s", t)
			case pc.Verb != 's' && !t.IsArith():
				c.errorf(a.Pos(), "printf: %%%c takes a number, got %s", pc.Verb, t)
			}
			args--
		}
	}
}
