package comp

import (
	"fmt"
	"strings"
)

// TapeDump renders every tape of p word for word, in compile order,
// then the program's pooled constants (floats as exact hex), so tests
// outside the package can compare two builds.
func TapeDump(p *Program) string {
	var b strings.Builder
	for i, tp := range p.tapes {
		fmt.Fprintf(&b, "tape %d: %v\n", i, tp.code)
	}
	if len(p.tapes) > 0 {
		fmt.Fprintf(&b, "constI %v\nconstF %x\n", p.tapes[0].constI, p.tapes[0].constF)
	}
	return b.String()
}

// LoopLengths returns the instructions one iteration of each loop of
// function fn in p dispatches: first every nested tape fn compiled (the
// body of a parallel or fused loop, run once per iteration; nested
// tapes finish before the tape that launches them), then each backward
// jump of fn's own tape in pc order, from its target through the jump.
func LoopLengths(p *Program, fn string) []int {
	own := p.funcs[fn].tape
	mains := map[*tape]bool{}
	for _, cf := range p.funcs {
		mains[cf.tape] = true
	}
	var n []int
	for _, tp := range p.tapes {
		if tp == own {
			break
		}
		if n = append(n, len(tp.code)); mains[tp] {
			n = n[:0]
		}
	}
	for _, in := range own.code {
		jump := in.op == tJmp || in.op == tJz || in.op == tJnz || in.op >= tJeqI && in.op <= tIncJltI
		if jump && in.a < 0 {
			n = append(n, 1-int(in.a))
		}
	}
	return n
}
