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
