package comp

import (
	"fmt"
	"reflect"
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

// DropKernels clears the kernel of every launch of p and zeroes its
// fused-loop count, so each fused loop runs the dispatch body it
// carries for where a kernel stops: a test reads or times a loop's
// dispatch with no build option.
func DropKernels(p *Program) {
	if len(p.tapes) > 0 {
		for i := range p.tapes[0].launches {
			p.tapes[0].launches[i].k = nil
		}
	}
	p.fusedKernels = 0
}

// KernelDump renders every fused kernel of p in launch order: its sink,
// element kind and rounding, the strides of its loads (g marks a
// gathered load's index walk), a gather's clamp, the scatter operator,
// the invariant count and the lowered strip program with its columns.
func KernelDump(p *Program) string {
	if len(p.tapes) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range p.tapes[0].launches {
		k := l.k
		if k == nil {
			continue
		}
		fmt.Fprintf(&b, "sink=%d float=%v f32=%v loads=[", k.sink, k.float, k.f32)
		for i, ld := range k.loads {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", ld.stride)
			if !ld.float {
				b.WriteByte('i')
			}
		}
		fmt.Fprintf(&b, "]")
		if k.sink == sinkStore {
			fmt.Fprintf(&b, " store=%d", k.store.stride)
		}
		if k.sink == sinkScatter {
			fmt.Fprintf(&b, " op=%v", k.op)
		}
		if k.sink == sinkScatter || k.hasGather() {
			fmt.Fprintf(&b, " gat={%d %d %v}", k.gat.lo, k.gat.hi, k.gat.float)
		}
		fmt.Fprintf(&b, " invs=%d regs=%d res=%v res2=%v mul=%v round=%v prog=%v\n",
			len(k.invs), k.regs, k.res, k.res2, k.mul, k.round, k.prog)
	}
	return b.String()
}

// hasGather reports whether k's program reads a gathered load.
func (k *fusedKernel) hasGather() bool {
	for _, op := range k.prog {
		if op.code == opGather {
			return true
		}
	}
	return false
}

// FuncValues walks everything p's tapes reach — code, pools, call,
// printf and malloc sites, launch records, kernels and reduction
// clauses — except the syntax tree and checked model the Program keeps
// (packages ast and sema). It returns the path of every non-nil func
// value it finds and the names of the types it visited.
func FuncValues(p *Program) (funcs []string, visited map[string]bool) {
	visited = map[string]bool{}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		t := v.Type()
		if pkg := t.PkgPath(); pkg == "purec/internal/ast" || pkg == "purec/internal/sema" {
			return
		}
		visited[t.String()] = true
		switch v.Kind() {
		case reflect.Func:
			if !v.IsNil() {
				funcs = append(funcs, path)
			}
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem(), path)
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+t.Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key(), path+"{key}")
				walk(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))
			}
		}
	}
	for i, tp := range p.tapes {
		walk(reflect.ValueOf(tp), fmt.Sprintf("tape %d", i))
	}
	return funcs, visited
}

// String renders a strip op as {code dst a b}, adding c only for a
// select, so the ops of testdata/kernels.golden that have no third
// operand keep their text.
func (op stripOp) String() string {
	if op.code == opSel {
		return fmt.Sprintf("{%d %d %v %v %v}", op.code, op.dst, op.a, op.b, op.c)
	}
	return fmt.Sprintf("{%d %d %v %v}", op.code, op.dst, op.a, op.b)
}

// KernelsIn counts the fused loops function fn of p launches from its
// own tape.
func KernelsIn(p *Program, fn string) int {
	n := 0
	for _, in := range p.funcs[fn].tape.code {
		if in.op == tStmt && p.tapes[0].launches[in.b].k != nil {
			n++
		}
	}
	return n
}
