package comp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"purec/internal/interp"
	"purec/internal/parser"
	"purec/internal/rt"
	"purec/internal/sema"
)

// compileProgram builds an immutable Program from source.
func compileProgram(t *testing.T, src string, opts Options) *Program {
	t.Helper()
	prog, err := CompileProgram(mustCheck(t, src), opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// TestConcurrentProcesses is the concurrency contract of the
// Program/Process split: one compiled Program runs in many concurrent
// Processes (with different team sizes) and every result must match the
// sequential internal/interp oracle. Run under -race this also verifies
// the Program carries no mutable run state.
func TestConcurrentProcesses(t *testing.T) {
	f, err := parser.Parse("t.c", parallelMatmul)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	prog, err := CompileProgram(info, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	// Oracle: the tree-walking interpreter on the same checked program.
	in, err := interp.New(info, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	want, err := in.RunMain()
	if err != nil {
		t.Fatalf("interp run: %v", err)
	}
	oraclePtr, err := in.GlobalPtr("C")
	if err != nil {
		t.Fatalf("interp global C: %v", err)
	}

	const procs = 12
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out bytes.Buffer
			proc, err := prog.NewProcess(ProcOptions{
				Team:   rt.NewTeam(1 + i%4),
				Stdout: &out,
			})
			if err != nil {
				errs <- fmt.Errorf("process %d: %v", i, err)
				return
			}
			got, err := proc.RunMain()
			if err != nil {
				errs <- fmt.Errorf("process %d: run: %v", i, err)
				return
			}
			if got != want {
				errs <- fmt.Errorf("process %d: returned %d, oracle %d", i, got, want)
				return
			}
			// Every element of the result matrix must match the oracle.
			cPtr, err := proc.GlobalPtr("C")
			if err != nil {
				errs <- fmt.Errorf("process %d: global C: %v", i, err)
				return
			}
			n, err := proc.GlobalInt("n")
			if err != nil {
				errs <- fmt.Errorf("process %d: global n: %v", i, err)
				return
			}
			for r := int64(0); r < n; r++ {
				gotRow := cPtr.Add(r).LoadPtr()
				wantRow := oraclePtr.Add(r).LoadPtr()
				for c := int64(0); c < n; c++ {
					gv := gotRow.Add(c).LoadFloat()
					wv := wantRow.Add(c).LoadFloat()
					if gv != wv {
						errs <- fmt.Errorf("process %d: C[%d][%d] = %v, oracle %v", i, r, c, gv, wv)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestProcessIsolation verifies that all run state (globals, heap, rand,
// stdout) is per-Process: a run in one Process must not leak into a
// sibling Process of the same Program.
func TestProcessIsolation(t *testing.T) {
	src := `
int counter;
int main(void) {
    srand(7);
    counter = counter + rand() % 100 + 1;
    int* p = (int*)malloc(4 * sizeof(int));
    p[0] = counter;
    int v = p[0];
    free(p);
    printf("v=%d\n", v);
    return v;
}
`
	prog := compileProgram(t, src, Options{})

	var out1 bytes.Buffer
	p1, err := prog.NewProcess(ProcOptions{Stdout: &out1})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := p1.GlobalInt("counter")
	if err != nil {
		t.Fatal(err)
	}
	if c1 == 0 {
		t.Fatal("first run left counter at 0")
	}
	if h := p1.Heap(); h.Allocs != 1 || h.Frees != 1 {
		t.Fatalf("heap stats = %+v, want 1 alloc / 1 free", h)
	}

	// A sibling Process starts from the pristine initial state.
	var out2 bytes.Buffer
	p2, err := prog.NewProcess(ProcOptions{Stdout: &out2})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p2.GlobalInt("counter")
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 0 {
		t.Fatalf("fresh process sees counter = %d, want 0", c2)
	}
	r2, err := p2.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("deterministic program returned %d then %d", r1, r2)
	}
	if out1.String() != out2.String() || out1.Len() == 0 {
		t.Fatalf("stdout differs between processes: %q vs %q", out1.String(), out2.String())
	}
	if h := p2.Heap(); h.Allocs != 1 || h.Frees != 1 {
		t.Fatalf("second process heap stats = %+v, want 1 alloc / 1 free", h)
	}
}
