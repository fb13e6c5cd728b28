package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/mem"
	"purec/internal/rt"
)

// kernelWorkloads are the kernel workloads of internal/apps, sized
// down for tests.
func kernelWorkloads() []struct {
	name string
	src  string
	defs map[string]string
	out  string
	n    int
	cfg  Config
} {
	kd := apps.KernDefines(512, 2)
	return []struct {
		name string
		src  string
		defs map[string]string
		out  string
		n    int
		cfg  Config
	}{
		{"axpy", apps.AxpySrc, kd, "y", 512, Config{Parallelize: true}},
		{"copy", apps.CopySrc, kd, "y", 512, Config{Parallelize: true}},
		{"stencil", apps.StencilSrc, kd, "y", 512, Config{Parallelize: true}},
		{"matmul", apps.MatmulKernSrc, apps.MatmulDefines(20), "C", 20 * 20,
			Config{Parallelize: true, Backend: comp.BackendICC}},
	}
}

// snapshotVec renders the bit pattern of a float vector global. For
// matmul (float**) it walks the row pointers.
func snapshotVec(p mem.Pointer, name string, n int) string {
	var b strings.Builder
	if name == "C" {
		rows := int(math.Sqrt(float64(n)))
		for i := 0; i < rows; i++ {
			row := p.Add(int64(i)).LoadPtr()
			for j := 0; j < rows; j++ {
				fmt.Fprintf(&b, "%x,", math.Float64bits(row.Add(int64(j)).LoadFloat()))
			}
		}
		return b.String()
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%x,", math.Float64bits(p.Add(int64(i)).LoadFloat()))
	}
	return b.String()
}

// TestKernelFusionOracle12Processes is the fused-kernel equivalence
// proof: every kernel workload runs on 12 concurrent Processes (mixed
// real and simulated teams) of its fused Program, and every output must
// be bit-identical to the sequential interp oracle. Run under -race in CI: fused parallel workers share
// the parent environment read-only and write disjoint chunk slices.
func TestKernelFusionOracle12Processes(t *testing.T) {
	teamSizes := []int{1, 2, 3, 5, 8, 16}
	for _, w := range kernelWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			// Sequential interp oracle.
			first, err := Build(w.src, withDefs(w.cfg, w.defs))
			if err != nil {
				t.Fatal(err)
			}
			in, err := interp.New(first.Info, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.RunMain(); err != nil {
				t.Fatal(err)
			}
			op, err := in.GlobalPtr(w.out)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotVec(op, w.out, w.n)

			const procs = 12
			var wg sync.WaitGroup
			errs := make(chan error, procs)
			prog := first.Program
			if prog.FusedKernels() == 0 {
				t.Fatalf("%s: build reports zero fused kernels", w.name)
			}
			for p := 0; p < procs; p++ {
				team := rt.NewTeam(teamSizes[p%len(teamSizes)])
				if p%2 == 1 {
					team = rt.NewSimTeam(teamSizes[p%len(teamSizes)])
				}
				wg.Add(1)
				go func(team *rt.Team) {
					defer wg.Done()
					proc, err := prog.NewProcess(comp.ProcOptions{Team: team})
					if err != nil {
						errs <- err
						return
					}
					if _, err := proc.RunMain(); err != nil {
						errs <- err
						return
					}
					p, err := proc.GlobalPtr(w.out)
					if err != nil {
						errs <- err
						return
					}
					if got := snapshotVec(p, w.out, w.n); got != want {
						errs <- fmt.Errorf("team=%d sim=%v: output differs from oracle",
							team.Size(), team.Simulated())
					}
				}(team)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func withDefs(cfg Config, defs map[string]string) Config {
	cfg.Defines = defs
	return cfg
}

// TestKernelFusionOutOfBoundsEdgeTraps pins the hoisted-range-check
// contract on the trap side: a stencil whose edge iteration reads one
// cell past the array must fail as a runtime error in the fused build
// and in the interp oracle — never silently read a neighboring
// allocation.
func TestKernelFusionOutOfBoundsEdgeTraps(t *testing.T) {
	src := `
float *x, *y;
void initvec(void) {
    x = (float*)malloc(N * sizeof(float));
    y = (float*)malloc(N * sizeof(float));
    for (int i = 0; i < N; i++)
        x[i] = 1.0f;
}
int main(void) {
    initvec();
    /* i runs to N-1 inclusive: x[i+1] reads x[N] on the last edge */
    for (int i = 1; i < N; i++)
        y[i] = 0.5f * (x[i - 1] + x[i + 1]);
    return 0;
}
`
	defs := map[string]string{"N": "64"}
	res, err := Build(src, Config{Defines: defs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.FusedKernels() == 0 {
		t.Fatal("the stencil loop did not fuse")
	}
	if _, err := res.Machine.RunMain(); err == nil {
		t.Fatal("out-of-bounds stencil edge must trap")
	} else if _, isRT := err.(*comp.RuntimeError); !isRT {
		t.Fatalf("want RuntimeError, got %T %v", err, err)
	}
	// The oracle agrees the program is faulty.
	art, err := Front(src, Config{Defines: defs})
	if err != nil {
		t.Fatal(err)
	}
	in, err := interp.New(art.Info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.RunMain(); err == nil {
		t.Fatal("interp oracle must also trap the out-of-bounds edge")
	}
}
