package core

import (
	"fmt"
	"sync"
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/rt"
	"purec/internal/transform"
)

// tapeWorkloads are the kernel workloads plus the non-canonical branchy
// body, the one workload whose every iteration runs on the statement
// engine, sized down for tests.
func tapeWorkloads() []struct {
	name string
	src  string
	defs map[string]string
	out  string
	n    int
	cfg  Config
} {
	ws := kernelWorkloads()
	ws = append(ws, struct {
		name string
		src  string
		defs map[string]string
		out  string
		n    int
		cfg  Config
	}{"noncanon", apps.NoncanonSrc, apps.KernDefines(512, 2), "y", 512, Config{Parallelize: true}})
	return ws
}

// TestTapeEngineOracle12Processes is the tape-backend equivalence
// proof: every tape workload runs on 12 concurrent Processes (mixed
// real and simulated teams, all loop schedules) of tape-engine
// Programs, and every output must be bit-identical to the sequential
// interp oracle. Run under -race in
// CI: tape workers clone the environment slice headers but share the
// constant pools and instruction array read-only.
func TestTapeEngineOracle12Processes(t *testing.T) {
	teamSizes := []int{1, 2, 3, 5, 8, 16}
	schedules := []string{"", "static,5", "dynamic,1", "guided,2"}
	for _, w := range tapeWorkloads() {
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

			var wg sync.WaitGroup
			errs := make(chan error, len(schedules)*3)
			for si, sched := range schedules {
				cfg := withDefs(w.cfg, w.defs)
				cfg.Engine = comp.EngineTape
				cfg.Transform = transform.Options{Schedule: sched}
				prog, _, _, err := BuildProgram(w.src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// 3 processes per schedule: 12 concurrent processes.
				for p := 0; p < 3; p++ {
					idx := si*3 + p
					team := rt.NewTeam(teamSizes[idx%len(teamSizes)])
					if idx%2 == 1 {
						team = rt.NewSimTeam(teamSizes[idx%len(teamSizes)])
					}
					wg.Add(1)
					go func(prog *comp.Program, team *rt.Team, sched string) {
						defer wg.Done()
						proc, err := prog.NewProcess(comp.ProcOptions{Team: team})
						if err != nil {
							errs <- err
							return
						}
						if _, err := proc.RunMain(); err != nil {
							errs <- fmt.Errorf("sched=%q: %v", sched, err)
							return
						}
						p, err := proc.GlobalPtr(w.out)
						if err != nil {
							errs <- err
							return
						}
						if got := snapshotVec(p, w.out, w.n); got != want {
							errs <- fmt.Errorf("sched=%q team=%d sim=%v: output differs from oracle",
								sched, team.Size(), team.Simulated())
						}
					}(prog, team, sched)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestTapeEngineTrapParity pins the trap side of the engine contract:
// faulty programs must fail as runtime errors on the tape engine
// exactly as they do on the closure engine and in the interp oracle —
// same fault, never a silent wrong answer. The loop bodies are doubly
// braced, a form the matcher rejects, so the statement engines
// themselves run them.
func TestTapeEngineTrapParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"oob-store", `
float *y;
int main(void) {
    y = (float*)malloc(8 * sizeof(float));
    for (int i = 0; i <= 8; i++) {
        { y[i] = 1.0f; }
    }
    return 0;
}
`},
		{"div-zero", `
int d;
int main(void) {
    d = 0;
    int s = 0;
    for (int i = 0; i < 4; i++) {
        { s = s + i / d; }
    }
    return s;
}
`},
		{"rem-zero", `
int d;
int main(void) {
    d = 0;
    return 7 % d;
}
`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, eng := range []comp.Engine{comp.EngineClosure, comp.EngineTape} {
				res, err := Build(tc.src, Config{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				if res.Program.FusedKernels() != 0 {
					t.Fatalf("engine=%v: the loop fused", eng)
				}
				if _, err := res.Machine.RunMain(); err == nil {
					t.Fatalf("engine=%v: faulty program must trap", eng)
				} else if _, isRT := err.(*comp.RuntimeError); !isRT {
					t.Fatalf("engine=%v: want RuntimeError, got %T %v", eng, err, err)
				}
			}
			// The oracle agrees the program is faulty.
			art, err := Front(tc.src, Config{})
			if err != nil {
				t.Fatal(err)
			}
			in, err := interp.New(art.Info, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.RunMain(); err == nil {
				t.Fatal("interp oracle must also trap")
			}
		})
	}
}
