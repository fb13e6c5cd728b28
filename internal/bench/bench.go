// Package bench regenerates the paper's evaluation (Figs. 3–11): it
// builds every program variant through the compiler chain, sweeps the
// worker count over the paper's core axis (1,2,4,...,64), measures
// repeated runs and renders time and speedup tables shaped like the
// paper's figures.
//
// Absolute numbers differ from the paper (the backend is an execution
// model, not a native compiler on a 64-core Opteron); the comparisons the
// figures make — who wins, how curves scale, where they cross — are the
// reproduction target (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/rt"
)

// Params hold the workload sizes and measurement setup.
type Params struct {
	MatmulN   int
	HeatN     int
	HeatSteps int
	SatPix    int
	SatBands  int
	SatIters  int
	LamaRows  int
	LamaNNZ   int
	// MemoClasses is the distinct-argument count of the memoization
	// scenario (quantized satellite retrieval): SatPix pixels collapse
	// onto MemoClasses pure-call keys.
	MemoClasses int
	// ReduceN is the iteration/vector length of the reduction scenario
	// (Fig. R1: quickstart sum and extracted dot kernels).
	ReduceN int
	// KernN and KernReps size the Fig K1 element-wise kernels (axpy,
	// copy, 1-D stencil): vector length and sweep count per run.
	KernN    int
	KernReps int
	// HistN is the element count of the array-reduction scenario
	// (Fig A1: bin-count over a data array) and HistBins the bin
	// counts it sweeps — the private-copy allocation and the
	// worker-ordered combine both scale with the bin count, so the
	// sweep exposes where combine overhead eats the parallel speedup.
	HistN    int
	HistBins []int
	// RealCores is the core axis of the real-team (non-simulated)
	// scaling points: actual goroutine teams timed in wall clock, so
	// the list stays small and within a laptop's physical cores.
	RealCores []int
	// BCEN and BCEReps size the launch-visibility rows of Fig B1: a
	// tiny vector swept many times, so the per-launch range checks the
	// bounds proofs elide are a measurable share of each run.
	BCEN    int
	BCEReps int
	// GatherM is the gathered-table length of the Fig B1 gather
	// y[i] = x[idx[i]] (the output length and sweep count reuse
	// KernN/KernReps).
	GatherM int
	// S1Runs, S1Clients, S1Sizes and S1Reps shape the Fig S1 serving
	// scenario: S1Runs executions per measured point, spread over each
	// client count of S1Clients, of the axpy kernel at each vector
	// length of S1Sizes (S1Reps sweeps per run). Wall-clock real
	// concurrency, not simulated time.
	S1Runs    int
	S1Clients []int
	S1Sizes   []int
	S1Reps    int
	Cores     []int
	Reps      int
}

// Default returns laptop-scaled parameters preserving the paper's
// workload shapes (the paper used N=4096 matrices, a 4096² plate with
// 200 steps, a MODIS granule and the 217k-row pwtk matrix on a 64-core
// node).
func Default() Params {
	return Params{
		MatmulN:     160,
		HeatN:       160,
		HeatSteps:   30,
		SatPix:      2000,
		SatBands:    12,
		SatIters:    48,
		LamaRows:    12000,
		LamaNNZ:     16,
		MemoClasses: 24,
		ReduceN:     400000,
		KernN:       65536,
		KernReps:    50,
		HistN:       400000,
		HistBins:    []int{16, 256, 4096, 65536},
		RealCores:   []int{1, 2, 4},
		BCEN:        96,
		BCEReps:     20000,
		GatherM:     2048,
		S1Runs:      60,
		S1Clients:   []int{1, 2, 4, 8},
		S1Sizes:     []int{1024, 8192, 65536},
		S1Reps:      2,
		Cores:       []int{1, 2, 4, 8, 16, 32, 64},
		Reps:        3,
	}
}

// Quick returns tiny parameters for tests.
func Quick() Params {
	return Params{
		MatmulN:     24,
		HeatN:       24,
		HeatSteps:   4,
		SatPix:      80,
		SatBands:    6,
		SatIters:    12,
		LamaRows:    200,
		LamaNNZ:     6,
		MemoClasses: 8,
		ReduceN:     200000, // the sum is a fused kernel: fewer iterations time only the region launch
		KernN:       2048,
		KernReps:    3,
		HistN:       20000,
		HistBins:    []int{8, 64},
		RealCores:   []int{1, 2},
		BCEN:        32,
		BCEReps:     200,
		GatherM:     256,
		S1Runs:      120,
		S1Clients:   []int{1, 2},
		S1Sizes:     []int{256, 2048, 8192},
		S1Reps:      2,
		Cores:       []int{1, 2, 4},
		Reps:        1,
	}
}

// Series is one curve of a figure: seconds per core count. Real marks
// curves measured on real goroutine teams in wall clock rather than on
// simulated teams; the JSON export carries the distinction through.
type Series struct {
	Name  string
	Times map[int]float64
	Real  bool
}

// Figure is one regenerated paper figure.
type Figure struct {
	ID       string
	Title    string
	Kind     string // "time" or "speedup"
	Cores    []int
	Series   []Series
	Baseline float64 // sequential reference seconds (0 if none)
	BaseName string
	Notes    []string
}

// Render formats the figure as an aligned text table.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	if f.Baseline > 0 {
		fmt.Fprintf(&b, "sequential baseline (%s): %.4f s\n", f.BaseName, f.Baseline)
	}
	unit := "seconds"
	if f.Kind == "speedup" {
		unit = "speedup vs sequential"
	}
	fmt.Fprintf(&b, "[%s]\n", unit)
	// header
	fmt.Fprintf(&b, "%-26s", "cores")
	for _, c := range f.Cores {
		fmt.Fprintf(&b, "%10d", c)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-26s", s.Name)
		for _, c := range f.Cores {
			v, ok := s.Times[c]
			if !ok {
				fmt.Fprintf(&b, "%10s", "-")
				continue
			}
			if f.Kind == "speedup" {
				fmt.Fprintf(&b, "%10.2f", v)
			} else {
				fmt.Fprintf(&b, "%10.4f", v)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Speedup derives a speedup figure from a time figure.
func (f *Figure) Speedup(id, title string) *Figure {
	out := &Figure{ID: id, Title: title, Kind: "speedup", Cores: f.Cores,
		Baseline: f.Baseline, BaseName: f.BaseName}
	for _, s := range f.Series {
		ns := Series{Name: s.Name, Times: map[int]float64{}}
		for c, t := range s.Times {
			if t > 0 && f.Baseline > 0 {
				ns.Times[c] = f.Baseline / t
			}
		}
		out.Series = append(out.Series, ns)
	}
	return out
}

// variant describes one measured configuration.
type variant struct {
	name string
	src  string
	defs map[string]string
	cfg  core.Config
	// init and entry split the program into an untimed setup call and a
	// timed compute call (the paper times only the kernel for the
	// satellite and LAMA codes). Empty means: time main() entirely.
	init  string
	entry string
	// native, when set, replaces the machine run (the MKL comparator).
	native func(team *rt.Team)
	// real runs on real goroutine teams (rt.NewTeam) timed in wall
	// clock instead of simulated teams; sim accounting is zero there,
	// so timeIt's adjustment is a no-op and the raw wall time reports.
	real bool
}

// measure builds the variant once — through the content-addressed
// program cache, so repeated figure collections share the compile — and
// times it across core counts on simulated teams: chunks execute
// sequentially and deterministically; the reported time is wall time
// with each parallel region's real duration replaced by its simulated
// parallel duration (DESIGN.md, substitution for the paper's 64-core
// node). Each core count runs in its own Process of the shared Program.
// Variants with real set run on real goroutine teams instead: the sim
// adjustment is zero there, so the raw wall time reports.
func measure(v variant, cores []int, reps int) (Series, error) {
	s := Series{Name: v.name, Times: map[int]float64{}, Real: v.real}
	newTeam := rt.NewSimTeam
	if v.real {
		newTeam = rt.NewTeam
	}
	if v.native != nil {
		for _, c := range cores {
			team := newTeam(c)
			secs, err := timeIt(reps, team, func() error {
				v.native(team)
				return nil
			})
			if err != nil {
				return s, err
			}
			s.Times[c] = secs
		}
		return s, nil
	}
	cfg := v.cfg
	cfg.Defines = v.defs
	prog, _, _, err := core.BuildProgram(v.src, cfg)
	if err != nil {
		return s, fmt.Errorf("%s: %v", v.name, err)
	}
	for _, c := range cores {
		team := newTeam(c)
		proc, err := prog.NewProcess(comp.ProcOptions{Team: team, Stdout: io.Discard})
		if err != nil {
			return s, fmt.Errorf("%s @%d cores: %v", v.name, c, err)
		}
		var secs float64
		if v.entry == "" {
			secs, err = timeIt(reps, team, func() error {
				if err := proc.ResetGlobals(); err != nil {
					return err
				}
				_, err := proc.RunMain()
				return err
			})
		} else {
			secs, err = timeItPrepared(reps, team, func() error {
				if err := proc.ResetGlobals(); err != nil {
					return err
				}
				if v.init != "" {
					if _, err := proc.CallInt(v.init); err != nil {
						return err
					}
				}
				return nil
			}, func() error {
				_, err := proc.CallInt(v.entry)
				return err
			})
		}
		if err != nil {
			return s, fmt.Errorf("%s @%d cores: %v", v.name, c, err)
		}
		s.Times[c] = secs
	}
	return s, nil
}

// measureSeq times a sequential (non-parallelized) build once.
func measureSeq(v variant, reps int) (float64, error) {
	s, err := measure(v, []int{1}, reps)
	if err != nil {
		return 0, err
	}
	return s.Times[1], nil
}

// timeIt returns the best (minimum) adjusted time of reps runs: wall
// time minus the real duration of simulated regions plus their
// simulated duration. The minimum rejects scheduler and GC noise —
// a slow outlier rep says nothing about the code under test — which
// keeps the figure ratios and the CI baseline check stable.
func timeIt(reps int, team *rt.Team, f func() error) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	var best time.Duration
	if team != nil {
		team.TakeSim() // drop stale accounting
	}
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		wall := time.Since(start)
		if team != nil {
			real, virt := team.TakeSim()
			wall = wall - real + virt
		}
		if i == 0 || wall < best {
			best = wall
		}
	}
	return best.Seconds(), nil
}

// timeItPrepared runs prep untimed before each timed run; like timeIt
// it reports the best (minimum) rep.
func timeItPrepared(reps int, team *rt.Team, prep, f func() error) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	var best time.Duration
	for i := 0; i < reps; i++ {
		if err := prep(); err != nil {
			return 0, err
		}
		if team != nil {
			team.TakeSim() // discard accounting from the setup phase
		}
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		wall := time.Since(start)
		if team != nil {
			real, virt := team.TakeSim()
			wall = wall - real + virt
		}
		if i == 0 || wall < best {
			best = wall
		}
	}
	return best.Seconds(), nil
}

func sortedCores(cs []int) []int {
	out := append([]int{}, cs...)
	sort.Ints(out)
	return out
}
