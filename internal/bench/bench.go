// Package bench regenerates the paper's evaluation (Figs. 3–11): it
// builds every program variant through the compiler chain, sweeps the
// worker count over the paper's core axis (1,2,4,...,64), measures
// repeated runs and renders time and speedup tables shaped like the
// paper's figures.
//
// Absolute numbers differ from the paper (the backend is an execution
// model, not a native compiler on a 64-core Opteron); the comparisons the
// figures make — who wins, how curves scale, where they cross — are the
// reproduction target (see ARCHITECTURE.md, "Applications and
// measurement").
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
	Cores       []int
	Reps        int
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
		Cores:       []int{1, 2, 4},
		Reps:        1,
	}
}

// Series is one curve of a figure: seconds per core count.
type Series struct {
	Name  string
	Times map[int]float64
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
}

// measure builds the variant once — through the content-addressed
// program cache, so repeated figure collections share the compile — and
// times it across core counts on simulated teams: chunks execute
// sequentially and deterministically; the reported time is wall time
// with each parallel region's real duration replaced by its simulated
// parallel duration (ARCHITECTURE.md, "Applications and measurement":
// the substitution for the paper's 64-core node). Each core count runs
// in its own Process of the shared Program.
func measure(v variant, cores []int, reps int) (Series, error) {
	s := Series{Name: v.name, Times: map[int]float64{}}
	if v.native != nil {
		for _, c := range cores {
			team := rt.NewSimTeam(c)
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
		team := rt.NewSimTeam(c)
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
// keeps the figure ratios stable.
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
