package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"purec/internal/comp"
	"purec/internal/interp"
	"purec/internal/mem"
	"purec/internal/rt"
	"purec/internal/sema"
	"purec/internal/types"
)

// globalReader reads the globals of a finished run. comp.Process
// implements it; interpGlobals adapts the interp oracle.
type globalReader interface {
	GlobalInt(name string) (int64, error)
	GlobalFloat(name string) (float64, error)
	GlobalPtr(name string) (mem.Pointer, error)
}

type interpGlobals struct{ *interp.Interp }

func (g interpGlobals) GlobalInt(name string) (int64, error) {
	v, err := g.GlobalValue(name)
	return v.AsInt(), err
}

func (g interpGlobals) GlobalFloat(name string) (float64, error) {
	v, err := g.GlobalValue(name)
	return v.AsFloat(), err
}

// observe renders the observable state a finished run leaves behind:
// its return value, trap text and stdout, every global in declaration
// order (floats as bits), and every segment reachable from a global,
// once each in discovery order, as its kind, length, freed flag and
// cells. A pointer is written as segment id + offset, so two runs
// render alike exactly when their heaps are isomorphic.
func observe(info *sema.Info, g globalReader, ret int64, trap, stdout string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ret=%d trap=%q stdout=%q\n", ret, trap, stdout)
	ids := map[*mem.Segment]int{}
	var segs []*mem.Segment
	ptr := func(p mem.Pointer) string {
		if p.IsNull() {
			return "null"
		}
		id, ok := ids[p.Seg]
		if !ok {
			id = len(segs)
			ids[p.Seg] = id
			segs = append(segs, p.Seg)
		}
		return fmt.Sprintf("s%d+%d", id, p.Off)
	}
	for _, sym := range info.Globals {
		var v any
		var err error
		switch {
		case !sym.IsArray() && sym.Type.Kind == types.Int:
			v, err = g.GlobalInt(sym.Name)
		case !sym.IsArray() && sym.Type.Kind == types.Float:
			var f float64
			f, err = g.GlobalFloat(sym.Name)
			v = fmt.Sprintf("%#x", math.Float64bits(f))
		default:
			var p mem.Pointer
			p, err = g.GlobalPtr(sym.Name)
			v = ptr(p)
		}
		if err != nil {
			v = err
		}
		fmt.Fprintf(&b, "%s=%v\n", sym.Name, v)
	}
	for i := 0; i < len(segs); i++ { // segs grows as pointer cells reach new segments
		s := segs[i]
		fmt.Fprintf(&b, "s%d %s len=%d freed=%v:", i, s.Kind, s.Len(), s.Freed())
		for _, v := range s.I {
			fmt.Fprintf(&b, " %d", v)
		}
		for _, v := range s.F {
			fmt.Fprintf(&b, " %#x", math.Float64bits(v))
		}
		for _, p := range s.P {
			b.WriteString(" " + ptr(p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// observeInterp runs main on the interp oracle and observes the result.
func observeInterp(t *testing.T, art *Artifact) string {
	t.Helper()
	var out strings.Builder
	in, err := interp.New(art.Info, &out)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := in.RunMain()
	trap := ""
	if err != nil {
		trap = strings.TrimPrefix(err.Error(), "interp ")
	}
	return observe(art.Info, interpGlobals{in}, ret, trap, out.String())
}

// observeRun runs main on proc and observes the result.
func observeRun(info *sema.Info, proc *comp.Process) string {
	var out strings.Builder
	proc.SetStdout(&out)
	ret, err := proc.RunMain()
	trap := ""
	if err != nil {
		trap = err.Error()
	}
	return observe(info, proc, ret, trap, out.String())
}

// oracleRow is one program of the oracle matrix. The matrix builds it
// from base under every backend and schedule, so a row sets neither.
type oracleRow struct {
	name    string
	src     string
	defines map[string]string
	base    Config
	// check, when set, runs once per build on the test goroutine.
	check func(t *testing.T, b oracleBuild)
}

// oracleBuild is one configuration of a row, compiled.
type oracleBuild struct {
	cfg  Config
	prog *comp.Program
	art  *Artifact
}

func (b oracleBuild) String() string {
	return fmt.Sprintf("%v NoAlias=%v sched=%q", b.cfg.Backend, b.cfg.NoAlias, b.cfg.Transform.Schedule)
}

var (
	matrixSchedules = []string{"", "static,3", "static,5", "dynamic,1", "guided,2"}
	matrixTeams     = []int{1, 2, 3, 5, 8, 16}
)

// runOracleMatrix is the equivalence proof of the parallelizing chain:
// each row's untransformed source runs once on the interp oracle, then
// every build of the row — both backends × every schedule, and with
// noAlias also with the points-to analysis off — runs on teams of every
// size in matrixTeams, real and simulated alternating with a phase that
// shifts per build so every size runs both ways, all processes of a row
// at once. The oracle must run clean, and every run must leave exactly
// its observable state. A row without Parallelize has nothing for the
// schedule and team axes to vary, so it builds only the default
// schedule and runs each build once, on a team of one. Run under -race in CI: the workers of each team, and the
// processes sharing one Program, must not race.
func runOracleMatrix(t *testing.T, noAlias bool, rows []oracleRow) {
	aliasAxis := []bool{false}
	if noAlias {
		aliasAxis = append(aliasAxis, true)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			art, err := Front(row.src, Config{Defines: row.defines})
			if err != nil {
				t.Fatal(err)
			}
			want := observeInterp(t, art)
			if !strings.Contains(want, `trap=""`) {
				t.Fatalf("oracle trapped: %s", strings.SplitN(want, "\n", 2)[0])
			}
			schedules, teams := matrixSchedules, matrixTeams
			if !row.base.Parallelize {
				schedules, teams = []string{""}, []int{1}
			}
			var builds []oracleBuild
			for _, backend := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
				for _, na := range aliasAxis {
					for _, sched := range schedules {
						cfg := row.base
						cfg.Defines, cfg.Backend, cfg.NoAlias = row.defines, backend, na
						cfg.Transform.Schedule = sched
						b := oracleBuild{cfg: cfg}
						if b.prog, b.art, _, err = BuildProgram(row.src, cfg); err != nil {
							t.Fatalf("%v: %v", b, err)
						}
						if row.check != nil {
							row.check(t, b)
						}
						builds = append(builds, b)
					}
				}
			}
			var wg sync.WaitGroup
			for i, b := range builds {
				for k, size := range teams {
					team := rt.NewTeam(size)
					if (i+k)%2 == 1 {
						team = rt.NewSimTeam(size)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						proc, err := b.prog.NewProcess(comp.ProcOptions{Team: team})
						if err != nil {
							t.Error(err)
							return
						}
						if got := observeRun(b.art.Info, proc); got != want {
							t.Errorf("%v team=%d sim=%v differs from the oracle at %s", b, size, team.Simulated(), firstDiff(got, want))
						}
					}()
				}
			}
			wg.Wait()
		})
	}
}
