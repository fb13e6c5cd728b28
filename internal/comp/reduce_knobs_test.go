package comp

import (
	"fmt"
	"testing"

	"purec/internal/rt"
)

// knobTeams is the team matrix of the reduction-runtime suite: real
// and simulated, single worker through the 12-worker acceptance size
// (oversubscribed on most machines, which is the point — the race
// detector sees the combine under real contention).
func knobTeams() []*rt.Team {
	var out []*rt.Team
	for _, n := range []int{1, 4, 12} {
		out = append(out, rt.NewTeam(n), rt.NewSimTeam(n))
	}
	return out
}

// knobProgram pairs an array reduction (600-bin histogram, most bins
// never touched) with a "-" scalar reduction under one schedule clause.
func knobProgram(sched string) string {
	return fmt.Sprintf(`
int data[400];
int main(void) {
    for (int i = 0; i < 400; i++)
        data[i] = 100 + (i * 29 + 7) %% 400;
    int hist[600];
    for (int b = 0; b < 600; b++)
        hist[b] = 0;
#pragma omp parallel for reduction(+:hist[]) %s
    for (int i = 0; i < 400; i++)
        hist[data[i]] += 2;
    int s = 1000;
#pragma omp parallel for reduction(-:s) %s
    for (int i = 0; i < 400; i++)
        s -= data[i] %% 9;
    int sum = s;
    for (int b = 0; b < 600; b++)
        sum += hist[b] * (b %% 7 + 1);
    return sum %% 251;
}`, sched, sched)
}

// subHistProgram is a "-" array reduction over a non-zero-initialized
// histogram: negation onto "+" composes with the identity-filled
// private copies (the identity stays 0, the caller keeps its 5s).
func subHistProgram(sched string) string {
	return fmt.Sprintf(`
int data[300];
int main(void) {
    for (int i = 0; i < 300; i++)
        data[i] = 400 + (i * 7) %% 300;
    int hist[900];
    for (int b = 0; b < 900; b++)
        hist[b] = 5;
#pragma omp parallel for reduction(-:hist[]) %s
    for (int i = 0; i < 300; i++)
        hist[data[i]] -= 2;
    int sum = 0;
    for (int b = 0; b < 900; b++)
        sum += hist[b] * (b %% 3 + 1);
    return sum %% 509;
}`, sched)
}

// TestReductionKnobMatrixMatchesOracle is the acceptance suite of the
// reduction runtime: every {program} x {schedule} x {team} combination must return the serial interp oracle's integer
// result bit-identically. CI runs the whole package under -race, so
// the 12-worker real teams also put every private allocation and the
// worker-ordered combine under the race detector.
func TestReductionKnobMatrixMatchesOracle(t *testing.T) {
	schedules := []string{"", "schedule(static)", "schedule(static,7)", "schedule(dynamic,3)", "schedule(guided,2)"}
	for _, prog := range []func(string) string{knobProgram, subHistProgram} {
		for _, sched := range schedules {
			src := prog(sched)
			want := runSerialOracle(t, src)
			for _, team := range knobTeams() {
				m := compile(t, src, Options{Team: team})
				got, err := m.RunMain()
				if err != nil {
					t.Fatalf("%q team=%d sim=%v: %v", sched, team.Size(), team.Simulated(), err)
				}
				if got != want {
					t.Errorf("%q team=%d sim=%v: got %d want %d",
						sched, team.Size(), team.Simulated(), got, want)
				}
			}
		}
	}
}

// TestCombineOrderFloatDeterminismMatrix pins the float determinism
// contract: at a fixed team size, simulated teams under every schedule
// and real teams under static schedules are bit-identical run to run,
// and real static equals sim static (same span-to-worker assignment,
// same worker-ordered combine). Real dynamic/guided assign chunks by
// arrival and promise only integer exactness — they are deliberately
// absent here and covered by the oracle matrix above.
func TestCombineOrderFloatDeterminismMatrix(t *testing.T) {
	prog := func(sched string) string {
		return fmt.Sprintf(`
double out;
int main(void) {
    double s = 0.0;
#pragma omp parallel for reduction(+:s) %s
    for (int i = 0; i < 3000; i++)
        s += 1.0 / (i + 1);
    out = s;
    return 0;
}`, sched)
	}
	read := func(src string, team *rt.Team) float64 {
		t.Helper()
		m := compile(t, src, Options{Team: team})
		if _, err := m.RunMain(); err != nil {
			t.Fatalf("run: %v", err)
		}
		v, err := m.GlobalFloat("out")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, workers := range []int{2, 5, 12} {
		for _, c := range []struct {
			sched string
			sim   bool
		}{
			{"schedule(static)", false}, {"schedule(static,7)", false},
			{"", true}, {"schedule(static,7)", true},
			{"schedule(dynamic,3)", true}, {"schedule(guided,2)", true},
		} {
			src := prog(c.sched)
			mk := func() *rt.Team {
				if c.sim {
					return rt.NewSimTeam(workers)
				}
				return rt.NewTeam(workers)
			}
			first := read(src, mk())
			for rep := 0; rep < 4; rep++ {
				if got := read(src, mk()); got != first {
					t.Fatalf("@%d workers %q sim=%v: rep %d gave %x, first %x",
						workers, c.sched, c.sim, rep, got, first)
				}
			}
			// Real and sim static teams share span assignment and
			// combine order, so their floats agree bitwise too.
			if !c.sim {
				if sim := read(src, rt.NewSimTeam(workers)); sim != first {
					t.Fatalf("@%d workers %q: real %x != sim %x",
						workers, c.sched, first, sim)
				}
			}
		}
	}
}
