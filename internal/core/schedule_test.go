package core

import (
	"strings"
	"testing"

	"purec/internal/transform"
)

const scheduleSrc = `
int a[256];
int main(void) {
    for (int i = 0; i < 256; i++) a[i] = i;
    return 0;
}
`

// An unknown schedule clause used to be printed into the pragma, ignored
// by the compile step (which ran static) and cached under its own key.
func TestUnknownScheduleRejected(t *testing.T) {
	for _, sched := range []string{"bogus", "dynamic,0", "static,x"} {
		cfg := Config{Parallelize: true, Transform: transform.Options{Schedule: sched}}
		runs := FrontRuns()
		if _, err := Front(scheduleSrc, cfg); err == nil || !strings.Contains(err.Error(), sched) {
			t.Errorf("Front with schedule %q: %v", sched, err)
		}
		if FrontRuns() != runs {
			t.Errorf("schedule %q entered the front end", sched)
		}
		cfg.Cache = NewProgramCache(4)
		if _, _, _, err := BuildProgram(scheduleSrc, cfg); err == nil || !strings.Contains(err.Error(), sched) {
			t.Errorf("BuildProgram with schedule %q: %v", sched, err)
		}
		if n := cfg.Cache.Len(); n != 0 {
			t.Errorf("schedule %q left %d cache entries", sched, n)
		}
		cfg.NoCache = true
		if _, _, _, err := BuildProgram(scheduleSrc, cfg); err == nil {
			t.Errorf("uncached BuildProgram accepted schedule %q", sched)
		}
	}
	if _, err := Front(scheduleSrc, Config{Parallelize: true, Transform: transform.Options{Schedule: "bogus"}}); err == nil ||
		err.Error() != `unknown schedule "bogus"` {
		t.Errorf("message: %v", err)
	}
}

// The valid spellings still build, and under the cache keys they have
// always had: a disk cache written before the check keeps serving them.
func TestValidSchedulesKeepTheirKeys(t *testing.T) {
	want := map[string]string{ // recorded at the commit before the check
		"":          "ed6827b509fc2a704ddb93448eabb80a37d05475e372844339274cad21128a0d",
		"static":    "eddc34ce869a6a64ccd9040926cde9c94d7ae164ece66004797502f0195f41a7",
		"dynamic,1": "1eb476f0d5546cc33d3035d070f63f23252477095bc041e154ab99b87c265c3b",
		"guided,4":  "5ca8198df650e8bbd6d666fd123bb995aaa60813033bc992553b5c5844d65fab",
	}
	for sched, key := range want {
		cfg := Config{Parallelize: true, Transform: transform.Options{Schedule: sched}, Cache: NewProgramCache(4)}
		if got := Key(scheduleSrc, cfg).String(); got != key {
			t.Errorf("%q: %q,", sched, got)
		}
		if _, art, _, err := BuildProgram(scheduleSrc, cfg); err != nil {
			t.Errorf("schedule %q: %v", sched, err)
		} else if sched != "" && !strings.Contains(art.Stages.Transformed, "schedule("+sched+")") {
			t.Errorf("schedule %q not in the pragma:\n%s", sched, art.Stages.Transformed)
		}
	}
}
