package core

import (
	"testing"

	"purec/internal/comp"
)

// Config.Engine is deprecated and ignored: every Engine value builds the
// same tape Program under the same cache key.
func TestZeroConfigBuildsTape(t *testing.T) {
	var sizes [][3]int
	for _, eng := range []comp.Engine{comp.EngineTape, comp.EngineClosure} {
		cfg := Config{Parallelize: true, NoCache: true, Engine: eng}
		res, err := Build(scheduleSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		instrs, consts, temps := res.Program.TapeStats()
		sizes = append(sizes, [3]int{instrs, consts, temps})
		if got, want := Key(scheduleSrc, cfg), Key(scheduleSrc, Config{Parallelize: true}); got != want {
			t.Errorf("Engine %d: key %v, want the default key %v", eng, got, want)
		}
	}
	if sizes[0] == [3]int{} || sizes[0] != sizes[1] {
		t.Errorf("tape sizes %v: EngineClosure must build the same tape", sizes)
	}
}

// Every compile-relevant Config field that survived the reduction-knob
// and A/B-switch deletions keeps the key it had before: a disk cache
// written by an older daemon keeps serving each of these builds. The
// keys were recorded at the commit that still had Combine,
// SparsePrivates and MemoShards, and the fusion and check-elision
// switches.
func TestCompileFieldsKeepTheirKeys(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		key  string
	}{
		{"default", Config{Parallelize: true}, "ed6827b509fc2a704ddb93448eabb80a37d05475e372844339274cad21128a0d"},
		{"icc", Config{Parallelize: true, Backend: comp.BackendICC}, "52c3350d7b5e3f83e787f376ccf94f6ab96a81c768fdf9d80f83d8316b78c2c2"},
		{"vectorize", Config{Parallelize: true, Vectorize: true}, "74e14fa30f414e65a7a864d21d4553959e9decf03050fca80f429d87a2014e88"},
		{"noalias", Config{Parallelize: true, NoAlias: true}, "5059960e4e036c73fa97688c57146a7739b8d1e47c0ec13e623e6ded4b38c5b0"},
		{"memoize", Config{Parallelize: true, Memoize: true, MemoCapacity: 64}, "6dd5a6aec885ea2dd342bff0d0e3a6ab4a521b816f34d61392ee8db8909ebb0e"},
	} {
		if got := Key(scheduleSrc, c.cfg).String(); got != c.key {
			t.Errorf("%s: %q,", c.name, got)
		}
	}
}
