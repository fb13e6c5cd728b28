package comp_test

import (
	"testing"

	"purec/internal/apps"
	"purec/internal/comp"
	"purec/internal/core"
)

// BenchmarkCompileProgram measures the compile side of comp — the
// "GCC/ICC" step alone, front end excluded: one op is Artifact.Compile
// over every apps.Corpus() source. The lifter reads every canonical
// loop's body here, so allocs/op is the native number to watch when
// the lifter or an emitter changes.
func BenchmarkCompileProgram(b *testing.B) {
	for _, backend := range []comp.Backend{comp.BackendGCC, comp.BackendICC} {
		b.Run(backend.String(), func(b *testing.B) {
			benchCompile(b, core.Config{Parallelize: true, Backend: backend})
		})
	}
}

func benchCompile(b *testing.B, cfg core.Config) {
	var arts []*core.Artifact
	for _, s := range apps.Corpus() {
		c := cfg
		c.Defines = s.Defines
		art, err := core.Front(s.Src, c)
		if err != nil {
			b.Fatalf("%s: %v", s.Name, err)
		}
		arts = append(arts, art)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, art := range arts {
			if _, err := art.Compile(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
