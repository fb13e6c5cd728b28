package apps

// Sample is one source of the package with defines that size it small
// enough to compile and analyze in a test.
type Sample struct {
	Name    string
	Src     string
	Defines map[string]string
}

// Corpus lists every mini-C source of this package. Tests that must
// hold for "all the applications" (the dependence-analysis differential
// test, the front-end golden digests) range over it, so a new source
// added here is covered without touching them.
func Corpus() []Sample {
	kern, rel := KernDefines(64, 2), RelationalDefines(96, 112, 16, 2)
	return []Sample{
		{"matmul", MatmulSrc, MatmulDefines(12)},
		{"matmul-noinitpar", MatmulNoInitParSrc, MatmulDefines(12)},
		{"matmul-inlined", MatmulInlinedSrc, MatmulDefines(12)},
		{"matmul-kern", MatmulKernSrc, MatmulDefines(12)},
		{"heat", HeatSrc, HeatDefines(12, 2)},
		{"heat-inlined", HeatInlinedSrc, HeatDefines(12, 2)},
		{"satellite", SatelliteSrc, SatelliteDefines(20, 4, 10)},
		{"memosat", MemoSatSrc, MemoSatDefines(20, 4, 4, 10)},
		{"lama", LamaSrc, LamaDefines(32, 4)},
		{"lama-manual", LamaManualSrc, LamaDefines(32, 4)},
		{"reduce-sum", ReduceSumSrc, ReduceDefines(100)},
		{"reduce-dot", ReduceDotSrc, ReduceDefines(100)},
		{"axpy", AxpySrc, kern},
		{"copy", CopySrc, kern},
		{"stencil", StencilSrc, kern},
		{"noncanon", NoncanonSrc, kern},
		{"histogram", HistogramSrc, HistogramDefines(1000, 16)},
		{"sparsehist", SparseHistSrc, SparseHistDefines(1000, 1024, 64)},
		{"gather", GatherSrc, GatherDefines(64, 80, 2)},
		{"gather-opaque", GatherOpaqueSrc, GatherDefines(64, 80, 2)},
		{"derived", DerivedSrc, rel},
		{"clamp-gather", ClampGatherSrc, rel},
		{"ptr-scale", PtrScaleSrc, rel},
		{"aliased-pair", AliasedPairSrc, rel},
	}
}
