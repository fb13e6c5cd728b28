// Command purebench regenerates the paper's evaluation figures
// (Figs. 2–11 of "Pure Functions in C: A Small Keyword for Automatic
// Parallelization") on the purec tool chain.
//
// Usage:
//
//	purebench [-fig all|2|3|...|11|m1|m2|r1|a1|t1|b1|s1] [-cores 1,2,4,8,16,32,64] [-reps 3]
//	          [-matmul-n 160] [-heat-n 160] [-heat-steps 30]
//	          [-sat-pix 2000] [-sat-bands 12] [-sat-iters 48]
//	          [-lama-rows 12000] [-lama-nnz 16] [-memo-classes 24]
//	          [-reduce-n 400000]
//	          [-hist-n 400000] [-hist-bins 16,256,4096,65536]
//	          [-real-cores 1,2,4]
//	          [-bce-n 96] [-bce-reps 20000] [-gather-m 2048] [-quick]
//	          [-json dir] [-check dir]
//
// Figures m1/m2 are the pure-call memoization scenario (quantized
// satellite retrieval with and without the shared memo table); figure
// r1 is the parallel scalar-reduction scenario (quickstart sum and
// extracted dot kernels, serial vs reduction builds); figure a1 is the
// array-reduction scenario (hist[data[i]]++ with privatized per-worker
// copies, swept over -hist-bins to expose the combine overhead);
// figures r1 and a1 additionally carry
// real-team rows: actual goroutine teams over -real-cores timed in
// wall clock, no simulation;
// figure t1 is the statement-engine A/B (closure trees vs linearized
// tapes with fusion off, plus the fused build, over the element-wise
// kernels and a deliberately non-canonical branchy body); figure b1
// is the bounds-check-elimination A/B (checked vs proven builds of the
// element-wise kernels and a gather, plus the proven-vs-opaque gather
// parallelization scenario); figure s1 is the serving-throughput
// scenario behind cmd/purecd (one compiled program hammered by
// concurrent clients, pooled reset-and-reuse Processes vs a fresh
// Process per run — wall-clock real concurrency, not simulated
// time). All extend the paper's evaluation.
//
// Each figure prints as an aligned table: one row per program variant,
// one column per simulated core count.
//
// -json writes each collected figure additionally as BENCH_<FIG>.json
// into the given directory (a1/r1/t1/b1/s1 only — the figures with
// a machine-readable export). -check instead compares the fresh numbers
// against committed BENCH_<FIG>.json baselines in the given directory
// and exits non-zero on a large regression; both flags may be
// combined.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"purec/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, one of 2..11, or m1/m2/r1/a1/t1/b1/s1 (comma-separable)")
	jsonDir := flag.String("json", "", "directory receiving BENCH_<FIG>.json exports (a1/r1/t1/b1/s1)")
	checkDir := flag.String("check", "", "directory holding baseline BENCH_<FIG>.json files to compare against")
	coresFlag := flag.String("cores", "", "comma-separated core counts (default 1,2,4,8,16,32,64)")
	reps := flag.Int("reps", 0, "repetitions per measurement (default 3)")
	quick := flag.Bool("quick", false, "tiny workloads for a fast smoke run")
	matmulN := flag.Int("matmul-n", 0, "matrix size N")
	heatN := flag.Int("heat-n", 0, "heat plate size N")
	heatSteps := flag.Int("heat-steps", 0, "heat time steps")
	satPix := flag.Int("sat-pix", 0, "satellite pixel count")
	satBands := flag.Int("sat-bands", 0, "satellite band count")
	satIters := flag.Int("sat-iters", 0, "satellite max retrieval iterations")
	lamaRows := flag.Int("lama-rows", 0, "ELL matrix rows")
	lamaNNZ := flag.Int("lama-nnz", 0, "ELL non-zeros per row")
	memoClasses := flag.Int("memo-classes", 0, "distinct argument classes of the memoization scenario")
	reduceN := flag.Int("reduce-n", 0, "iteration/vector length of the reduction scenario")
	histN := flag.Int("hist-n", 0, "element count of the array-reduction scenario (fig a1)")
	histBins := flag.String("hist-bins", "", "comma-separated bin counts of the array-reduction scenario (fig a1)")
	realCores := flag.String("real-cores", "", "comma-separated core counts of the real-team rows (default 1,2,4)")
	bceN := flag.Int("bce-n", 0, "vector length of the launch-visibility rows (fig b1)")
	bceReps := flag.Int("bce-reps", 0, "sweeps per run of the launch-visibility rows (fig b1)")
	gatherM := flag.Int("gather-m", 0, "gathered-table length of the gather rows (fig b1)")
	flag.Parse()

	p := bench.Default()
	if *quick {
		p = bench.Quick()
	}
	if *coresFlag != "" {
		var cores []int
		for _, part := range strings.Split(*coresFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				fatalf("bad -cores value %q", part)
			}
			cores = append(cores, v)
		}
		p.Cores = cores
	}
	if *reps > 0 {
		p.Reps = *reps
	}
	setIf(&p.MatmulN, *matmulN)
	setIf(&p.HeatN, *heatN)
	setIf(&p.HeatSteps, *heatSteps)
	setIf(&p.SatPix, *satPix)
	setIf(&p.SatBands, *satBands)
	setIf(&p.SatIters, *satIters)
	setIf(&p.LamaRows, *lamaRows)
	setIf(&p.LamaNNZ, *lamaNNZ)
	setIf(&p.MemoClasses, *memoClasses)
	setIf(&p.ReduceN, *reduceN)
	setIf(&p.HistN, *histN)
	setIf(&p.BCEN, *bceN)
	setIf(&p.BCEReps, *bceReps)
	setIf(&p.GatherM, *gatherM)
	if *histBins != "" {
		var bins []int
		for _, part := range strings.Split(*histBins, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				fatalf("bad -hist-bins value %q", part)
			}
			bins = append(bins, v)
		}
		p.HistBins = bins
	}
	if *realCores != "" {
		var cores []int
		for _, part := range strings.Split(*realCores, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				fatalf("bad -real-cores value %q", part)
			}
			cores = append(cores, v)
		}
		p.RealCores = cores
	}

	want := map[string]bool{}
	if *fig == "all" {
		for i := 2; i <= 11; i++ {
			want[strconv.Itoa(i)] = true
		}
		for _, f := range []string{"m1", "m2", "r1", "a1", "t1", "b1", "s1"} {
			want[f] = true
		}
	} else {
		for _, part := range strings.Split(*fig, ",") {
			want[strings.ToLower(strings.TrimSpace(part))] = true
		}
	}

	// handleJSON exports and/or baseline-checks a figure's
	// machine-readable form, per the -json/-check flags.
	var regressions []string
	handleJSON := func(jf *bench.JSONFigure) {
		if *jsonDir != "" {
			path, err := jf.Write(*jsonDir)
			if err != nil {
				fatalf("json: %v", err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if *checkDir != "" {
			base, err := bench.ReadJSONFigure(filepath.Join(*checkDir, jf.Filename()))
			if err != nil {
				fatalf("check: %v", err)
			}
			if bad := bench.CheckBaseline(jf, base); bad != nil {
				regressions = append(regressions, bad...)
			} else {
				fmt.Printf("baseline check passed: %s\n", jf.Filename())
			}
		}
	}

	if want["2"] {
		fmt.Println(bench.Fig2())
	}
	if want["3"] || want["4"] || want["5"] {
		d, err := bench.CollectMatmul(p)
		if err != nil {
			fatalf("matmul: %v", err)
		}
		if want["3"] {
			fmt.Println(d.Fig3().Render())
		}
		if want["4"] {
			fmt.Println(d.Fig4().Render())
		}
		if want["5"] {
			fmt.Println(d.Fig5().Render())
		}
	}
	if want["6"] || want["7"] {
		d, err := bench.CollectHeat(p)
		if err != nil {
			fatalf("heat: %v", err)
		}
		if want["6"] {
			fmt.Println(d.Fig6().Render())
		}
		if want["7"] {
			fmt.Println(d.Fig7().Render())
		}
	}
	if want["8"] || want["9"] {
		d, err := bench.CollectSatellite(p)
		if err != nil {
			fatalf("satellite: %v", err)
		}
		if want["8"] {
			fmt.Println(d.Fig8().Render())
		}
		if want["9"] {
			fmt.Println(d.Fig9().Render())
		}
	}
	if want["10"] || want["11"] {
		d, err := bench.CollectLama(p)
		if err != nil {
			fatalf("lama: %v", err)
		}
		if want["10"] {
			fmt.Println(d.Fig10().Render())
		}
		if want["11"] {
			fmt.Println(d.Fig11().Render())
		}
	}
	if want["m1"] || want["m2"] {
		d, err := bench.CollectMemo(p)
		if err != nil {
			fatalf("memo: %v", err)
		}
		if want["m1"] {
			fmt.Println(d.FigMemo().Render())
		}
		if want["m2"] {
			fmt.Println(d.FigMemoSpeedup().Render())
		}
	}
	if want["r1"] {
		d, err := bench.CollectReduction(p)
		if err != nil {
			fatalf("reduction: %v", err)
		}
		fmt.Println(d.FigR1().Render())
		handleJSON(d.JSON())
	}
	if want["a1"] {
		d, err := bench.CollectHistogram(p)
		if err != nil {
			fatalf("histogram: %v", err)
		}
		fmt.Println(d.FigA1().Render())
		handleJSON(d.JSON())
	}
	if want["t1"] {
		d, err := bench.CollectTape(p)
		if err != nil {
			fatalf("tape: %v", err)
		}
		fmt.Println(d.FigT1())
		handleJSON(d.JSON())
	}
	if want["b1"] {
		d, err := bench.CollectBCE(p)
		if err != nil {
			fatalf("bce: %v", err)
		}
		fmt.Println(d.FigB1())
		handleJSON(d.JSON())
	}
	if want["s1"] {
		d, err := bench.CollectServe(p)
		if err != nil {
			fatalf("serve: %v", err)
		}
		fmt.Println(d.FigS1())
		handleJSON(d.JSON())
	}
	for _, m := range regressions {
		fmt.Fprintln(os.Stderr, "purebench: regression: "+m)
	}
	if len(regressions) > 0 {
		os.Exit(1)
	}
}

func setIf(dst *int, v int) {
	if v > 0 {
		*dst = v
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "purebench: "+format+"\n", args...)
	os.Exit(1)
}
