// Command purebench regenerates the paper's evaluation figures
// (Figs. 2–11 of "Pure Functions in C: A Small Keyword for Automatic
// Parallelization") on the purec tool chain.
//
// Usage:
//
//	purebench [-fig all|2|3|...|11|m1|m2] [-cores 1,2,4,8,16,32,64] [-reps 3]
//	          [-matmul-n 160] [-heat-n 160] [-heat-steps 30]
//	          [-sat-pix 2000] [-sat-bands 12] [-sat-iters 48]
//	          [-lama-rows 12000] [-lama-nnz 16] [-memo-classes 24] [-quick]
//
// Figures m1/m2 are the pure-call memoization scenario (quantized
// satellite retrieval with and without the shared memo table), which
// extends the paper's evaluation.
//
// Each figure prints as an aligned table: one row per program variant,
// one column per simulated core count. Performance is measured and
// gated by the benchmark (go run ./benchmark, see BENCHMARK.json), not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"purec/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, one of 2..11, or m1/m2 (comma-separable)")
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

	want := map[string]bool{"m1": true, "m2": true}
	for i := 2; i <= 11; i++ {
		want[strconv.Itoa(i)] = true
	}
	if *fig != "all" {
		picked := map[string]bool{}
		for _, part := range strings.Split(*fig, ",") {
			f := strings.ToLower(strings.TrimSpace(part))
			if !want[f] {
				fatalf("unknown figure %q (want all, 2..11, m1 or m2)", part)
			}
			picked[f] = true
		}
		want = picked
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
