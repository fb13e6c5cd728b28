// Command purecc is the compiler driver of the purec tool chain: it runs
// a mini-C file through the paper's full pipeline (Fig. 1) and executes
// the result.
//
// Usage:
//
//	purecc [flags] file.c
//
//	-mode pure|pluto      parallelizer mode (default pure)
//	-backend gcc|icc      compiler analog (default gcc), a label: both
//	                      run the same tape, flat bytecode executed by a
//	                      switch-dispatch loop, and the same fused kernels
//	-cores N              worker count for parallel regions (default 1)
//	-seq                  disable parallelization (sequential baseline)
//	-tile                 enable rectangular tiling (PluTo-SICA analog)
//	-skew                 enable loop shearing when it enables parallelism
//	-schedule S           OpenMP schedule clause (e.g. dynamic,1)
//	-memo                 memoize calls of memoizable pure functions
//	                      (scalar signature, global-free body) in a
//	                      table shared by all processes of the program
//	-memo-capacity N      bound the memo table entry count (default
//	                      65536)
//	-analyze              print the value-range analysis report instead
//	                      of running: bounds proofs feed gather
//	                      parallelization; findings cover
//	                      definite/possible out-of-bounds subscripts,
//	                      reads of uninitialized scalars, and dead
//	                      guards, each with the interval derivation. A
//	                      definite out-of-bounds access is a compile
//	                      error (exit 1)
//	-noalias              disable the points-to analysis: pointer-based
//	                      accesses stay conservative, so nests using
//	                      them serialize and keep their checks
//	                      (bit-identical; for A/B and debugging)
//	-D NAME=VALUE         define an object-like macro (repeatable)
//	-emit stage           print a stage instead of running:
//	                      stripped|expanded|marked|transformed|final|report|pure
//	                      (report lists each nest's parallel level,
//	                      reduction clauses — scalar "+:s" and array
//	                      "+:hist[]" forms — and, for serial nests,
//	                      the reason, e.g. "serialized by scalar write
//	                      to s", a write through an unresolved pointer,
//	                      or the offending access of a near-miss array
//	                      reduction — plus per-nest alias notes showing
//	                      how each pointer access was resolved)
//	-time                 print the wall time of main()
//	-runs N               execute main N times in Processes of the one
//	                      compiled Program, drawn from a size-1 pool:
//	                      runs 2..N reset and reuse run 1's Process
//	                      (default 1)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/rt"
	"purec/internal/transform"
)

type defineFlags map[string]string

func (d defineFlags) String() string { return "" }

func (d defineFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		d[name] = "1"
		return nil
	}
	d[name] = val
	return nil
}

func main() {
	mode := flag.String("mode", "pure", "parallelizer mode: pure or pluto")
	backend := flag.String("backend", "gcc", "compiler analog, a label: gcc or icc")
	cores := flag.Int("cores", 1, "worker count")
	seq := flag.Bool("seq", false, "disable parallelization")
	tile := flag.Bool("tile", false, "enable rectangular tiling")
	skew := flag.Bool("skew", false, "enable loop shearing")
	schedule := flag.String("schedule", "", "OpenMP schedule clause")
	memoize := flag.Bool("memo", false, "memoize calls of memoizable pure functions")
	memoCap := flag.Int("memo-capacity", 0, "memo table entry bound (0 = default)")
	analyze := flag.Bool("analyze", false, "print the value-range analysis report instead of running")
	noAlias := flag.Bool("noalias", false, "disable the points-to analysis (pointer nests stay serial)")
	emit := flag.String("emit", "", "print a pipeline stage instead of running")
	timed := flag.Bool("time", false, "print wall time of main()")
	runs := flag.Int("runs", 1, "execute main N times, reusing one pooled process")
	defines := defineFlags{}
	flag.Var(defines, "D", "define NAME=VALUE (repeatable)")
	flag.Parse()

	if *runs < 1 {
		fatalf("-runs must be at least 1")
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: purecc [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}

	cfg := core.Config{
		FileName:    flag.Arg(0),
		Defines:     defines,
		Parallelize: !*seq,
		TeamSize:    *cores,
		Transform: transform.Options{
			Tile:     *tile,
			Skew:     *skew,
			Schedule: *schedule,
		},
		NoAlias:      *noAlias,
		Memoize:      *memoize,
		MemoCapacity: *memoCap,
		Stdout:       os.Stdout,
	}
	switch *mode {
	case "pure":
		cfg.Mode = core.ModePure
	case "pluto":
		cfg.Mode = core.ModePluTo
	default:
		fatalf("unknown mode %q", *mode)
	}
	switch *backend {
	case "gcc":
		cfg.Backend = comp.BackendGCC
	case "icc":
		cfg.Backend = comp.BackendICC
	default:
		fatalf("unknown backend %q (want gcc or icc)", *backend)
	}

	if *analyze {
		// The findings are the front end's: the compile step, which may
		// refuse the program, does not run.
		art, err := core.Front(string(src), cfg)
		if err != nil {
			fatalf("%v", err)
		}
		if art.VRA == nil || len(art.VRA.Findings) == 0 {
			fmt.Println("value-range analysis: no findings")
		} else {
			for _, f := range art.VRA.Findings {
				fmt.Println(f)
			}
		}
		if art.VRA != nil && art.VRA.HasDefiniteOOB() {
			fatalf("program contains a definite out-of-bounds access")
		}
		return
	}

	prog, art, _, err := core.BuildProgram(string(src), cfg)
	if err != nil {
		fatalf("%v", err)
	}

	switch *emit {
	case "":
		// run below
	case "stripped":
		fmt.Print(art.Stages.Stripped)
		return
	case "expanded":
		fmt.Print(art.Stages.Expanded)
		return
	case "marked":
		fmt.Print(art.Stages.Marked)
		return
	case "transformed":
		fmt.Print(art.Stages.Transformed)
		return
	case "final":
		fmt.Print(art.Stages.Final)
		return
	case "report":
		fmt.Printf("verified pure functions: %s\n", strings.Join(sortedNames(art.Pure), ", "))
		fmt.Printf("memoizable pure functions: %s\n", strings.Join(sortedNames(art.Memoizable), ", "))
		fmt.Printf("SCoPs: %d\n", art.SCoPs)
		fmt.Printf("fused kernels: %d\n", prog.FusedKernels())
		fmt.Printf("inlined calls: %d\n", prog.InlinedCalls())
		instrs, consts, temps := prog.TapeStats()
		fmt.Printf("tape: %d instructions, %d pooled constants, %d temp slots\n", instrs, consts, temps)
		if art.Report != nil {
			fmt.Print(art.Report.String())
		}
		for _, r := range art.Rejections {
			fmt.Printf("rejected: %s\n", r)
		}
		return
	case "pure":
		fmt.Println(strings.Join(sortedNames(art.Pure), "\n"))
		return
	default:
		fatalf("unknown -emit stage %q", *emit)
	}

	// Every run executes in its own Process of the one immutable
	// Program: the compiler chain runs once however many times the
	// program executes. With -runs N the runs draw from a size-1
	// Process pool, so run 2..N reset-and-reuse run 1's heap and
	// global arenas instead of reallocating them.
	pool := prog.NewPool(comp.PoolOptions{
		Size:    1,
		NewTeam: func() *rt.Team { return rt.NewTeam(*cores) },
	})
	var ret int64
	for r := 0; r < *runs; r++ {
		proc, perr := pool.Get()
		if perr != nil {
			fatalf("process: %v", perr)
		}
		proc.SetStdout(os.Stdout)
		start := time.Now()
		var err error
		ret, err = proc.RunMain()
		dur := time.Since(start)
		if err != nil {
			fatalf("run: %v", err)
		}
		pool.Put(proc)
		if *timed {
			fmt.Fprintf(os.Stderr, "main returned %d in %s (%d cores, %s backend)\n",
				ret, dur, *cores, *backend)
		}
	}
	if *runs > 1 {
		s := pool.Stats()
		fmt.Fprintf(os.Stderr, "pool: %d runs, %d process reuses\n", s.Gets, s.Reuses)
	}
	if *memoize {
		s := prog.MemoStats()
		fmt.Fprintf(os.Stderr, "memo: %d hits / %d misses / %d bypassed (%.1f%% hit rate, %d entries)\n",
			s.Hits, s.Misses, s.Bypassed, 100*s.HitRate(), s.Entries)
	}
	os.Exit(int(ret & 0xff))
}

func sortedNames(ns []string) []string {
	out := append([]string{}, ns...)
	sort.Strings(out)
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "purecc: "+format+"\n", args...)
	os.Exit(1)
}
