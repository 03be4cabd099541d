// Command casestudy regenerates the paper's case-study artifacts:
// Table 1 (application list), Table 2 (running times), Table 3 (loop-nest
// inspection), the Amdahl bounds of §4.2, and the Fortuna-style
// task-level baseline of §6.
//
// Usage:
//
//	casestudy [-table=all|1|2|3|amdahl|fortuna] [-exec] [-scale=N] [-seed=N] [-workers=N] [-timing] [-static=off|assist] [-pipeline]
//
// -scale divides workload sizes (1 = full Table 2/3 configuration).
// -workers sizes the work-stealing scheduler's goroutine pool
// (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at every
// worker count.
// -timing appends the per-job wall-clock report plus the scheduler's
// chunk/steal telemetry.
// -exec runs ModeExec instead: every ParallelArray-convertible hot loop
// executes through the speculative autopar engine at a ladder of worker
// counts (1/2/4/8 by default; -workers N narrows the ladder to {1, N}),
// reporting measured speedup and chunk/steal counters next to the
// ModeDeep Amdahl bound. -static selects the purity prover's mode and
// -pipeline runs the pipeline ladder instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/autopar"
	"repro/internal/report"
	"repro/internal/study"
	"repro/internal/workloads"
)

func main() {
	table := flag.String("table", "all", "which artifact to print: all, 1, 2, 3, amdahl, fortuna")
	execMode := flag.Bool("exec", false, "run ModeExec: speculative ParallelArray execution with measured speedup")
	scaleDiv := flag.Int("scale", 1, "divide workload sizes by N (1 = paper-scale)")
	seed := flag.Uint64("seed", 7, "deterministic seed")
	workers := flag.Int("workers", 0, "scheduler pool size (0 = GOMAXPROCS, 1 = sequential); with -exec, the top of the {1, N} measurement ladder")
	timing := flag.Bool("timing", false, "print per-job and total wall-clock times to stderr")
	staticFlag := flag.String("static", "off", "static purity prover mode for -exec: off (speculate+guard everything), assist (guard-free dispatch for proven kernels, refuse refuted)")
	pipeline := flag.Bool("pipeline", false, "with -exec: run the pipeline ladder instead — the decode/filter/encode image workload pipelined (pipePar) vs. the chained-mapPar baseline")
	flag.Parse()

	switch *table {
	case "all", "1", "2", "3", "amdahl", "fortuna":
	default:
		fatal(fmt.Errorf("unknown -table=%s", *table))
	}

	workloads.SetScale(workloads.Scale{Div: *scaleDiv})

	if *pipeline && !*execMode {
		fatal(fmt.Errorf("-pipeline requires -exec (the pipeline ladder is a ModeExec variant)"))
	}

	if *execMode {
		if *table != "all" {
			fatal(fmt.Errorf("-exec conflicts with -table=%s (exec prints only the ModeExec table)", *table))
		}
		if *timing {
			fmt.Fprintln(os.Stderr, "casestudy: -timing does not apply to -exec (wall clock is in the table itself)")
		}
		counts := study.ExecWorkerCounts
		if *workers > 0 {
			counts = []int{1, *workers}
		}
		static, err := autopar.ParseStaticMode(*staticFlag)
		if err != nil {
			fatal(err)
		}
		if *pipeline {
			rows, measured, err := study.RunPipeAll(*seed, counts, static)
			if err != nil {
				fatal(err)
			}
			fmt.Print(report.Pipe(rows, measured))
			for _, r := range rows {
				if !r.Identical {
					fatal(fmt.Errorf("pipeline: %s/%s output not byte-identical across strategies and worker counts", r.App, r.Loop))
				}
				if r.PairsFound != r.PairsWant {
					fatal(fmt.Errorf("pipeline: detector found %d produce->consume pairs, want %d", r.PairsFound, r.PairsWant))
				}
			}
			return
		}
		rows, measured, err := study.RunExecAll(*seed, counts, static)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.Exec(rows, measured))
		for _, r := range rows {
			if !r.Identical {
				fatal(fmt.Errorf("exec: %s/%s output not byte-identical across worker counts", r.App, r.Loop))
			}
		}
		return
	}

	if *table == "1" {
		fmt.Print(report.Table1(workloads.All()))
		return
	}
	if *table == "fortuna" {
		rows, err := study.RunFortunaAll(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.Fortuna(rows))
		return
	}

	rep, err := study.Orchestrate(context.Background(), study.Options{Seed: *seed, Workers: *workers})
	if *timing {
		for _, jt := range rep.Timings {
			fmt.Fprintf(os.Stderr, "job %-20s %-5s %8.2fms\n", jt.App, jt.Mode, float64(jt.Wall.Microseconds())/1000)
		}
		fmt.Fprintf(os.Stderr, "orchestrated %d jobs on %d workers in %.2fs (%d chunks, %d steals)\n",
			len(rep.Timings), rep.Workers, rep.Wall.Seconds(), rep.Sched.Chunks, rep.Sched.Steals)
	}
	if err != nil {
		// The orchestrator aggregates failures instead of failing fast:
		// report them, then still print whatever apps survived.
		fmt.Fprintln(os.Stderr, "casestudy:", err)
		if len(rep.Results) == 0 {
			os.Exit(1)
		}
	}
	results := rep.Results
	switch *table {
	case "2":
		fmt.Print(report.Table2(study.Table2(results)))
	case "3":
		fmt.Print(report.Table3(study.Table3(results)))
	case "amdahl":
		fmt.Print(report.Amdahl(results))
	case "all":
		fmt.Print(report.Table1(workloads.All()))
		fmt.Println()
		fmt.Print(report.Table2(study.Table2(results)))
		fmt.Println()
		fmt.Print(report.Table3(study.Table3(results)))
		fmt.Println()
		fmt.Print(report.Amdahl(results))
		fmt.Println()
		rows, err := study.RunFortunaAll(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.Fortuna(rows))
		poly := 0
		for _, r := range results {
			poly += len(r.PolymorphicVars)
		}
		fmt.Printf("\npolymorphic variables in hot loops across all apps: %d (paper: none found)\n", poly)
	}
	if err != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "casestudy:", err)
	os.Exit(1)
}
