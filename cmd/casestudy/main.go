// Command casestudy regenerates the paper's case-study artifacts:
// Table 1 (application list), Table 2 (running times), Table 3 (loop-nest
// inspection), the Amdahl bounds of §4.2, and the Fortuna-style
// task-level baseline of §6; with -table=survey, the survey artifacts
// of §2 instead (Figures 1–4, inter-rater agreement and the §2.3
// operator preference), always from the published corpus,
// survey.CorpusSeed.
//
// Usage:
//
//	casestudy [-table=all|1|2|3|amdahl|fortuna|survey] [-exec] [-scale=N] [-seed=N] [-workers=N] [-timing] [-static=off|assist]
//
// -scale divides workload sizes (1 = full Table 2/3 configuration); it
// must be at least 1, and other than 1 it is an error with a table that
// runs no workload (1, survey).
// -workers sizes the scheduler's goroutine pool
// (0 = GOMAXPROCS, 1 = sequential; negative is an error); output is
// byte-identical at every worker count.
// -timing appends the per-job wall-clock report plus the scheduler's
// chunk count; it is an error with -exec or with a table the
// orchestrated study does not produce (1, fortuna, survey).
// -exec runs ModeExec instead: every ParallelArray-convertible hot loop
// executes through the speculative autopar engine at a ladder of worker
// counts (1/2/4/8 by default; -workers N narrows the ladder to {1, N}),
// reporting measured speedup and chunk counts next to the
// ModeDeep Amdahl bound; its last row is the image pipeline, fused
// (pipePar) against chained mapPar. -static selects the purity prover's
// mode; a value other than off or assist, or -static without -exec, is
// an error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/autopar"
	"repro/internal/report"
	"repro/internal/study"
	"repro/internal/survey"
	"repro/internal/workloads"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "casestudy:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and output streams passed in.
// An error means the command failed; nothing has been written to stdout
// when the flags themselves are wrong.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("casestudy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which artifact to print: all, 1, 2, 3, amdahl, fortuna, survey (all omits survey)")
	execMode := fs.Bool("exec", false, "run ModeExec: speculative ParallelArray execution with measured speedup")
	scaleDiv := fs.Int("scale", 1, "divide workload sizes by N (1 = paper-scale)")
	seed := fs.Uint64("seed", 7, "deterministic seed")
	workers := fs.Int("workers", 0, "scheduler pool size (0 = GOMAXPROCS, 1 = sequential); with -exec, the top of the {1, N} measurement ladder")
	timing := fs.Bool("timing", false, "print per-job and total wall-clock times to stderr")
	staticFlag := fs.String("static", "off", "static purity prover mode for -exec: off (speculate+guard everything), assist (guard-free dispatch for proven kernels, refuse refuted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	switch *table {
	case "all", "1", "2", "3", "amdahl", "fortuna", "survey":
	default:
		return fmt.Errorf("unknown -table=%s", *table)
	}
	if *execMode && *table != "all" {
		return fmt.Errorf("-exec conflicts with -table=%s (exec prints only the ModeExec table)", *table)
	}
	switch {
	case *timing && *execMode:
		return errors.New("-timing does not apply to -exec (wall clock is in the table itself)")
	case *timing && (*table == "1" || *table == "fortuna" || *table == "survey"):
		return fmt.Errorf("-timing does not apply to -table=%s (it times the orchestrated study)", *table)
	case *scaleDiv < 1:
		return fmt.Errorf("-scale=%d: the divisor must be at least 1", *scaleDiv)
	case *scaleDiv != 1 && (*table == "1" || *table == "survey"):
		return fmt.Errorf("-scale does not apply to -table=%s (it runs no workload)", *table)
	case *workers < 0:
		return fmt.Errorf("-workers=%d: the pool size must be 0 (GOMAXPROCS) or more", *workers)
	case set["static"] && !*execMode:
		return errors.New("-static applies only to -exec")
	}
	static, err := autopar.ParseStaticMode(*staticFlag)
	if err != nil {
		return err
	}
	sc := workloads.Scale{Div: *scaleDiv}
	apps := workloads.AllAt(sc)

	if *execMode {
		counts := study.ExecWorkerCounts
		if *workers > 0 {
			counts = []int{1, *workers}
		}
		rows, measured, err := study.RunExecAll(*seed, sc, counts, static)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, report.Exec(rows, measured))
		for _, r := range rows {
			if !r.Identical {
				return fmt.Errorf("exec: %s/%s output not byte-identical across worker counts", r.App, r.Loop)
			}
			if r.PairsFound != r.PairsWant {
				return fmt.Errorf("exec: %s/%s: detector found %d produce->consume pairs, want %d", r.App, r.Loop, r.PairsFound, r.PairsWant)
			}
		}
		return nil
	}

	if *table == "survey" {
		return printSurvey(stdout)
	}
	if *table == "1" {
		fmt.Fprint(stdout, report.Table1(apps))
		return nil
	}
	if *table == "fortuna" {
		rows, err := study.RunFortunaAll(*seed, sc)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, report.Fortuna(rows))
		return nil
	}

	rep, err := study.Orchestrate(context.Background(), study.Options{Seed: *seed, Workers: *workers, Workloads: apps})
	if *timing {
		for _, jt := range rep.Timings {
			fmt.Fprintf(stderr, "job %-20s %-5s %8.2fms\n", jt.App, jt.Mode, float64(jt.Wall.Microseconds())/1000)
		}
		fmt.Fprintf(stderr, "orchestrated %d jobs on %d workers in %.2fs (%d chunks)\n",
			len(rep.Timings), rep.Workers, rep.Wall.Seconds(), rep.Sched.Chunks)
	}
	// The orchestrator aggregates failures instead of failing fast: print
	// whatever apps survived, then report the failures.
	if err != nil && len(rep.Results) == 0 {
		return err
	}
	results := rep.Results
	switch *table {
	case "2":
		fmt.Fprint(stdout, report.Table2(study.Table2(results)))
	case "3":
		fmt.Fprint(stdout, report.Table3(study.Table3(results)))
	case "amdahl":
		fmt.Fprint(stdout, report.Amdahl(results))
	case "all":
		fmt.Fprint(stdout, report.Table1(apps))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Table2(study.Table2(results)))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Table3(study.Table3(results)))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Amdahl(results))
		fmt.Fprintln(stdout)
		rows, err := study.RunFortunaAll(*seed, sc)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, report.Fortuna(rows))
		poly := 0
		for _, r := range results {
			poly += len(r.PolymorphicVars)
		}
		fmt.Fprintf(stdout, "\npolymorphic variables in hot loops across all apps: %d (paper: none found)\n", poly)
	}
	return err
}

// printSurvey prints the §2 survey artifacts of the published corpus.
func printSurvey(stdout io.Writer) error {
	corpus := survey.Generate(survey.CorpusSeed)
	if err := corpus.Validate(); err != nil {
		return err
	}
	coder := survey.NewCoder()
	rows, valid := survey.Figure1(corpus, coder)
	fmt.Fprintln(stdout, report.Figure1(rows, valid))
	fmt.Fprintln(stdout, report.Figure2(survey.Figure2(corpus)))
	fmt.Fprintln(stdout, report.ScaleFigure(
		"Figure 3. Programming style preference scale from Functional (1) to Imperative (5)",
		"strongly functional", "strongly imperative", survey.Figure3(corpus)))
	fmt.Fprintln(stdout, report.ScaleFigure(
		"Figure 4. Preference scale for variables: from Monomorphic (1) to Polymorphic (5)",
		"purely monomorphic", "extensively polymorphic", survey.Figure4(corpus)))

	agreement := survey.InterRaterAgreement(corpus, coder, survey.NewSecondCoder(), 0.20)
	fmt.Fprintf(stdout, "inter-rater agreement (Jaccard, 20%% of data): %.0f%% (paper: >80%%)\n", 100*agreement)
	prefer, answered := survey.OperatorPreference(corpus)
	fmt.Fprintf(stdout, "prefer high-level array operators over loops: %d/%d = %.0f%% (paper: 74%%)\n",
		prefer, answered, 100*float64(prefer)/float64(answered))
	g := survey.GlobalsBreakdown(corpus)
	fmt.Fprintf(stdout, "globals question (§2.4): %d answered; namespace/module %d, page communication %d, singletons %d, debugging %d, never %d\n",
		g.Answered, g.Namespace, g.PageComm, g.Singleton, g.Debugging, g.Never)
	return nil
}
