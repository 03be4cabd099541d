// Command jsceres runs JS-CERES on one case-study application (or an
// arbitrary JavaScript file) in one of the three instrumentation modes of
// §3 and prints the analysis report.
//
// Usage:
//
//	jsceres -app "fluidSim" -mode light
//	jsceres -app "Realtime Raytracing" -mode loops
//	jsceres -app "Tear-able Cloth" -mode deps [-focus 3]
//	jsceres -file path/to/app.js -mode deps
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/gecko"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/study"
	"repro/internal/workloads"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsceres:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and output streams passed in.
// An error means the command failed; nothing has been written to stdout
// when the flags themselves are wrong.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("jsceres", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "Table 1 application name (see casestudy -table=1)")
	file := fs.String("file", "", "analyze a standalone JavaScript file instead")
	mode := fs.String("mode", "light", "instrumentation mode: light, loops, deps")
	focus := fs.Int("focus", 0, "deps mode: focus on one loop ID (0 = all)")
	scaleDiv := fs.Int("scale", 1, "divide workload sizes by N")
	seed := fs.Uint64("seed", 7, "deterministic seed")
	maxWarn := fs.Int("maxwarnings", 40, "max warnings to print in deps mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *mode {
	case "light", "loops", "deps":
	default:
		return fmt.Errorf("unknown -mode=%s", *mode)
	}
	switch {
	case *scaleDiv < 1:
		return fmt.Errorf("-scale=%d: the divisor must be at least 1", *scaleDiv)
	case *scaleDiv != 1 && *file != "":
		return errors.New("-scale does not apply to -file (it runs no workload)")
	}

	if *file != "" {
		return runFile(stdout, *file, *mode, ast.LoopID(*focus), *maxWarn)
	}
	if *app == "" {
		return errors.New("need -app or -file; run `casestudy -table=1` for app names")
	}
	wl, err := workloads.ByName(*app, workloads.Scale{Div: *scaleDiv})
	if err != nil {
		return err
	}

	if *mode == "light" {
		row, err := study.RunLight(wl, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s — lightweight profiling (§3.1)\n", wl.Name)
		fmt.Fprintf(stdout, "  total:    %8.2f s\n", row.TotalS)
		fmt.Fprintf(stdout, "  active:   %8.2f s (Gecko-style sampled)\n", row.ActiveS)
		fmt.Fprintf(stdout, "  in loops: %8.2f s\n", row.LoopsS)
		if row.ActiveBelowLoops() {
			fmt.Fprintln(stdout, "  note: active < in-loops — the sampling artifact of §3.1")
		}
		return nil
	}
	res, dep, prog, err := study.RunDeepOnly(wl, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s — loop nests (§3.2/§3.3)\n", wl.Name)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "nest\t%loop\tinstances\ttrips\tdivergence\tDOM\tdeps\tparallelization")
	for _, n := range res.Nests {
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%.0f±%.0f\t%s\t%v\t%s\t%s\n",
			n.Label, n.PctLoop, n.Instanc, n.TripMean, n.TripStd,
			n.Divergence, n.DOMAccess, n.DepDiff, n.ParDiff)
	}
	tw.Flush()
	fmt.Fprintf(stdout, "Amdahl bound (easy nests): %.2fx; (breakable nests): %.2fx\n",
		res.AmdahlEasy, res.AmdahlBreakable)
	if *mode != "deps" {
		return nil
	}
	if *focus != 0 {
		// A focused analyzer sees a different access stream than the
		// table's unfocused one, so it gets a run of its own.
		in := workloads.NewInterp(*seed)
		dep = core.NewDepAnalyzer(ast.LoopID(*focus))
		in.SetHooks(dep)
		if _, err := workloads.Run(wl, in); err != nil {
			return err
		}
	}
	printWarnings(stdout, dep, prog, *maxWarn)
	return nil
}

// printWarnings prints the paper-style warning report of dep.
func printWarnings(w io.Writer, dep *core.DepAnalyzer, prog *ast.Program, maxWarn int) {
	warnings := dep.Warnings()
	fmt.Fprintf(w, "\ndependence warnings (%d distinct):\n", len(warnings))
	for i, warn := range warnings {
		if i >= maxWarn {
			fmt.Fprintf(w, "  ... %d more\n", len(warnings)-maxWarn)
			break
		}
		fmt.Fprintf(w, "  [%6dx] %s\n", warn.Count, warn.Format(prog.Loops))
	}
	if vars := dep.PolymorphicVars(); len(vars) > 0 {
		fmt.Fprintf(w, "polymorphic variables: %v\n", vars)
	} else {
		fmt.Fprintln(w, "polymorphic variables: none (§4.2)")
	}
}

// runFile analyzes a standalone script (no browser substrate).
func runFile(w io.Writer, path, mode string, focus ast.LoopID, maxWarn int) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := interp.Load(string(src))
	if err != nil {
		return err
	}
	in := interp.New(interp.WithNSPerStep(workloads.NSPerStep))

	switch mode {
	case "light":
		light := core.NewLightProfiler(in)
		sampler := gecko.NewSampler(in)
		in.SetHooks(light, sampler)
		if err := in.Run(prog); err != nil {
			return err
		}
		fmt.Fprintf(w, "total %.3f s, active %.3f s, in loops %.3f s\n",
			float64(light.TotalTime())/1e9, float64(sampler.ActiveTime())/1e9, float64(light.InLoopTime())/1e9)
	case "loops":
		lp := core.NewLoopProfiler(in)
		in.SetHooks(lp)
		if err := in.Run(prog); err != nil {
			return err
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "loop\tinstances\ttotal ms\ttrips")
		for _, s := range lp.AllStats() {
			fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.1f±%.1f\n",
				prog.Loops[s.ID-1].Label(), s.Instances, s.Time.Sum()/1e6, s.Trips.Mean(), s.Trips.StdDev())
		}
		tw.Flush()
	case "deps":
		dep := core.NewDepAnalyzer(focus)
		in.SetHooks(dep)
		if err := in.Run(prog); err != nil {
			return err
		}
		for i, warn := range dep.Warnings() {
			if i >= maxWarn {
				break
			}
			fmt.Fprintf(w, "[%6dx] %s\n", warn.Count, warn.Format(prog.Loops))
		}
	}
	return nil
}
