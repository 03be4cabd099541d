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
	"flag"
	"fmt"
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
	app := flag.String("app", "", "Table 1 application name (see casestudy -table=1)")
	file := flag.String("file", "", "analyze a standalone JavaScript file instead")
	mode := flag.String("mode", "light", "instrumentation mode: light, loops, deps")
	focus := flag.Int("focus", 0, "deps mode: focus on one loop ID (0 = all)")
	scaleDiv := flag.Int("scale", 1, "divide workload sizes by N")
	seed := flag.Uint64("seed", 7, "deterministic seed")
	maxWarn := flag.Int("maxwarnings", 40, "max warnings to print in deps mode")
	flag.Parse()

	workloads.SetScale(workloads.Scale{Div: *scaleDiv})

	if *file != "" {
		if err := runFile(*file, *mode, ast.LoopID(*focus), *maxWarn); err != nil {
			fatal(err)
		}
		return
	}
	if *app == "" {
		fatal(fmt.Errorf("need -app or -file; run `casestudy -table=1` for app names"))
	}
	wl, err := workloads.ByName(*app)
	if err != nil {
		fatal(err)
	}

	switch *mode {
	case "light":
		row, err := study.RunLight(wl, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s — lightweight profiling (§3.1)\n", wl.Name)
		fmt.Printf("  total:    %8.2f s\n", row.TotalS)
		fmt.Printf("  active:   %8.2f s (Gecko-style sampled)\n", row.ActiveS)
		fmt.Printf("  in loops: %8.2f s\n", row.LoopsS)
		if row.ActiveBelowLoops() {
			fmt.Println("  note: active < in-loops — the sampling artifact of §3.1")
		}
	case "loops", "deps":
		res, err := study.RunDeep(wl, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s — loop nests (§3.2/§3.3)\n", wl.Name)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "nest\t%loop\tinstances\ttrips\tdivergence\tDOM\tdeps\tparallelization")
		for _, n := range res.Nests {
			fmt.Fprintf(tw, "%s\t%.0f\t%d\t%.0f±%.0f\t%s\t%v\t%s\t%s\n",
				n.Label, n.PctLoop, n.Instanc, n.TripMean, n.TripStd,
				n.Divergence, n.DOMAccess, n.DepDiff, n.ParDiff)
		}
		tw.Flush()
		fmt.Printf("Amdahl bound (easy nests): %.2fx; (breakable nests): %.2fx\n",
			res.AmdahlEasy, res.AmdahlBreakable)
		if *mode == "deps" {
			if err := printWarnings(wl, *seed, ast.LoopID(*focus), *maxWarn); err != nil {
				fatal(err)
			}
		}
	default:
		fatal(fmt.Errorf("unknown -mode=%s", *mode))
	}
}

// printWarnings re-runs the workload with a focused dependence analyzer
// and prints the paper-style warning report.
func printWarnings(wl *workloads.Workload, seed uint64, focus ast.LoopID, maxWarn int) error {
	in := workloads.NewInterp(seed)
	prog, err := workloads.Parse(wl)
	if err != nil {
		return err
	}
	dep := core.NewDepAnalyzer(focus)
	in.SetHooks(dep)
	if _, err := workloads.Run(wl, in); err != nil {
		return err
	}
	warnings := dep.Warnings()
	fmt.Printf("\ndependence warnings (%d distinct):\n", len(warnings))
	for i, w := range warnings {
		if i >= maxWarn {
			fmt.Printf("  ... %d more\n", len(warnings)-maxWarn)
			break
		}
		fmt.Printf("  [%6dx] %s\n", w.Count, w.Format(prog.Loops))
	}
	if vars := dep.PolymorphicVars(); len(vars) > 0 {
		fmt.Printf("polymorphic variables: %v\n", vars)
	} else {
		fmt.Println("polymorphic variables: none (§4.2)")
	}
	return nil
}

// runFile analyzes a standalone script (no browser substrate).
func runFile(path, mode string, focus ast.LoopID, maxWarn int) error {
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
		fmt.Printf("total %.3f s, active %.3f s, in loops %.3f s\n",
			float64(light.TotalTime())/1e9, float64(sampler.ActiveTime())/1e9, float64(light.InLoopTime())/1e9)
	case "loops":
		lp := core.NewLoopProfiler(in)
		in.SetHooks(lp)
		if err := in.Run(prog); err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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
		for i, w := range dep.Warnings() {
			if i >= maxWarn {
				break
			}
			fmt.Printf("[%6dx] %s\n", w.Count, w.Format(prog.Loops))
		}
	default:
		return fmt.Errorf("unknown -mode=%s", mode)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jsceres:", err)
	os.Exit(1)
}
