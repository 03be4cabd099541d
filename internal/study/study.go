// Package study orchestrates the full case-study pipeline of §3–§4: it
// runs each Table 1 workload under the staged JS-CERES instrumentation
// modes and regenerates Table 2 (running time), Table 3 (loop-nest
// inspection) and the §4.2 findings (polymorphism, Amdahl bounds), plus
// the §5 ModeExec stage that measures speculative execution and the §6
// Fortuna et al. task-level baseline (RunFortuna over a TaskGraph).
//
// Concurrency/determinism contract: Orchestrate schedules the
// (workload × analysis-mode) grid through internal/sched's pool at job
// granularity, jobs claimed one at a time in input order. Jobs share no mutable state — each builds its
// own interpreter, parser and analyzers from (workload, seed) — their
// results land in index-addressed slots, and the merge happens in input
// (Table 1) order, so rendered output is byte-identical at every worker
// count; chunk telemetry is reported separately (RunReport.Sched)
// and never feeds the tables. Job failures aggregate instead of
// cancelling siblings. ModeExec runs are wall-clock measurements and
// therefore execute one at a time, never on the shared pool.
package study

import (
	"repro/internal/core"
	"repro/internal/gecko"
	"repro/internal/js/ast"
	"repro/internal/workloads"
)

// Table2Row is one row of Table 2: total, active (Gecko-sampled) and
// in-loop virtual seconds for one application.
type Table2Row struct {
	Name    string
	TotalS  float64
	ActiveS float64
	LoopsS  float64

	// ScriptS is ground truth script time (not in the paper's table; the
	// sampler is compared against it in tests).
	ScriptS float64

	// Paper values for side-by-side reporting.
	PaperTotalS, PaperActiveS, PaperLoopsS float64
}

// ComputeIntensive applies the paper's criterion: the CPU is active for a
// large portion of the running time.
func (r Table2Row) ComputeIntensive() bool {
	return r.TotalS > 0 && r.ScriptS/r.TotalS >= 0.25
}

// ActiveBelowLoops reports the §3.1 sampling anomaly for this app.
func (r Table2Row) ActiveBelowLoops() bool { return r.ActiveS < r.LoopsS }

// Table3Row is one row of Table 3 plus its owning application.
type Table3Row struct {
	App string
	core.NestReport
}

// AppResult bundles everything measured for one workload.
type AppResult struct {
	Workload *workloads.Workload
	Table2   Table2Row
	Nests    []core.NestReport
	// PolymorphicVars from the dependence run (§4.2: expected empty in
	// hot code).
	PolymorphicVars []string
	// AmdahlEasy is the infinite-core speedup bound counting only nests
	// with parallelization difficulty ≤ easy (the paper's ">3× for 5 of
	// 12" claim).
	AmdahlEasy float64
	// Amdahl16 is the 16-core bound over the same nests.
	Amdahl16 float64
	// AmdahlBreakable widens the bound to nests with parallelization
	// difficulty ≤ medium (dependences breakable with modest effort).
	AmdahlBreakable float64
}

// RunLight executes the workload in lightweight-profiling mode (§3.1)
// with the Gecko-style sampler attached, filling a Table2Row.
func RunLight(wl *workloads.Workload, seed uint64) (Table2Row, error) {
	in := workloads.NewInterp(seed)
	light := core.NewLightProfiler(in)
	sampler := gecko.NewSampler(in)
	in.SetHooks(light, sampler)
	if _, err := workloads.Run(wl, in); err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		Name:         wl.Name,
		TotalS:       seconds(light.TotalTime()),
		ActiveS:      seconds(sampler.ActiveTime()),
		LoopsS:       seconds(light.InLoopTime()),
		ScriptS:      seconds(in.ScriptTime()),
		PaperTotalS:  wl.PaperTotalS,
		PaperActiveS: wl.PaperActiveS,
		PaperLoopsS:  wl.PaperLoopsS,
	}, nil
}

// RunDeep executes the workload with loop profiling (§3.2) and dependence
// analysis (§3.3) enabled and classifies its loop nests (Table 3).
func RunDeep(wl *workloads.Workload, seed uint64) (*AppResult, error) {
	// Stage 1: light profile for Table 2.
	t2, err := RunLight(wl, seed)
	if err != nil {
		return nil, err
	}
	res, _, _, err := RunDeepOnly(wl, seed)
	if err != nil {
		return nil, err
	}
	res.Table2 = t2
	return res, nil
}

// RunDeepOnly is the deep half of RunDeep — stages 2+3 without the light
// profile, so the orchestrator can schedule the two as independent jobs.
// The returned AppResult has a zero Table2; the caller merges it in. The
// analyzer and the parsed program come back too, for callers that render
// the raw warnings and per-loop summaries behind the tables (jsceres
// -mode deps).
func RunDeepOnly(wl *workloads.Workload, seed uint64) (*AppResult, *core.DepAnalyzer, *ast.Program, error) {
	// Stage 2+3: loop profile + dependence analysis in one run (the modes
	// are separate in the paper to control overhead; virtual time makes
	// them composable here because instrumentation cost is invisible to
	// the virtual clock).
	in := workloads.NewInterp(seed)
	prog, err := workloads.Parse(wl)
	if err != nil {
		return nil, nil, nil, err
	}
	lp := core.NewLoopProfiler(in)
	dep := core.NewDepAnalyzer(ast.NoLoop)
	in.SetHooks(lp, dep)
	if _, err := workloads.Run(wl, in); err != nil {
		return nil, nil, nil, err
	}

	nests := core.ClassifyNests(prog, lp, dep)
	// Keep the nests covering the top two-thirds of loop time (≥4 rows
	// like the paper's per-app selections).
	nests = TopNests(nests, 0.80, 4)

	res := &AppResult{
		Workload:        wl,
		Nests:           nests,
		PolymorphicVars: dep.PolymorphicVars(),
	}
	scriptNS := in.ScriptTime()
	easy := func(n *core.NestReport) bool { return n.ParDiff <= core.Easy }
	breakable := func(n *core.NestReport) bool { return n.ParDiff <= core.Medium }
	res.AmdahlEasy = core.AmdahlBound(nests, scriptNS, easy)
	res.Amdahl16 = core.AmdahlBoundCores(nests, scriptNS, 16, easy)
	res.AmdahlBreakable = core.AmdahlBound(nests, scriptNS, breakable)
	return res, dep, prog, nil
}

// TopNests keeps rows (already time-sorted) until cumulative loop-time
// coverage reaches frac, with at most maxRows.
func TopNests(nests []core.NestReport, frac float64, maxRows int) []core.NestReport {
	var cum float64
	out := make([]core.NestReport, 0, maxRows)
	for _, n := range nests {
		if len(out) >= maxRows {
			break
		}
		out = append(out, n)
		cum += n.PctLoop
		if cum >= 100*frac {
			break
		}
	}
	return out
}

// Table2 extracts Table 2 rows from results.
func Table2(results []*AppResult) []Table2Row {
	out := make([]Table2Row, len(results))
	for i, r := range results {
		out[i] = r.Table2
	}
	return out
}

// Table3 flattens per-app nest rows in Table 1 order.
func Table3(results []*AppResult) []Table3Row {
	var out []Table3Row
	for _, r := range results {
		for _, n := range r.Nests {
			out = append(out, Table3Row{App: r.Workload.Name, NestReport: n})
		}
	}
	return out
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
