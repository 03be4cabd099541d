// Benchmarks regenerating the tables and figures of the paper's
// evaluation, plus the ablations DESIGN.md calls out.
//
// Run:  go test -bench=. -benchmem
//
// What lives here, and what does not (DESIGN.md's per-experiment index
// applies the same rule):
//
//   - A benchmark is in this file iff it regenerates a numbered paper
//     artifact (BenchmarkFigN*, BenchmarkTableN, BenchmarkSec51Primitives,
//     BenchmarkFortunaBaseline) or a DESIGN-named ablation. Its
//     ReportMetric values carry the reproduced headline numbers, so
//     `-bench` output doubles as an experiment log.
//   - A wall-clock, worker-ladder or per-layer number lives in bench/
//     under its metric name (bash bench/run.sh --workload <w> --trace 1).
//   - An invariant (isolation, shed order, balance under skew,
//     single-flight, cached-body byte-identity, 429 backpressure) lives in a
//     `go test` or a live CI smoke, never in a committed document.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/autopar"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
	"repro/internal/parallel"
	"repro/internal/study"
	"repro/internal/survey"
	"repro/internal/workloads"
)

// benchScale keeps full-suite benchmark time reasonable; the shapes
// (ratios, classifications) are scale-invariant.
var benchScale = workloads.Scale{Div: 4}

// ---- Figure 1: future web application categories ----

func BenchmarkFig1Categories(b *testing.B) {
	coder := survey.NewCoder()
	var games float64
	for i := 0; i < b.N; i++ {
		c := survey.Generate(survey.CorpusSeed)
		rows, _ := survey.Figure1(c, coder)
		games = rows[0].Percent
	}
	b.ReportMetric(games, "games_pct")
}

// ---- Figure 2: performance bottlenecks ----

func BenchmarkFig2Bottlenecks(b *testing.B) {
	var loading float64
	for i := 0; i < b.N; i++ {
		c := survey.Generate(survey.CorpusSeed)
		rows := survey.Figure2(c)
		loading = rows[0].PctBottleneck()
	}
	b.ReportMetric(loading, "resource_loading_pct")
}

// ---- Figure 3: functional vs imperative ----

func BenchmarkFig3Style(b *testing.B) {
	var functional float64
	for i := 0; i < b.N; i++ {
		h := survey.Figure3(survey.Generate(survey.CorpusSeed))
		functional = h.Percent(1)
	}
	b.ReportMetric(functional, "functional_pct")
}

// ---- Figure 4: monomorphic vs polymorphic ----

func BenchmarkFig4Polymorphism(b *testing.B) {
	var mono float64
	for i := 0; i < b.N; i++ {
		h := survey.Figure4(survey.Generate(survey.CorpusSeed))
		mono = h.Percent(1)
	}
	b.ReportMetric(mono, "monomorphic_pct")
}

// ---- Figure 5: the instrumentation proxy pipeline ----

func BenchmarkFig5ProxyPipeline(b *testing.B) {
	src := `
var sum = 0;
function work() {
  for (var i = 0; i < 500; i++) { sum += i * i; }
}
work();
`
	for i := 0; i < b.N; i++ {
		res, err := instrument.Rewrite(src, instrument.ModeLoops)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := parser.Parse(res.Source)
		if err != nil {
			b.Fatal(err)
		}
		in := interp.New()
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
		rep, err := in.SafeCall(in.Global("__ceresReport"), value.Undefined(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if total, _ := rep.Object().Get("totalMs"); !(total.ToNumber() > 0) {
			b.Fatal("no report")
		}
	}
}

// ---- Figure 6 / §3.3: N-body dependence analysis ----

const nbodyBench = `var bodies = [];
function Particle() { this.x = 0; this.y = 0; this.vX = 0; this.vY = 0; this.fX = 0; this.fY = 0; this.m = 1; }
var dT = 0.01;
for (var s = 0; s < 32; s++) { bodies.push(new Particle()); }
function step() {
  var com = new Particle();
  for (var i = 0; i < bodies.length; i++) {
    var p = bodies[i];
    p.vX += 0.001 / p.m * dT;
    p.x += p.vX * dT;
    com.m = com.m + p.m;
    com.x = (com.x * (com.m - p.m) + p.x * p.m) / com.m;
  }
  return com;
}
var steps = 0;
while (steps < 8) { var com = step(); steps++; }
`

func BenchmarkFig6NBodyAnalysis(b *testing.B) {
	var warnings int
	for i := 0; i < b.N; i++ {
		prog := parser.MustParse(nbodyBench)
		in := interp.New()
		dep := core.NewDepAnalyzer(ast.NoLoop)
		in.SetHooks(dep)
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
		warnings = len(dep.Warnings())
	}
	b.ReportMetric(float64(warnings), "warnings")
}

// ---- Table 2: per-application running time ----

func benchTable2(b *testing.B, wl *workloads.Workload) {
	var row study.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = study.RunLight(wl, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.TotalS, "total_vs")
	b.ReportMetric(row.ActiveS, "active_vs")
	b.ReportMetric(row.LoopsS, "inloops_vs")
}

func BenchmarkTable2(b *testing.B) {
	for _, wl := range workloads.AllAt(benchScale) {
		b.Run(sanitize(wl.Name), func(b *testing.B) { benchTable2(b, wl) })
	}
}

// ---- Table 3: loop-nest inspection ----

func benchTable3(b *testing.B, wl *workloads.Workload) {
	var res *study.AppResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = study.RunDeep(wl, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Nests) > 0 {
		b.ReportMetric(res.Nests[0].PctLoop, "top_nest_pct")
		b.ReportMetric(float64(res.Nests[0].ParDiff), "par_difficulty_0to4")
	}
	b.ReportMetric(res.AmdahlBreakable, "amdahl_x")
}

func BenchmarkTable3(b *testing.B) {
	for _, wl := range workloads.AllAt(benchScale) {
		b.Run(sanitize(wl.Name), func(b *testing.B) { benchTable3(b, wl) })
	}
}

// ---- §6 baseline: Fortuna-style task-level limit study ----

func BenchmarkFortunaBaseline(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := study.RunFortunaAll(7, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.Limit
		}
		avg = sum / float64(len(rows))
	}
	b.ReportMetric(avg, "avg_task_speedup_x")
}

// ---- §5.1: the River Trail primitives on real goroutines ----

const benchKernel = `
function kernel(i) {
  var acc = 0;
  for (var j = 0; j < 40; j++) {
    acc += (i * 31 + j * j) % 97;
  }
  return acc;
}
`

// foldElementals are the reduce combiner and filter predicate the §5.1
// benchmark runs over the map's values.
const foldElementals = `
function combine(a, b, i) { return a + b; }
function pred(x, i) { return x % 2 === 0; }
`

// BenchmarkSec51Primitives runs map over a synthetic kernel on
// share-nothing worker interpreters (internal/parallel), then reduce and
// filter over the map's values on the speculative engine that
// ParallelArray's reducePar/filterPar ship on (internal/autopar). The
// ladder stops at 4: the per-kernel wall clock and efficiency are
// bench/'s exec workload (autopar.wN_ms.*, parallel.efficiency).
func BenchmarkSec51Primitives(b *testing.B) {
	const mapN = 2048
	loops := &parallel.Kernel{Source: benchKernel}
	mapped, err := loops.MapSequential(mapN)
	if err != nil {
		b.Fatal(err)
	}
	in := interp.New()
	if err := in.Run(parser.MustParse(foldElementals)); err != nil {
		b.Fatal(err)
	}
	combine, pred := in.Global("combine"), in.Global("pred")
	ops := []struct {
		name string
		run  func(workers int) (ok bool, err error)
	}{
		{"map", func(w int) (bool, error) {
			res, err := loops.MapParallel(mapN, w)
			return err == nil && len(res.Values) == mapN, err
		}},
		{"reduce", func(w int) (bool, error) {
			v, oc := autopar.ReduceSpec(in, combine, mapped.Values, value.Undefined(), false, autopar.Options{Workers: w})
			return v.ToNumber() > 0 && (w < 2 || oc.Parallel), nil
		}},
		{"filter", func(w int) (bool, error) {
			keep, oc := autopar.FilterSpec(in, pred, mapped.Values, autopar.Options{Workers: w})
			return len(keep) == mapN && (w < 2 || oc.Parallel), nil
		}},
	}
	for _, op := range ops {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/w=%d", op.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ok, err := op.run(workers)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						b.Fatal("bad result")
					}
				}
			})
		}
	}
}

// ---- Ablations ----

// BenchmarkAblationInstrumentationOverhead measures the real (host) cost
// of each instrumentation stage on the same workload — the rationale for
// the paper's *staged* design (§3: "the three modes are separated in
// order to minimize the bias ... due to the instrumentation overhead").
func BenchmarkAblationInstrumentationOverhead(b *testing.B) {
	modes := []struct {
		name  string
		hooks func(in *interp.Interp) any
	}{
		{"none", func(in *interp.Interp) any { return nil }},
		{"light", func(in *interp.Interp) any { return core.NewLightProfiler(in) }},
		{"loops", func(in *interp.Interp) any { return core.NewLoopProfiler(in) }},
		{"deps", func(in *interp.Interp) any { return core.NewDepAnalyzer(ast.NoLoop) }},
		{"deps-focused", func(in *interp.Interp) any {
			// focusing on a single loop (the paper's §3.3 workflow) skips
			// most warning bookkeeping
			return core.NewDepAnalyzer(ast.LoopID(2))
		}},
	}
	wl, err := workloads.ByName("fluidSim", workloads.Scale{Div: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := workloads.NewInterp(7)
				in.SetHooks(m.hooks(in))
				if _, err := workloads.Run(wl, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStampCaching isolates the snapshot-cache design in the
// dependence analyzer: stamps are shared until the loop stack changes.
func BenchmarkAblationStampCaching(b *testing.B) {
	src := `
var a = new Array(512);
for (var i = 0; i < 512; i++) {
  a[i] = i;
  a[i] += 1;
  a[i] *= 2;
}
`
	for i := 0; i < b.N; i++ {
		prog := parser.MustParse(src)
		in := interp.New()
		dep := core.NewDepAnalyzer(ast.NoLoop)
		in.SetHooks(dep)
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r == ' ' || r == '.' || r == '-':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
