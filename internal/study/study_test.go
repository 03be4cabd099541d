package study

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// studyPass is the study at Scale{Div: 2}, seed 7: expensive, so it
// runs once per test binary and every shape test reads it.
var studyPass = sync.OnceValues(func() ([]*AppResult, error) {
	return RunAll(7, workloads.Scale{Div: 2}, 0)
})

func runStudy(t *testing.T) []*AppResult {
	t.Helper()
	results, err := studyPass()
	if err != nil {
		t.Fatalf("study: %v", err)
	}
	return results
}

func byApp(t *testing.T, results []*AppResult, name string) *AppResult {
	t.Helper()
	for _, r := range results {
		if r.Workload.Name == name {
			return r
		}
	}
	t.Fatalf("no result for %q", name)
	return nil
}

// TestTable2Shape asserts the load-bearing findings of Table 2: which apps
// are compute-intensive, which are idle-dominated, and where the Gecko
// sampling anomaly (Active < In Loops) appears.
func TestTable2Shape(t *testing.T) {
	t.Parallel()
	results := runStudy(t)
	if len(results) != 12 {
		t.Fatalf("want 12 apps, got %d", len(results))
	}

	intensive := 0
	for _, r := range results {
		t2 := r.Table2
		if t2.TotalS <= 0 {
			t.Errorf("%s: no total time", t2.Name)
		}
		if t2.ComputeIntensive() {
			intensive++
		}
		if r.Workload.ExpectComputeIntensive && !t2.ComputeIntensive() {
			t.Errorf("%s: expected compute-intensive (script %.2fs of %.2fs)", t2.Name, t2.ScriptS, t2.TotalS)
		}
		if r.Workload.ExpectActiveBelowLoops && !t2.StrongAnomaly() {
			t.Errorf("%s: expected Active (%.2f) well below In-Loops (%.2f)", t2.Name, t2.ActiveS, t2.LoopsS)
		}
		// The sampler can never report more than real script time.
		if t2.ActiveS > t2.ScriptS*1.001 {
			t.Errorf("%s: sampled active %.2f exceeds script %.2f", t2.Name, t2.ActiveS, t2.ScriptS)
		}
	}
	// Paper: "at least half of the applications can be considered
	// computationally intensive".
	if intensive < 6 {
		t.Errorf("only %d of 12 apps compute-intensive, want >= 6", intensive)
	}

	// Interactive apps are idle-dominated.
	for _, name := range []string{"Harmony", "Ace", "MyScript"} {
		t2 := byApp(t, results, name).Table2
		if t2.ScriptS/t2.TotalS > 0.10 {
			t.Errorf("%s: script %.2fs of %.2fs — should be idle-dominated", name, t2.ScriptS, t2.TotalS)
		}
	}
}

// TestTable3Shape asserts the per-app Table 3 judgments the paper reports.
func TestTable3Shape(t *testing.T) {
	t.Parallel()
	results := runStudy(t)

	type expect struct {
		app        string
		domAccess  bool            // any nest touches DOM/canvas
		parAtMost  core.Difficulty // easiest nest's parallelization difficulty
		depAtMost  core.Difficulty // easiest nest's dependence difficulty
		allParHard bool            // every nest ≥ hard to parallelize
	}
	cases := []expect{
		{app: "HAAR.js", domAccess: false, parAtMost: core.Easy, depAtMost: core.VeryEasy},
		{app: "Tear-able Cloth", domAccess: false, parAtMost: core.Medium, depAtMost: core.Medium},
		{app: "CamanJS", domAccess: false, parAtMost: core.Easy, depAtMost: core.Easy},
		{app: "fluidSim", domAccess: false, parAtMost: core.Easy, depAtMost: core.Easy},
		{app: "Harmony", domAccess: true, parAtMost: core.VeryHard, depAtMost: core.Easy, allParHard: true},
		{app: "Ace", domAccess: true, parAtMost: core.VeryHard, depAtMost: core.VeryHard, allParHard: true},
		{app: "MyScript", domAccess: true, parAtMost: core.VeryHard, depAtMost: core.Hard, allParHard: true},
		{app: "Realtime Raytracing", domAccess: false, parAtMost: core.Easy, depAtMost: core.VeryEasy},
		{app: "Normal Mapping", domAccess: false, parAtMost: core.Easy, depAtMost: core.VeryEasy},
		{app: "sigma.js", domAccess: true, parAtMost: core.Hard, depAtMost: core.Hard, allParHard: true},
		{app: "processing.js", domAccess: true, parAtMost: core.Medium, depAtMost: core.VeryEasy},
		{app: "D3.js", domAccess: true, parAtMost: core.Hard, depAtMost: core.Hard, allParHard: true},
	}
	for _, c := range cases {
		r := byApp(t, results, c.app)
		if len(r.Nests) == 0 {
			t.Errorf("%s: no nests reported", c.app)
			continue
		}
		anyDOM := false
		easiestPar := core.VeryHard
		easiestDep := core.VeryHard
		allHard := true
		for _, n := range r.Nests {
			if n.DOMAccess {
				anyDOM = true
			}
			if n.ParDiff < easiestPar {
				easiestPar = n.ParDiff
			}
			if n.DepDiff < easiestDep {
				easiestDep = n.DepDiff
			}
			if n.ParDiff < core.Hard {
				allHard = false
			}
		}
		if anyDOM != c.domAccess {
			t.Errorf("%s: DOM access = %v, want %v", c.app, anyDOM, c.domAccess)
		}
		if easiestPar > c.parAtMost {
			t.Errorf("%s: easiest nest par difficulty %s, want <= %s", c.app, easiestPar, c.parAtMost)
		}
		if easiestDep > c.depAtMost {
			t.Errorf("%s: easiest nest dep difficulty %s, want <= %s", c.app, easiestDep, c.depAtMost)
		}
		if c.allParHard && !allHard {
			t.Errorf("%s: expected every nest >= hard to parallelize", c.app)
		}
	}
}

// TestThreeQuartersParallelizable asserts the paper's headline: "About
// three fourths of the inspected loop nests have some intrinsic
// parallelism".
func TestThreeQuartersParallelizable(t *testing.T) {
	t.Parallel()
	results := runStudy(t)
	total, parallel := 0, 0
	for _, r := range results {
		for i := range r.Nests {
			total++
			if r.Nests[i].Parallelizable() {
				parallel++
			}
		}
	}
	if total < 12 {
		t.Fatalf("only %d nests inspected", total)
	}
	frac := float64(parallel) / float64(total)
	if frac < 0.60 {
		t.Errorf("parallelizable nests: %d/%d = %.0f%%, paper reports ~75%%", parallel, total, 100*frac)
	}
}

// TestAmdahlFiveApps asserts the paper's Amdahl claim: speedup bound > 3×
// for 5 of the 12 applications counting easy-to-parallelize loops.
func TestAmdahlFiveApps(t *testing.T) {
	t.Parallel()
	results := runStudy(t)
	over3 := 0
	for _, r := range results {
		if r.AmdahlBreakable > 3 {
			over3++
		}
	}
	if over3 < 5 {
		t.Errorf("Amdahl bound >3x for %d apps, paper reports 5", over3)
	}
	// And the other side: several apps offer essentially nothing.
	none := 0
	for _, r := range results {
		if r.AmdahlBreakable < 1.2 {
			none++
		}
	}
	if none < 3 {
		t.Errorf("only %d apps with no exploitable bound; paper reports ~5 hard/very hard", none)
	}
}

// TestNoPolymorphicVariablesInHotLoops asserts §4.2: "Our manual
// inspection did not reveal any polymorphic variables within the
// computationally-intensive loops."
func TestNoPolymorphicVariablesInHotLoops(t *testing.T) {
	t.Parallel()
	results := runStudy(t)
	for _, r := range results {
		if len(r.PolymorphicVars) != 0 {
			t.Errorf("%s: polymorphic variables found: %v", r.Workload.Name, r.PolymorphicVars)
		}
	}
}

// TestDivergenceJudgments asserts the qualitative divergence column for
// the clearest paper rows.
func TestDivergenceJudgments(t *testing.T) {
	t.Parallel()
	results := runStudy(t)

	// Raytracing: "variable depth recursion" → yes.
	rt := byApp(t, results, "Realtime Raytracing")
	if rt.Nests[0].Divergence != core.DivYes {
		t.Errorf("raytracing divergence = %s, want yes", rt.Nests[0].Divergence)
	}
	// Ace: loops execute roughly one iteration → yes.
	ace := byApp(t, results, "Ace")
	for _, n := range ace.Nests {
		if n.Divergence != core.DivYes {
			t.Errorf("Ace nest %s divergence = %s, want yes", n.Label, n.Divergence)
		}
		if n.TripMean > 2.5 {
			t.Errorf("Ace nest %s trips %.1f, want ~1", n.Label, n.TripMean)
		}
	}
	// Harmony: straight-line brush loops → none.
	h := byApp(t, results, "Harmony")
	for _, n := range h.Nests {
		if n.Divergence != core.DivNone {
			t.Errorf("Harmony nest %s divergence = %s, want none", n.Label, n.Divergence)
		}
	}
	// fluidSim: no divergence in the solver sweep.
	fl := byApp(t, results, "fluidSim")
	if fl.Nests[0].Divergence != core.DivNone {
		t.Errorf("fluidSim divergence = %s, want none", fl.Nests[0].Divergence)
	}
	// fluidSim's row must be the promoted inner nest.
	if fl.Nests[0].PromotedFrom == 0 {
		t.Errorf("fluidSim row should be a promoted inner nest")
	}
	// Normal mapping: little.
	nm := byApp(t, results, "Normal Mapping")
	if nm.Nests[0].Divergence == core.DivYes {
		t.Errorf("normal mapping divergence = yes, want little/none")
	}
}

// TestMyScriptTripShape asserts the distinctive 4±2 trip count.
func TestMyScriptTripShape(t *testing.T) {
	t.Parallel()
	results := runStudy(t)
	ms := byApp(t, results, "MyScript")
	n := ms.Nests[0]
	if n.TripMean < 2 || n.TripMean > 8 {
		t.Errorf("MyScript trips %.1f, want ~4", n.TripMean)
	}
	if n.TripStd <= 0 {
		t.Errorf("MyScript trip stddev = 0, want variance (paper: 4±2)")
	}
}
