package study_test

import (
	"sync"
	"testing"

	"repro/internal/study"
	"repro/internal/workloads"
)

// fortunaPass is the one Fortuna pass at Scale{Div: 4}, seed 7, that
// TestFortunaBaselineShape and TestFortunaGolden both read.
var fortunaPass = sync.OnceValues(func() ([]study.FortunaRow, error) {
	return study.RunFortunaAll(7, workloads.Scale{Div: 4})
})

func fortunaRows(t *testing.T) []study.FortunaRow {
	t.Helper()
	rows, err := fortunaPass()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestFortunaBaselineShape asserts the §6 contrast: the task-level limit
// study finds parallel slack in event-driven apps with independent events
// while frame-chained simulations stay near-sequential — speedup from
// tasks, not loops, which is exactly why the paper argues the earlier
// study underestimates data-parallel opportunity.
func TestFortunaBaselineShape(t *testing.T) {
	t.Parallel()
	rows := fortunaRows(t)
	if len(rows) != 13 { // 12 Table 1 apps + the LegacyPage control
		t.Fatalf("rows = %d", len(rows))
	}
	byApp := map[string]study.FortunaRow{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.Tasks == 0 {
			t.Errorf("%s: no tasks collected", r.App)
		}
		if r.Limit < 0.99 {
			t.Errorf("%s: limit %.2f < 1", r.App, r.Limit)
		}
	}
	// Frame-chained simulations: every frame reads state the previous
	// frame wrote → near-sequential task graphs.
	for _, app := range []string{"fluidSim", "Tear-able Cloth", "Realtime Raytracing"} {
		if l := byApp[app].Limit; l > 1.6 {
			t.Errorf("%s: task-level limit %.2f, expected near-sequential (frames chain)", app, l)
		}
	}
	// The §6 contrast: the page-centric control (independent widgets) has
	// real task-level slack, like the sites Fortuna et al. measured.
	if l := byApp["LegacyPage"].Limit; l < 2.0 {
		t.Errorf("LegacyPage: task-level limit %.2f, want >= 2 (independent widget tasks)", l)
	}
}

// TestFortunaGraphTasksMatchDispatches sanity-checks the collector wiring.
func TestFortunaGraphTasksMatchDispatches(t *testing.T) {
	t.Parallel()
	wl, err := workloads.ByName("Harmony", workloads.Scale{Div: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := study.RunFortuna(wl, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Harmony dispatches one task per stroke.
	if len(g.Tasks) < 5 {
		t.Errorf("tasks = %d, want one per stroke", len(g.Tasks))
	}
	if g.TotalWork() <= 0 || g.CriticalPath() <= 0 {
		t.Error("degenerate graph timing")
	}
}
