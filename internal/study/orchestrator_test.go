// External test package so the byte-identity assertion can render
// through internal/report (which imports study).
package study_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/study"
	"repro/internal/workloads"
)

// render serializes results exactly as cmd/casestudy prints them, so
// "byte-identical output" means the user-visible artifact, not just the
// in-memory structs.
func render(results []*study.AppResult) string {
	var sb strings.Builder
	sb.WriteString(report.Table2(study.Table2(results)))
	sb.WriteString(report.Table3(study.Table3(results)))
	sb.WriteString(report.Amdahl(results))
	return sb.String()
}

// orchestrate runs the study over every Table 1 workload at Scale{Div:
// 8}, seed 7, on workers goroutines.
func orchestrate(workers int) ([]*study.AppResult, error) {
	rep, err := study.Orchestrate(context.Background(), study.Options{Seed: 7, Workers: workers, Workloads: workloads.AllAt(workloads.Scale{Div: 8})})
	return rep.Results, err
}

// TestRunAllDeterministicAcrossWorkers is the orchestrator's core
// contract: the concurrent study renders byte-identical to the
// sequential baseline at every worker count.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	seq, err := orchestrate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("no results")
	}
	want := render(seq)
	for _, workers := range []int{2, 4, 8} {
		par, err := orchestrate(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := render(par); got != want {
			t.Errorf("workers=%d: rendered output differs from sequential baseline", workers)
		}
		if !reflect.DeepEqual(summarize(seq), summarize(par)) {
			t.Errorf("workers=%d: merged results differ structurally", workers)
		}
	}
}

// summarize projects AppResults to comparable scalars (Workload holds a
// Drive closure, which reflect.DeepEqual cannot compare).
func summarize(results []*study.AppResult) []map[string]any {
	out := make([]map[string]any, len(results))
	for i, r := range results {
		out[i] = map[string]any{
			"name":      r.Workload.Name,
			"table2":    r.Table2,
			"nests":     r.Nests,
			"poly":      r.PolymorphicVars,
			"amdahl":    r.AmdahlEasy,
			"amdahl16":  r.Amdahl16,
			"breakable": r.AmdahlBreakable,
		}
	}
	return out
}

// TestOrchestrateTelemetry checks worker resolution, per-job timing and
// wall-clock reporting over a small custom workload set.
func TestOrchestrateTelemetry(t *testing.T) {
	t.Parallel()
	s := workloads.Scale{Div: 8}
	wls := []*workloads.Workload{workloads.Histogram(s), workloads.LegacyPage(s)}
	rep, err := study.Orchestrate(context.Background(), study.Options{
		Seed: 7, Workers: 999, Workloads: wls,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 2*len(wls) {
		t.Errorf("workers = %d, want clamped to %d jobs", rep.Workers, 2*len(wls))
	}
	if len(rep.Timings) != 2*len(wls) {
		t.Fatalf("timings = %d, want %d", len(rep.Timings), 2*len(wls))
	}
	for i, jt := range rep.Timings {
		wantApp := wls[i/2].Name
		wantMode := study.Mode(i % 2)
		if jt.App != wantApp || jt.Mode != wantMode {
			t.Errorf("timing[%d] = %s/%s, want %s/%s", i, jt.App, jt.Mode, wantApp, wantMode)
		}
		if jt.Err != nil {
			t.Errorf("timing[%d]: unexpected error %v", i, jt.Err)
		}
		if jt.Wall <= 0 {
			t.Errorf("timing[%d]: no wall-clock recorded", i)
		}
	}
	if rep.Wall <= 0 {
		t.Error("no total wall-clock recorded")
	}
	if len(rep.Results) != len(wls) {
		t.Fatalf("results = %d, want %d", len(rep.Results), len(wls))
	}
	for i, r := range rep.Results {
		if r.Workload.Name != wls[i].Name {
			t.Errorf("results[%d] = %s, want input order %s", i, r.Workload.Name, wls[i].Name)
		}
		if r.Table2.TotalS <= 0 {
			t.Errorf("%s: light-mode Table 2 not merged in", r.Workload.Name)
		}
	}
}

// TestOrchestrateCancellation: a cancelled context stops the run and the
// error path reports it; the orchestrator must not hang.
func TestOrchestrateCancellation(t *testing.T) {
	t.Parallel()
	apps := workloads.AllAt(workloads.Scale{Div: 8})

	// Pre-cancelled: every job is skipped.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := study.Orchestrate(ctx, study.Options{Seed: 7, Workers: 4, Workloads: apps})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("pre-cancelled: %d results, want 0", len(rep.Results))
	}
	for _, jt := range rep.Timings {
		if !errors.Is(jt.Err, context.Canceled) {
			t.Errorf("job %s/%s: err = %v, want context.Canceled", jt.App, jt.Mode, jt.Err)
		}
	}

	// Cancelled mid-run: the run ends early with the cancellation joined
	// into the aggregate error.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := study.Orchestrate(ctx, study.Options{Seed: 7, Workers: 2, Workloads: apps}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
}

// TestOrchestrateErrorAggregation: failures do not abort the run — every
// job executes, all errors surface, healthy apps still produce results.
func TestOrchestrateErrorAggregation(t *testing.T) {
	t.Parallel()
	broken1 := &workloads.Workload{Name: "broken-parse", Source: "syntax error ("}
	broken2 := &workloads.Workload{Name: "broken-throw", Source: "nope();"}
	rep, err := study.Orchestrate(context.Background(), study.Options{
		Seed: 7, Workers: 3,
		Workloads: []*workloads.Workload{broken1, workloads.Histogram(workloads.Scale{Div: 8}), broken2},
	})
	if err == nil {
		t.Fatal("want aggregated error")
	}
	for _, name := range []string{"broken-parse", "broken-throw"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("aggregated error does not mention %s: %v", name, err)
		}
	}
	if len(rep.Results) != 1 || rep.Results[0].Workload.Name != "Histogram" {
		t.Fatalf("want the healthy app's result to survive, got %d results", len(rep.Results))
	}
	failed := 0
	for _, jt := range rep.Timings {
		if jt.Err != nil {
			failed++
		}
	}
	if failed != 4 {
		t.Errorf("failed jobs = %d, want 4 (two modes × two broken apps)", failed)
	}
}
