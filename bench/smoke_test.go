package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload at 1/50 size, untraced and traced, and
// holds the benchmark to its own contract: exactly the metric names
// BENCHMARK.json declares, a well-formed span tree, nothing left behind.
func TestSmoke(t *testing.T) {
	spec, _, err := findSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%s lists %d workloads, the program has %d", benchmarkFile, len(spec.Workloads), len(workloadDefs))
	}
	for _, d := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)

	for i, def := range workloadDefs {
		if spec.Workloads[i].Name != def.name {
			t.Errorf("workload %d: %s lists %q, the program has %q", i, benchmarkFile, spec.Workloads[i].Name, def.name)
		}
		cfg := runConfig{seed: defaultSeed, scale: 0.02, w: poolSize(), outDir: t.TempDir()}
		res := runWorkload(def, cfg, spec)
		if !res.Correct {
			t.Fatalf("%s: not correct: attempted %d failed %d: %s", def.name, res.Attempted, res.Failed, res.Err)
		}
		for _, d := range spec.EndToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, d.Name, v.Median)
			}
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", def.name, len(res.Metrics), len(spec.EndToEnd))
		}

		cfg.trace = true
		res = runWorkload(def, cfg, spec)
		if !res.Correct {
			t.Fatalf("%s traced: not correct: attempted %d failed %d: %s", def.name, res.Attempted, res.Failed, res.Err)
		}
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", def.name, len(res.Metrics), len(spec.PerLayer))
		}
		checkSpans(t, filepath.Join(cfg.outDir, "trace-"+def.name+".json"))
	}

	// Connections and servers close asynchronously: give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines || openFDs(t) > fds {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("left behind: %d goroutines (started with %d), %d open files (started with %d)\n%s",
				runtime.NumGoroutine(), goroutines, openFDs(t), fds, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkSpans reads a trace file back: every span's parent exists and
// contains it, and no self time is negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range spans {
		if s.End < s.Start || s.Self < 0 {
			t.Errorf("%s: span %d %s: start %d end %d self %d", path, i, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= len(spans) {
			t.Fatalf("%s: span %d %s: parent %d does not exist", path, i, s.Name, s.Parent)
		}
		if p := spans[s.Parent]; p.Req != s.Req || p.Start > s.Start || p.End < s.End {
			t.Errorf("%s: span %d %s is not inside its parent %d %s", path, i, s.Name, s.Parent, p.Name)
		}
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(ents)
}
