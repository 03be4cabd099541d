package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// resultFile is what a run of all workloads leaves behind and what
// -compare reads: the host record and every run made.
type resultFile struct {
	Host hostRecord `json:"host"`
	Runs []result   `json:"runs"`
}

// runAll runs every workload in a child process of its own, so that
// peak_rss_mb is one workload's: `runs` untraced runs with seeds
// seed, seed+1, ... and one traced run.
func runAll(spec *benchSpec, seed uint64, seconds float64, runs int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var file resultFile
	code := 0
	child := func(workload string, seed uint64, trace int) {
		tmp := out + ".run"
		defer os.Remove(tmp)
		cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-result", tmp)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		var res result
		data, err := os.ReadFile(tmp)
		if err == nil {
			err = json.Unmarshal(data, &res)
		}
		if err != nil || runErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d failed: %v %v\n", workload, seed, trace, runErr, err)
			code = 1
		}
		if err == nil {
			file.Runs = append(file.Runs, res)
			file.Host = res.Host
		}
	}
	for _, w := range spec.Workloads {
		for r := 0; r < runs; r++ {
			child(w.Name, seed+uint64(r), 0)
		}
		child(w.Name, seed, 1)
	}
	file.Host.Seed = seed
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("# %d runs written to %s\n", len(file.Runs), out)
	return code
}

func writeResult(path string, res result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series is one (workload, metric) pair in one result file: the
// summary of its untraced runs' values, or, with a single run, of that
// run's own samples (its rounds).
func (f *resultFile) series(workload, metric string) (summary, bool) {
	var vals []float64
	var single summary
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			single = r.Metrics[metric]
			vals = append(vals, single.Median)
		}
	}
	switch len(vals) {
	case 0:
		return summary{}, false
	case 1:
		return single, true
	}
	return summarize(vals), true
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, b as a ratio of a, both spreads, and a verdict against the
// metric's bound. It refuses runs that did not measure the same thing.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !a.Host.comparable(b.Host) {
		fmt.Fprintf(os.Stderr, "bench: runs are not comparable (nproc, GOMAXPROCS, W, seed and seconds must match):\n a: %+v\n b: %+v\n", a.Host, b.Host)
		return 2
	}
	fmt.Printf("# a: %s commit %s\n# b: %s commit %s\n", pathA, a.Host.Commit, pathB, b.Host.Commit)
	fmt.Printf("%-15s %-14s %-5s %-6s %5s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "unit", "better", "bound", "median a", "median b", "b/a", "spread a", "spread b", "verdict")
	bad := 0
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			sa, okA := a.series(w.Name, d.Name)
			sb, okB := b.series(w.Name, d.Name)
			if !okA || !okB {
				continue
			}
			v := verdict(d, sa, sb)
			if v != "ok" {
				bad++
			}
			fmt.Printf("%-15s %-14s %-5s %-6s %5.2f %12.6g %12.6g %8.4f %8.4f %8.4f  %s\n",
				w.Name, d.Name, d.Unit, d.Better, d.Bound, sa.Median, sb.Median,
				ratio(sb.Median, sa.Median), sa.spread(), sb.spread(), v)
		}
	}
	if bad > 0 {
		fmt.Printf("# %d rows worse or unresolved\n", bad)
		return 1
	}
	return 0
}

// verdict: "worse" when b's median is worse than a's by more than the
// bound; "unresolved" when the runs spread wider than the bound, unless
// every run of b reads better than every run of a; otherwise "ok".
func verdict(d metricSpec, a, b summary) string {
	worse, clear := b.Median-a.Median, b.Max < a.Min
	if d.Better == "higher" {
		worse, clear = -worse, b.Min > a.Max
	}
	switch {
	case max(a.spread(), b.spread()) > d.Bound && !clear:
		return "unresolved"
	case worse > d.Bound*a.Median:
		return "worse"
	}
	return "ok"
}
