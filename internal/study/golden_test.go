package study_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/report"
	"repro/internal/study"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// deepGolden renders everything the §3.3 dependence analysis decides for
// every Table-1 app: each deduplicated warning with its count, each
// loop's dependence summary, the polymorphic variables, and the Table 2,
// Table 3 and Amdahl renderings built on them.
func deepGolden(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	var results []*study.AppResult
	for _, wl := range workloads.AllAt(workloads.Scale{Div: 16}) {
		t2, err := study.RunLight(wl, 7)
		if err != nil {
			t.Fatalf("%s light: %v", wl.Name, err)
		}
		res, dep, prog, err := study.RunDeepOnly(wl, 7)
		if err != nil {
			t.Fatalf("%s deep: %v", wl.Name, err)
		}
		res.Table2 = t2
		results = append(results, res)

		fmt.Fprintf(&sb, "== %s\n", wl.Name)
		for _, w := range dep.Warnings() {
			fmt.Fprintf(&sb, "warning %s x%d\n", w.Format(prog.Loops), w.Count)
		}
		for i := range prog.Loops {
			s := dep.Summary(ast.LoopID(i + 1))
			if s == nil {
				continue
			}
			fmt.Fprintf(&sb, "summary %s recursion=%v\n", prog.Loops[i].Label(), s.Recursion)
			writeCounts(&sb, "VarWrites", s.VarWrites)
			writeCounts(&sb, "SharedPropWrites", s.SharedPropWrites)
			writeCounts(&sb, "OverlapPropWrites", s.OverlapPropWrites)
			writeCounts(&sb, "FlowReads", s.FlowReads)
			writeCounts(&sb, "VarFlows", s.VarFlows)
			writeCounts(&sb, "CrossInstance", s.CrossInstance)
		}
		fmt.Fprintf(&sb, "polymorphic %v\n", res.PolymorphicVars)
	}
	sb.WriteString(report.Table2(study.Table2(results)))
	sb.WriteString(report.Table3(study.Table3(results)))
	sb.WriteString(report.Amdahl(results))
	return sb.String()
}

func writeCounts(sb *strings.Builder, field string, m map[string]int64) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(sb, "  %s:", field)
	for _, name := range names {
		fmt.Fprintf(sb, " %s=%d", name, m[name])
	}
	sb.WriteByte('\n')
}

// TestDeepAnalysisGolden holds the dependence analyzer's every output to
// testdata/deep_golden.txt. The analyzer may change how it finds and
// counts dependences; it may not change what it reports. Regenerate with
// -update only when the analysis is meant to change.
func TestDeepAnalysisGolden(t *testing.T) {
	t.Parallel()
	const path = "testdata/deep_golden.txt"
	got := deepGolden(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	want := string(data)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("deep analysis differs from the golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("deep analysis has %d lines, the golden %d", len(gl), len(wl))
}

// TestFortunaGolden holds the task-level baseline to
// testdata/fortuna_golden.txt at Scale{Div: 4}: each app's task count,
// dependence-edge count and critical path in ns, then the rendered
// Fortuna table, all from the one pass fortunaRows makes. Regenerate
// with -update only when the baseline is meant to change.
func TestFortunaGolden(t *testing.T) {
	t.Parallel()
	const path = "testdata/fortuna_golden.txt"
	rows := fortunaRows(t)
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s tasks=%d edges=%d critical_ns=%d\n", r.App, r.Tasks, r.Edges, r.CritNS)
	}
	sb.WriteString(report.Fortuna(rows))
	got := sb.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Fortuna baseline differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
