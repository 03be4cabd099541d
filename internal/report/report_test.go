package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/study"
	"repro/internal/survey"
	"repro/internal/workloads"
)

func TestTable1Rendering(t *testing.T) {
	out := Table1(workloads.All())
	for _, want := range []string{"HAAR.js", "Tear-able Cloth", "D3.js", "Games", "Visualization"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 13 {
		t.Errorf("Table 1 has %d lines, want 12 apps + header", lines)
	}
}

func TestTable2Rendering(t *testing.T) {
	rows := []study.Table2Row{
		{Name: "app-a", TotalS: 10, ActiveS: 5, LoopsS: 7, ScriptS: 8, PaperTotalS: 12, PaperActiveS: 6, PaperLoopsS: 8},
		{Name: "app-b", TotalS: 20, ActiveS: 1, LoopsS: 0.5, ScriptS: 1},
	}
	out := Table2(rows)
	if !strings.Contains(out, "app-a") || !strings.Contains(out, "(12)") {
		t.Errorf("paper values missing:\n%s", out)
	}
	if !strings.Contains(out, "compute-intensive: 1/2") {
		t.Errorf("summary line wrong:\n%s", out)
	}
	if !strings.Contains(out, "Active < In-Loops") {
		t.Errorf("anomaly note missing:\n%s", out)
	}
}

func TestTable3Rendering(t *testing.T) {
	rows := []study.Table3Row{
		{App: "x", NestReport: core.NestReport{Label: "for(line 3)", PctLoop: 80, Instanc: 10,
			TripMean: 100, TripStd: 5, Divergence: core.DivLittle, DOMAccess: false,
			DepDiff: core.Easy, ParDiff: core.Easy}},
		{App: "x", NestReport: core.NestReport{Label: "for(line 9)", PctLoop: 15, Instanc: 2,
			TripMean: 4, Divergence: core.DivYes, DOMAccess: true,
			DepDiff: core.VeryHard, ParDiff: core.VeryHard, PromotedFrom: 1}},
	}
	out := Table3(rows)
	if !strings.Contains(out, "100±5") {
		t.Errorf("trips column:\n%s", out)
	}
	if !strings.Contains(out, "very hard") || !strings.Contains(out, "little") {
		t.Errorf("judgment columns:\n%s", out)
	}
	if !strings.Contains(out, "(inner)") {
		t.Errorf("promoted marker missing:\n%s", out)
	}
	if !strings.Contains(out, "intrinsic parallelism: 1/2") {
		t.Errorf("parallelizable summary:\n%s", out)
	}
}

func TestFigureRenderers(t *testing.T) {
	c := survey.Generate(42)
	rows, valid := survey.Figure1(c, survey.NewCoder())
	f1 := Figure1(rows, valid)
	if !strings.Contains(f1, "Games") || !strings.Contains(f1, "#") {
		t.Errorf("Figure 1:\n%s", f1)
	}
	f2 := Figure2(survey.Figure2(c))
	if !strings.Contains(f2, "resource loading") || !strings.Contains(f2, "52%") {
		t.Errorf("Figure 2:\n%s", f2)
	}
	f3 := ScaleFigure("Figure 3.", "functional", "imperative", survey.Figure3(c))
	if !strings.Contains(f3, "166 answers") {
		t.Errorf("Figure 3:\n%s", f3)
	}
}

func TestFortunaRendering(t *testing.T) {
	rows := []study.FortunaRow{
		{App: "a", Tasks: 10, Limit: 2.5, WorkMS: 100, CritMS: 40},
		{App: "b", Tasks: 5, Limit: 1.0, WorkMS: 50, CritMS: 50},
	}
	out := Fortuna(rows)
	if !strings.Contains(out, "average limit: 1.75x") {
		t.Errorf("average:\n%s", out)
	}
}

func TestAmdahlRendering(t *testing.T) {
	results := []*study.AppResult{
		{Workload: &workloads.Workload{Name: "fast"}, AmdahlEasy: 5, AmdahlBreakable: 6, Amdahl16: 4},
		{Workload: &workloads.Workload{Name: "slow"}, AmdahlEasy: 1, AmdahlBreakable: 1, Amdahl16: 1},
	}
	out := Amdahl(results)
	if !strings.Contains(out, "bound > 3x: 1") {
		t.Errorf("Amdahl:\n%s", out)
	}
}

func TestBarClamping(t *testing.T) {
	if got := bar(150, 10); got != "##########" {
		t.Errorf("over-100%% bar = %q", got)
	}
	if got := bar(-5, 10); got != ".........." {
		t.Errorf("negative bar = %q", got)
	}
}

// A kernel that never dispatched has no scheduling telemetry: its
// chunk/steal cells must render as dashes, and the static column must
// show the prover's verdict (with "+" marking guard-elided runs).
func TestExecSuppressesTelemetryForNeverDispatched(t *testing.T) {
	counts := []int{1, 2}
	rows := []study.ExecRow{
		{
			App: "A", Loop: "dispatched loop", N: 64,
			WallMS:  map[int]float64{1: 2.0, 2: 1.0},
			Speedup: map[int]float64{1: 1, 2: 2},
			Chunks:  map[int]int{2: 8}, Steals: map[int]int{2: 3},
			Parallel: true, Identical: true,
			StaticVerdict: "proven", GuardElided: true,
		},
		{
			App: "B", Loop: "refused loop", N: 64,
			WallMS:  map[int]float64{1: 2.0, 2: 2.0},
			Speedup: map[int]float64{1: 1, 2: 1},
			Chunks:  map[int]int{}, Steals: map[int]int{},
			Identical:     true,
			StaticVerdict: "refuted",
			AbortReason:   "static analysis refuted purity: writes captured or global variable g",
		},
	}
	out := Exec(rows, counts)
	for _, want := range []string{"static", "proven+", "refuted"} {
		if !strings.Contains(out, want) {
			t.Errorf("Exec output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	var refusedLine string
	for _, l := range lines {
		if strings.Contains(l, "refused loop") {
			refusedLine = l
		}
	}
	if refusedLine == "" {
		t.Fatalf("no row for refused loop:\n%s", out)
	}
	// The never-dispatched row must not print zero chunk/steal counts.
	if !strings.Contains(refusedLine, "-") || strings.Contains(refusedLine, "\t0\t0\t") {
		t.Errorf("refused row should dash its telemetry: %q", refusedLine)
	}
}

func TestPipeRendering(t *testing.T) {
	counts := []int{1, 2}
	rows := []study.PipeRow{
		{
			App: "CamanJS", Loop: "decode/filter/encode pixel pipeline", N: 512, Stages: 3,
			PipeMS:   map[int]float64{1: 4.0, 2: 2.5},
			ChainMS:  map[int]float64{1: 4.2, 2: 3.0},
			Speedup:  map[int]float64{1: 1, 2: 1.6},
			Parallel: true, Identical: true,
			Batches:       8,
			StageVerdicts: []string{"proven", "proven", "proven"},
			PairsFound:    3, PairsWant: 3,
		},
	}
	out := Pipe(rows, counts)
	for _, want := range []string{
		"pipe 2w ms", "chain 2w ms", "batches@2w", "3/3",
		"proven,proven,proven", "3-stage pipeline streamed 8 batches",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Pipe output missing %q:\n%s", want, out)
		}
	}
}

func TestPipeRenderingDashesWhenNeverStreamed(t *testing.T) {
	rows := []study.PipeRow{
		{
			App: "CamanJS", Loop: "pipeline", N: 512, Stages: 3,
			PipeMS:        map[int]float64{1: 4.0},
			ChainMS:       map[int]float64{1: 4.2},
			Identical:     true,
			StageVerdicts: []string{"proven", "proven", "proven"},
			PairsFound:    3, PairsWant: 3,
			AbortReason: "only sequential counts measured",
		},
	}
	out := Pipe(rows, []int{1})
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "CamanJS") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no data row:\n%s", out)
	}
	// A never-dispatched row must dash its batch count, not print a zero.
	if !strings.Contains(strings.Join(strings.Fields(line), " "), " - 3/3 ") {
		t.Errorf("never-dispatched row did not dash its batch count: %q", line)
	}
	if !strings.Contains(out, "only sequential counts measured") {
		t.Errorf("abort reason missing:\n%s", out)
	}
}
