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
	c := survey.Generate(survey.CorpusSeed)
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
// chunk cell must render as a dash, and the static column must
// show the prover's verdict per stage (with "+" marking guard-elided
// runs). A multi-stage row prints fused/chain cells and its pairs.
func TestExecSuppressesTelemetryForNeverDispatched(t *testing.T) {
	counts := []int{1, 2}
	rows := []study.ExecRow{
		{
			App: "A", Loop: "dispatched loop", N: 64, Stages: 1,
			WallMS:   map[int]float64{1: 2.0, 2: 1.0},
			Speedup:  map[int]float64{1: 1, 2: 2},
			Chunks:   map[int]int{2: 8},
			Parallel: true, Identical: true,
			StageVerdicts: []string{"proven"}, GuardElided: true,
		},
		{
			App: "B", Loop: "refused loop", N: 64, Stages: 1,
			WallMS:        map[int]float64{1: 2.0, 2: 2.0},
			Speedup:       map[int]float64{1: 1, 2: 1},
			Chunks:        map[int]int{},
			Identical:     true,
			StageVerdicts: []string{"refuted"},
			AbortReason:   "static analysis refuted purity: writes captured or global variable g",
		},
		{
			App: "CamanJS", Loop: "pixel pipeline", N: 512, Stages: 3,
			WallMS:   map[int]float64{1: 4.0, 2: 2.5},
			ChainMS:  map[int]float64{1: 4.2, 2: 3.0},
			Speedup:  map[int]float64{1: 1, 2: 1.6},
			Chunks:   map[int]int{2: 8},
			Parallel: true, Identical: true,
			StageVerdicts: []string{"proven", "proven", "proven"},
			PairsFound:    3, PairsWant: 3,
		},
	}
	out := Exec(rows, counts)
	for _, want := range []string{
		"static", "stages", "pairs", "proven+", "refuted",
		"4.0/4.2", "2.5/3.0", "proven,proven,proven", "3/3",
		"2/3 convertible loops executed in parallel",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Exec output missing %q:\n%s", want, out)
		}
	}
	lines := map[string]string{}
	for _, l := range strings.Split(out, "\n") {
		for _, loop := range []string{"dispatched loop", "refused loop", "pixel pipeline"} {
			if strings.Contains(l, loop) {
				lines[loop] = strings.Join(strings.Fields(l), " ")
			}
		}
	}
	if len(lines) != 3 {
		t.Fatalf("missing data rows:\n%s", out)
	}
	// The never-dispatched row must not print a zero chunk count,
	// and a one-stage row has no pairs.
	if !strings.Contains(lines["refused loop"], "refuted - - no yes") {
		t.Errorf("refused row should dash its telemetry and pairs: %q", lines["refused loop"])
	}
	if !strings.Contains(lines["dispatched loop"], "proven+ 8 - yes") {
		t.Errorf("one-stage row should dash its pairs: %q", lines["dispatched loop"])
	}
	if !strings.Contains(lines["pixel pipeline"], "512 3 4.0/4.2 2.5/3.0") {
		t.Errorf("multi-stage row should print its stages and fused/chain cells: %q", lines["pixel pipeline"])
	}
}
