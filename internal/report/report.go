// Package report renders the paper's tables and figures as text, in the
// same row/series structure the paper prints, so a side-by-side check
// against the original is mechanical.
package report

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/study"
	"repro/internal/survey"
	"repro/internal/workloads"
)

// Table1 renders the case-study application list.
func Table1(wls []*workloads.Workload) string {
	var sb strings.Builder
	sb.WriteString("Table 1. Case study - web applications\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Name\tCategory\tDescription")
	for _, wl := range wls {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", wl.Name, wl.Category, wl.Description)
	}
	tw.Flush()
	return sb.String()
}

// Table2 renders running times with the paper's values alongside.
func Table2(rows []study.Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2. Case study - running time (virtual seconds; paper values in parentheses)\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Name\tTotal\tActive\tIn Loops\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f (%.0f)\t%.2f (%.2f)\t%.2f (%.2f)\t\n",
			r.Name, r.TotalS, r.PaperTotalS, r.ActiveS, r.PaperActiveS, r.LoopsS, r.PaperLoopsS)
	}
	tw.Flush()
	intensive := 0
	anomalies := 0
	for _, r := range rows {
		if r.ComputeIntensive() {
			intensive++
		}
		if r.ActiveBelowLoops() {
			anomalies++
		}
	}
	fmt.Fprintf(&sb, "\ncompute-intensive: %d/%d; apps with Active < In-Loops (the Gecko sampling artifact, §3.1): %d\n",
		intensive, len(rows), anomalies)
	return sb.String()
}

// Table3 renders the loop-nest inspection.
func Table3(rows []study.Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3. Case study - detailed inspection of loop nests\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "name\t%\tinstances\ttrips\tdivergence\tDOM\tbreaking deps\tpar. difficulty")
	prev := ""
	for _, r := range rows {
		name := r.App
		if name == prev {
			name = ""
		} else {
			prev = r.App
		}
		label := ""
		if r.PromotedFrom != 0 {
			label = " (inner)"
		}
		fmt.Fprintf(tw, "%s%s\t%.0f\t%d\t%.0f±%.0f\t%s\t%s\t%s\t%s\n",
			name, label, r.PctLoop, r.Instanc, r.TripMean, r.TripStd,
			r.Divergence, yesNo(r.DOMAccess), r.DepDiff, r.ParDiff)
	}
	tw.Flush()
	total, parallel := 0, 0
	for i := range rows {
		total++
		if rows[i].Parallelizable() {
			parallel++
		}
	}
	fmt.Fprintf(&sb, "\nnests with intrinsic parallelism: %d/%d (paper: ~3/4)\n", parallel, total)
	return sb.String()
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Amdahl renders the per-app speedup bounds (§4.2's Amdahl discussion).
func Amdahl(results []*study.AppResult) string {
	var sb strings.Builder
	sb.WriteString("Amdahl speedup upper bounds (infinite cores)\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Name\teasy loops\tbreakable loops\t16 cores\t")
	over3 := 0
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%.2fx\t%.2fx\t%.2fx\t\n",
			r.Workload.Name, r.AmdahlEasy, r.AmdahlBreakable, r.Amdahl16)
		if r.AmdahlBreakable > 3 {
			over3++
		}
	}
	tw.Flush()
	fmt.Fprintf(&sb, "\napps with bound > 3x: %d (paper: 5 of 12)\n", over3)
	return sb.String()
}

// Exec renders the ModeExec table: measured speculative-execution
// speedup per convertible hot loop, next to the ModeDeep Amdahl bound
// (§5.1/§5.3 — the analyze → execute loop, closed). A multi-stage row's
// ms cells read fused/chain: pipePar, then the chained-mapPar baseline.
// The static column is the purity prover's verdict per stage ("+" marks
// a guard-elided run). The chunks column is the scheduler's chunk-plan
// length at the ladder's top worker count (a pure function of n —
// identical at every count). A kernel that never dispatched has no
// scheduling telemetry, so its cell renders as a dash instead of a
// misleading zero. The pairs
// column is the core.PipePairDetector's found/expected count on the raw
// loop-pair form of a multi-stage row.
func Exec(rows []study.ExecRow, counts []int) string {
	var sb strings.Builder
	sb.WriteString("ModeExec. Speculative ParallelArray execution - measured vs. predicted\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "App\tHot loop\tn\tstages\t")
	for _, w := range counts {
		fmt.Fprintf(tw, "%dw ms\t", w)
	}
	top := 1
	if len(counts) > 0 {
		top = counts[len(counts)-1]
	}
	fmt.Fprint(tw, "best\tAmdahl16\tstatic\tchunks\tpairs\tparallel\tidentical\tabort\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t", r.App, r.Loop, r.N, r.Stages)
		for _, w := range counts {
			cell := ms(r.WallMS, w)
			if r.ChainMS != nil {
				cell += "/" + ms(r.ChainMS, w)
			}
			fmt.Fprintf(tw, "%s\t", cell)
		}
		best, at := r.BestSpeedup()
		chunks := "-"
		if r.Chunks[top] > 0 {
			chunks = fmt.Sprint(r.Chunks[top])
		}
		static := dash(strings.Join(r.StageVerdicts, ","))
		if r.GuardElided {
			static += "+"
		}
		pairs := "-"
		if r.Stages > 1 {
			pairs = fmt.Sprintf("%d/%d", r.PairsFound, r.PairsWant)
		}
		fmt.Fprintf(tw, "%.2fx@%d\t%.2fx\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			best, at, r.Amdahl16, static, chunks, pairs,
			yesNo(r.Parallel), yesNo(r.Identical), dash(r.AbortReason))
	}
	tw.Flush()
	fmt.Fprintf(&sb, "\n%s\n", study.ExecSummary(rows))
	return sb.String()
}

// ms renders one wall-clock cell, "-" when the count was not measured.
func ms(m map[int]float64, w int) string {
	if v, ok := m[w]; ok {
		return fmt.Sprintf("%.1f", v)
	}
	return "-"
}

func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// bar renders a proportional ASCII bar.
func bar(pct float64, width int) string {
	n := int(pct / 100 * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// Figure1 renders future web application categories.
func Figure1(rows []survey.Fig1Row, valid int) string {
	var sb strings.Builder
	sb.WriteString("Figure 1. Future web application categories, as identified by respondents\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-52s %3d (%4.1f%%) %s\n", r.Category, r.Count, r.Percent, bar(r.Percent, 30))
	}
	fmt.Fprintf(&sb, "coded answers: %d of %d respondents\n", valid, survey.NumRespondents)
	return sb.String()
}

// Figure2 renders performance bottleneck ratings.
func Figure2(rows []survey.Fig2Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 2. Performance bottlenecks importance as scaled by respondents\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "component\tnot an issue\tso, so...\tis a bottleneck\tbottleneck share")
	for _, r := range rows {
		n := r.Answered()
		fmt.Fprintf(tw, "%s\t%d (%d%%)\t%d (%d%%)\t%d (%d%%)\t%.0f%%\n",
			r.Component,
			r.NotIssue, pct(r.NotIssue, n),
			r.SoSo, pct(r.SoSo, n),
			r.Bottleneck, pct(r.Bottleneck, n),
			r.PctBottleneck())
	}
	tw.Flush()
	return sb.String()
}

func pct(x, n int) int {
	if n == 0 {
		return 0
	}
	return int(100*float64(x)/float64(n) + 0.5)
}

// ScaleFigure renders Figures 3 and 4 (1..5 preference histograms).
func ScaleFigure(title, leftLabel, rightLabel string, h survey.ScaleHistogram) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	for v := 1; v <= 5; v++ {
		p := h.Percent(v)
		fmt.Fprintf(&sb, "%d  %3d (%4.1f%%) %s\n", v, h.Counts[v-1], p, bar(p, 30))
	}
	fmt.Fprintf(&sb, "1 = %s ... 5 = %s; %d answers\n", leftLabel, rightLabel, h.Total)
	return sb.String()
}

// Fortuna renders the task-level limit-study baseline.
func Fortuna(rows []study.FortunaRow) string {
	var sb strings.Builder
	sb.WriteString("Baseline: Fortuna-style task-level speedup limits (§6 / [20])\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Name\ttasks\twork(ms)\tcritical(ms)\tlimit\t")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.2fx\t\n", r.App, r.Tasks, r.WorkMS, r.CritMS, r.Limit)
		sum += r.Limit
	}
	tw.Flush()
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "\naverage limit: %.2fx (task-, not loop-level parallelism)\n", sum/float64(len(rows)))
	}
	return sb.String()
}
