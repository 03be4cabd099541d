// Package report renders the paper's tables and figures as text, in the
// same row/series structure the paper prints, so a side-by-side check
// against the original is mechanical.
package report

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

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
// (§5.1/§5.3 — the analyze → execute loop, closed). The static column
// is the purity prover's verdict for the kernel ("proven+" marks a
// guard-elided run). The chunks/steals columns are the work-stealing
// scheduler's telemetry at the ladder's top worker count: chunk-plan
// length (a pure function of n — identical at every count) and
// successful steals (timing-dependent, like the wall-clock columns;
// high steal counts on a skewed kernel are the scheduler doing its
// job). A kernel that never dispatched has no scheduling telemetry, so
// those cells render as dashes instead of misleading zeros.
func Exec(rows []study.ExecRow, counts []int) string {
	var sb strings.Builder
	sb.WriteString("ModeExec. Speculative ParallelArray execution - measured vs. predicted\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "App\tHot loop\tn\t")
	for _, w := range counts {
		fmt.Fprintf(tw, "%dw ms\t", w)
	}
	top := 1
	if len(counts) > 0 {
		top = counts[len(counts)-1]
	}
	fmt.Fprintf(tw, "best\tAmdahl16\tstatic\tchunks\tsteals@%dw\tparallel\tidentical\tabort\t\n", top)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t", r.App, r.Loop, r.N)
		for _, w := range counts {
			if ms, ok := r.WallMS[w]; ok {
				fmt.Fprintf(tw, "%.1f\t", ms)
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		best, at := r.BestSpeedup()
		chunks, steals := "-", "-"
		if r.Chunks[top] > 0 {
			chunks = fmt.Sprint(r.Chunks[top])
			steals = fmt.Sprint(r.Steals[top])
		}
		static := dash(r.StaticVerdict)
		if r.GuardElided {
			static += "+"
		}
		fmt.Fprintf(tw, "%.2fx@%d\t%.2fx\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			best, at, r.Amdahl16, static, chunks, steals,
			yesNo(r.Parallel), yesNo(r.Identical), dash(r.AbortReason))
	}
	tw.Flush()
	fmt.Fprintf(&sb, "\n%s\n", study.ExecSummary(rows))
	return sb.String()
}

// Pipe renders the pipeline ladder: the decode→filter→encode workload
// measured pipelined (pipePar) and as the chained-mapPar baseline at
// each worker count, with the dispatch's batch (chunk) count taken at
// the ladder's top count. The pairs column is the
// core.PipePairDetector's found/expected count on the raw loop-pair
// form of the same program: the detect → schedule → verify loop in one
// row. Stage verdicts are the purity prover's per-stage answers.
func Pipe(rows []study.PipeRow, counts []int) string {
	var sb strings.Builder
	sb.WriteString("ModeExec pipeline ladder. Fused produce->consume stages vs. chained mapPar\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "App\tHot loop\tn\tstages\t")
	for _, w := range counts {
		fmt.Fprintf(tw, "pipe %dw ms\tchain %dw ms\t", w, w)
	}
	top := 1
	if len(counts) > 0 {
		top = counts[len(counts)-1]
	}
	fmt.Fprintf(tw, "batches@%dw\tpairs\tverdicts\tparallel\tidentical\tabort\t\n", top)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t", r.App, r.Loop, r.N, r.Stages)
		for _, w := range counts {
			pipe, chain := "-", "-"
			if ms, ok := r.PipeMS[w]; ok {
				pipe = fmt.Sprintf("%.1f", ms)
			}
			if ms, ok := r.ChainMS[w]; ok {
				chain = fmt.Sprintf("%.1f", ms)
			}
			fmt.Fprintf(tw, "%s\t%s\t", pipe, chain)
		}
		batches := "-"
		if r.Batches > 0 {
			batches = fmt.Sprint(r.Batches)
		}
		fmt.Fprintf(tw, "%s\t%d/%d\t%s\t%s\t%s\t%s\t\n",
			batches, r.PairsFound, r.PairsWant, dash(strings.Join(r.StageVerdicts, ",")),
			yesNo(r.Parallel), yesNo(r.Identical), dash(r.AbortReason))
	}
	tw.Flush()
	fmt.Fprintf(&sb, "\n%s\n", study.PipeSummary(rows))
	return sb.String()
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

// ServingRow is one client-count round of the proxy load harness
// (cmd/loadgen): throughput, latency and queue-wait percentiles, and
// the cache/backpressure counters for that round.
type ServingRow struct {
	Clients        int
	ReqPerSec      float64
	RewritesPerSec float64
	P50, P99       time.Duration
	// QWaitP50/QWaitP99 are admission queue waits (the proxy's
	// X-Ceres-Queue-Wait header) across the round's 200 responses. In a
	// per-class row they are the *interactive* class's waits.
	QWaitP50, QWaitP99 time.Duration
	// Rejected counts 429 responses — requests shed by backpressure.
	// In a per-class row these are interactive rejections specifically.
	Rejected                          int64
	Hits, Misses, Coalesced, Failures int64

	// PerClass marks a mixed-priority round (loadgen -scenario
	// priority): the fields below are populated and Serving renders the
	// batch/promotion columns.
	PerClass bool
	// BatchClients is the number of background batch load generators.
	BatchClients int
	// BatchPerSec is batch rewrites completed per second of the timed
	// phase; BatchDone counts them over the generators' whole life, the
	// batch that ran before the phase opened included. BatchShed counts
	// batch admissions rejected or dropped (shed before running).
	BatchPerSec float64
	BatchDone   int64
	BatchShed   int64
	// BatchQWaitP99 is the batch class's server-side queue-wait p99.
	BatchQWaitP99 time.Duration
	// Promoted counts batch flights promoted to interactive by
	// single-flight priority inheritance during the round.
	Promoted int64
}

// Serving renders the serving-ladder table: one row per client count.
// The shape to read for: req/s scaling with clients while q-wait p99
// stays bounded; when the pipeline saturates, rejected grows instead of
// p99 (backpressure sheds load rather than stretching the tail). Rows
// marked PerClass (the mixed-priority ladder) add the batch columns:
// interactive q-wait p99 should stay flat down the ladder while batch/s
// fills residual capacity and batch shed — never interactive rejected —
// absorbs saturation.
func Serving(title string, rows []ServingRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	perClass := false
	for _, r := range rows {
		perClass = perClass || r.PerClass
	}
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	if perClass {
		fmt.Fprintln(tw, "clients\tbatch-cl\treq/s\tp50\tp99\tq-wait p50\tq-wait p99\trejected\tbatch/s\tb q-wait p99\tb shed\tpromoted\t")
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%d\t%.0f\t%s\t%s\t%s\t%s\t%d\t%.1f\t%s\t%d\t%d\t\n",
				r.Clients, r.BatchClients, r.ReqPerSec,
				fmtShortDur(r.P50), fmtShortDur(r.P99),
				fmtShortDur(r.QWaitP50), fmtShortDur(r.QWaitP99),
				r.Rejected, r.BatchPerSec, fmtShortDur(r.BatchQWaitP99),
				r.BatchShed, r.Promoted)
		}
		tw.Flush()
		return sb.String()
	}
	fmt.Fprintln(tw, "clients\treq/s\trewrites/s\tp50\tp99\tq-wait p50\tq-wait p99\trejected\thits\tmisses\tcoalesced\tfailures\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.1f\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t\n",
			r.Clients, r.ReqPerSec, r.RewritesPerSec,
			fmtShortDur(r.P50), fmtShortDur(r.P99),
			fmtShortDur(r.QWaitP50), fmtShortDur(r.QWaitP99),
			r.Rejected, r.Hits, r.Misses, r.Coalesced, r.Failures)
	}
	tw.Flush()
	return sb.String()
}

func fmtShortDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

// ClusterNodeRow is one fleet member's share of a cluster round
// (loadgen -scenario cluster): how much it served as owner, forwarded
// out, served for peers, replicated hot, or absorbed as fallback when
// an owner died, plus the membership churn it observed.
type ClusterNodeRow struct {
	// Node is the member's display name; Killed marks the node the
	// round killed mid-run (its row merges pre-kill and post-revive
	// counters); Live is its state at round end.
	Node   string
	Killed bool
	Live   bool
	// OwnedServed/ForwardedOut/PeerReceived/ReplicaServed/
	// ForwardFallbacks/Rebalances mirror cluster.Stats.
	OwnedServed      int64
	ForwardedOut     int64
	PeerReceived     int64
	ReplicaServed    int64
	ForwardFallbacks int64
	Rebalances       int64
	// Hits/Misses/Rejected are the node's cache and shed counters.
	Hits, Misses, Rejected int64
}

// Cluster renders the per-node fleet table. The shape to read for:
// owned dominating every node (partitioning working), fwd-out ≈ the
// sum of the other nodes' recv (the peer protocol balancing), replica
// absorbing hot keys away from their owner, and — through a kill —
// fallback and rebal absorbing the disruption while every request
// still completes.
func Cluster(title string, rows []ClusterNodeRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "node\tstate\towned\tfwd-out\trecv\treplica\tfallbk\trebal\thits\tmisses\trejected\t")
	for _, r := range rows {
		state := "live"
		if r.Killed {
			state = "killed"
			if r.Live {
				state = "revived"
			}
		} else if !r.Live {
			state = "down"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.Node, state, r.OwnedServed, r.ForwardedOut, r.PeerReceived,
			r.ReplicaServed, r.ForwardFallbacks, r.Rebalances,
			r.Hits, r.Misses, r.Rejected)
	}
	tw.Flush()
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
