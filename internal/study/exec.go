package study

// ModeExec closes the paper's analyze → execute loop: where ModeDeep
// *predicts* speedup (Amdahl bounds over nests the dependence analysis
// clears), ModeExec *measures* it. Each ParallelArray-convertible hot
// loop (workloads.ExecKernels) runs through the real rivertrail/autopar
// speculative engine at a ladder of worker counts, the outputs are
// checked byte-identical across counts, and the measured speedup is
// reported next to the app's ModeDeep 16-core bound.
//
// Exec jobs deliberately run one at a time (unlike the light/deep jobs
// the orchestrator interleaves): they measure wall clock, and sharing
// the machine with sibling jobs would corrupt the numbers.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/autopar"
	"repro/internal/effects"
	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/rivertrail"
	"repro/internal/workloads"
)

// ExecWorkerCounts is the default measurement ladder.
var ExecWorkerCounts = []int{1, 2, 4, 8}

// ExecRow is one convertible hot loop measured both ways.
type ExecRow struct {
	App  string
	Loop string
	// N is the scaled element count executed.
	N int
	// WallMS maps worker count to wall-clock milliseconds.
	WallMS map[int]float64
	// Speedup maps worker count to sequential-time / parallel-time.
	Speedup map[int]float64
	// Parallel is true when the speculative engine actually dispatched
	// at every count >= 2.
	Parallel bool
	// AbortReason is the first §5.3 reason observed when it did not.
	AbortReason string
	// Identical is true when outputs were byte-identical across all
	// counts (the speculation safety contract).
	Identical bool
	// Amdahl16 is the app's ModeDeep 16-core bound, for side-by-side
	// comparison with the measured numbers.
	Amdahl16 float64
	// Chunks and Steals map worker count to the work-stealing
	// scheduler's telemetry for the dispatched remainder: the chunk-plan
	// length (identical at every count — the determinism contract) and
	// the number of successful steals (timing-dependent; how much
	// rebalancing the run needed).
	Chunks, Steals map[int]int
	// StaticVerdict is the purity prover's verdict for the kernel
	// ("proven", "refuted", "unknown") — computed for every row, even
	// when the engine runs with -static=off, so the static column can
	// sit next to the dynamic one. StaticReason is the first reason of
	// a non-proven chain.
	StaticVerdict string
	StaticReason  string
	// GuardElided is true when every multi-worker run dispatched with
	// zero Guard hooks (requires an engine static mode).
	GuardElided bool
}

// BestSpeedup returns the highest measured speedup and its worker count.
func (r ExecRow) BestSpeedup() (float64, int) {
	best, at := 0.0, 1
	for w, s := range r.Speedup {
		if s > best || (s == best && w < at) {
			best, at = s, w
		}
	}
	return best, at
}

// RunExecAll measures every convertible kernel at each worker count
// (nil = ExecWorkerCounts; a leading 1 is forced so speedups have a
// sequential baseline) and attaches the ModeDeep Amdahl bounds. The
// returned counts are the normalized ladder actually measured — report
// renderers must use it rather than re-deriving the columns.
func RunExecAll(seed uint64, counts []int, opts ExecOptions) ([]ExecRow, []int, error) {
	counts = normalizeCounts(counts)
	amdahl := make(map[string]float64)
	var rows []ExecRow
	for _, ek := range workloads.ExecKernels() {
		row, err := runExecKernel(ek, seed, counts, opts)
		if err != nil {
			return rows, counts, fmt.Errorf("study: exec %s/%s: %w", ek.App, ek.Loop, err)
		}
		bound, err := amdahlForApp(ek.App, seed, amdahl)
		if err != nil {
			return rows, counts, fmt.Errorf("study: exec %s amdahl: %w", ek.App, err)
		}
		row.Amdahl16 = bound
		rows = append(rows, row)
	}
	return rows, counts, nil
}

func normalizeCounts(counts []int) []int {
	if len(counts) == 0 {
		counts = ExecWorkerCounts
	}
	seen := map[int]bool{}
	out := []int{1}
	seen[1] = true
	for _, c := range counts {
		if c > 1 && !seen[c] {
			out = append(out, c)
			seen[c] = true
		}
	}
	sort.Ints(out)
	return out
}

// ExecOptions carries the knobs cmd/casestudy exposes for a ModeExec
// run; the zero value is every default. None of them changes output
// values — but MinChunk and ChunkDivisor move chunk boundaries, so a
// byte-identity comparison must hold them fixed (one value per
// RunExecAll/RunPipeAll call does).
type ExecOptions struct {
	// MinChunk and ChunkDivisor are the scheduler knobs (-minchunk,
	// -chunkdiv; 0 = sched defaults).
	MinChunk, ChunkDivisor int
	// Static is the engine's static mode (-static). Off still *reports*
	// the prover's verdict per row — the column is analysis output,
	// independent of whether the engine acts on it.
	Static autopar.StaticMode
}

// at builds the speculation options for one measured worker count.
func (o ExecOptions) at(workers int) autopar.Options {
	return autopar.Options{
		Workers:      workers,
		MinChunk:     o.MinChunk,
		ChunkDivisor: o.ChunkDivisor,
		Static:       o.Static,
	}
}

// runExecKernel measures one kernel across the count ladder.
func runExecKernel(ek workloads.ExecKernel, seed uint64, counts []int, opts ExecOptions) (ExecRow, error) {
	n := workloads.CurrentScale().N(ek.N)
	row := ExecRow{
		App: ek.App, Loop: ek.Loop, N: n,
		WallMS:  make(map[int]float64, len(counts)),
		Speedup: make(map[int]float64, len(counts)),
		Chunks:  make(map[int]int, len(counts)),
		Steals:  make(map[int]int, len(counts)),
	}
	// The static column is analysis output: computed for every row from
	// the kernel's own source, whatever the engine's -static mode.
	if rep, err := effects.AnalyzeKernel(ek.Prelude, ek.Elemental); err == nil {
		row.StaticVerdict = rep.Verdict.String()
		row.StaticReason = rep.First()
	} else {
		row.StaticVerdict = effects.Unknown.String()
		row.StaticReason = err.Error()
	}
	pk := onePipe(ek)
	sigs := make(map[int]string, len(counts))
	hasMulti, allParallel, allElided := false, true, true
	for _, w := range counts {
		sig, rep, ms, err := measureOnce(pk, n, seed, opts.at(w), false)
		if err != nil {
			return row, err
		}
		row.WallMS[w] = ms
		row.Chunks[w] = rep.Chunks
		row.Steals[w] = rep.Steals
		sigs[w] = sig
		if w < 2 {
			continue
		}
		hasMulti = true
		if !rep.GuardElided {
			allElided = false
		}
		// Report.Parallel means "actually dispatched across >= 2
		// workers"; a pure kernel whose remainder fell below the
		// dispatch threshold reports false here too.
		if !rep.Parallel {
			allParallel = false
			if row.AbortReason == "" {
				row.AbortReason = rep.AbortReason
			}
			if row.AbortReason == "" {
				row.AbortReason = fmt.Sprintf("speculation did not engage at %d workers (n=%d below dispatch threshold)", w, n)
			}
		}
	}
	row.Parallel = hasMulti && allParallel
	row.GuardElided = hasMulti && allElided
	if !hasMulti && row.AbortReason == "" {
		row.AbortReason = "only sequential counts measured"
	}
	row.Identical = true
	for _, w := range counts {
		if sigs[w] != sigs[1] {
			row.Identical = false
			row.Parallel = false
			if row.AbortReason == "" {
				row.AbortReason = fmt.Sprintf("output at %d workers diverged from sequential", w)
			}
		}
	}
	base := row.WallMS[1]
	for _, w := range counts {
		if row.WallMS[w] > 0 {
			row.Speedup[w] = base / row.WallMS[w]
		}
	}
	return row, nil
}

// measureOnce runs the kernel once through the real ParallelArray API —
// fused (one pipePar over every stage) or chained (one mapPar per stage,
// which for a one-stage kernel is the plain mapPar of the exec ladder) —
// and returns the output signature, the engine report, and wall-clock
// ms. Only the operation itself is timed: prelude execution,
// ParallelArray construction and the O(n) signature join are identical
// sequential work at every worker count and would otherwise drag every
// speedup toward 1.0.
func measureOnce(pk workloads.PipeKernel, n int, seed uint64, opts autopar.Options, fused bool) (string, rivertrail.Report, float64, error) {
	var setup strings.Builder
	setup.WriteString(pk.Prelude)
	setup.WriteString("\n")
	names := make([]string, len(pk.Stages))
	for s, st := range pk.Stages {
		names[s] = fmt.Sprintf("__f%d", s+1)
		fmt.Fprintf(&setup, "var %s = %s;\n", names[s], st.Elemental)
	}
	setup.WriteString("var __pa = ParallelArray(__rawInput);\n")
	op := "__pa.mapPar(" + strings.Join(names, ").mapPar(") + ")"
	if fused {
		op = "__pa.pipePar(" + strings.Join(names, ", ") + ")"
	}
	// interp.Load: the ladder re-parses the same three programs once per
	// worker count; the process-wide cache hands back shared read-only
	// ASTs instead (the interpreter never mutates what it executes).
	setupProg, err := interp.Load(setup.String())
	if err != nil {
		return "", rivertrail.Report{}, 0, err
	}
	opProg, err := interp.Load("var __out = " + op + ";\n")
	if err != nil {
		return "", rivertrail.Report{}, 0, err
	}
	sigProg, err := interp.Load(`var __sig = __out.toArray().join(",");` + "\n")
	if err != nil {
		return "", rivertrail.Report{}, 0, err
	}
	in := interp.New(interp.WithSeed(seed))
	st := rivertrail.Install(in)
	st.SetOptions(opts)
	elems := make([]value.Value, n)
	for i := range elems {
		elems[i] = value.Number(pk.Input(i))
	}
	in.SetGlobal("__rawInput", value.ObjectVal(in.NewArray(elems...)))
	if err := in.Run(setupProg); err != nil {
		return "", rivertrail.Report{}, 0, err
	}

	t0 := time.Now()
	if err := in.Run(opProg); err != nil {
		return "", rivertrail.Report{}, 0, err
	}
	ms := float64(time.Since(t0).Microseconds()) / 1000

	if err := in.Run(sigProg); err != nil {
		return "", rivertrail.Report{}, 0, err
	}
	sig := in.Global("__sig").Str()
	if sig == "" {
		return "", rivertrail.Report{}, 0, fmt.Errorf("operation produced no output")
	}
	return sig, st.Last(), ms, nil
}

// onePipe is the kernel as the one-stage pipeline it is, the form
// measureOnce runs.
func onePipe(ek workloads.ExecKernel) workloads.PipeKernel {
	return workloads.PipeKernel{
		App: ek.App, Loop: ek.Loop, Prelude: ek.Prelude, N: ek.N, Input: ek.Input,
		Stages: []workloads.PipeStage{{Elemental: ek.Elemental}},
	}
}

// amdahlForApp resolves the ModeDeep 16-core bound for an app, caching
// the (expensive) deep run per app.
func amdahlForApp(app string, seed uint64, cache map[string]float64) (float64, error) {
	if v, ok := cache[app]; ok {
		return v, nil
	}
	var wl *workloads.Workload
	if app == "Histogram" {
		wl = workloads.Histogram()
	} else {
		var err error
		wl, err = workloads.ByName(app)
		if err != nil {
			return 0, err
		}
	}
	res, err := runDeepOnly(wl, seed)
	if err != nil {
		return 0, err
	}
	cache[app] = res.Amdahl16
	return res.Amdahl16, nil
}

// ExecSummary condenses rows for logs: "5/7 loops parallel, best 3.1x".
func ExecSummary(rows []ExecRow) string {
	par := 0
	best := 0.0
	for _, r := range rows {
		if r.Parallel {
			par++
		}
		if s, _ := r.BestSpeedup(); s > best {
			best = s
		}
	}
	return fmt.Sprintf("%d/%d convertible loops executed in parallel, best measured speedup %.2fx",
		par, len(rows), best)
}
