package study

// ModeExec (casestudy -exec, RunExecAll) closes the paper's analyze →
// execute loop: where ModeDeep *predicts* speedup (Amdahl bounds over
// nests the dependence analysis clears), ModeExec *measures* it. Each
// ParallelArray-convertible hot loop (workloads.ExecKernels) runs
// through the real autopar speculative engine at a ladder of worker
// counts, the outputs are checked byte-identical across counts, and the
// measured speedup is reported next to the app's ModeDeep 16-core bound.
//
// The ladder's last row is the image pipeline (workloads.ImagePipe), a
// decode → filter → encode chain whose stage loops are sequentially
// dependent — the shape flat mapPar cannot merge. A mapPar kernel is
// the one-stage pipeline it is; a multi-stage kernel is measured two
// ways at each count: pipePar (the fused stage chain run chunk by chunk
// on one pool dispatch) and the chained-mapPar baseline (each stage a
// full parallel pass with a barrier between passes). Both must match
// the sequential output, and core.PipePairDetector runs over the raw
// loop-pair form of the same program to confirm the chain is
// detectable: detect → schedule → verify in one row.
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
	"repro/internal/core"
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
	// N is the scaled element count executed; Stages the pipeline depth
	// (1 for a mapPar kernel).
	N, Stages int
	// WallMS maps worker count to wall-clock milliseconds (the fused
	// pipePar run when Stages > 1). ChainMS is the chained-mapPar
	// baseline of a multi-stage kernel, nil when Stages == 1.
	WallMS, ChainMS map[int]float64
	// Speedup maps worker count to sequential-time / parallel-time.
	Speedup map[int]float64
	// Parallel is true when the speculative engine actually dispatched
	// at every count >= 2.
	Parallel bool
	// AbortReason is the first §5.3 reason observed when it did not.
	AbortReason string
	// Identical is true when outputs were byte-identical across all
	// counts (and both strategies) — the speculation safety contract.
	Identical bool
	// Amdahl16 is the app's ModeDeep 16-core bound, for side-by-side
	// comparison with the measured numbers.
	Amdahl16 float64
	// Chunks maps worker count to the scheduler's chunk-plan length for
	// the dispatched remainder (identical at every count — the
	// determinism contract).
	Chunks map[int]int
	// StageVerdicts[s] is the purity prover's verdict for stage s
	// ("proven", "refuted", "unknown"), from the resolver the engine's
	// gate uses — computed for every row, even when the engine runs with
	// -static=off, so the static column can sit next to the dynamic one.
	StageVerdicts []string
	// GuardElided is true when every multi-worker run dispatched with
	// zero Guard hooks (requires an engine static mode).
	GuardElided bool
	// PairsFound is the number of produce → consume pairs the
	// core.PipePairDetector reported on the raw loop-pair form;
	// PairsWant is the workload's expected count (0/0 for one stage).
	PairsFound, PairsWant int
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

// execKernels is the ladder's rows: every ExecKernel as the one-stage
// pipeline it is, then the image pipeline.
func execKernels() []workloads.PipeKernel {
	var pks []workloads.PipeKernel
	for _, ek := range workloads.ExecKernels() {
		pks = append(pks, onePipe(ek))
	}
	return append(pks, workloads.ImagePipe())
}

// RunExecAll measures every convertible kernel, its element count sized
// by s, at each worker count (nil = ExecWorkerCounts; a leading 1 is
// forced so speedups have a sequential baseline) and attaches the
// ModeDeep Amdahl bounds of the apps built at s. The returned counts are
// the normalized ladder actually measured — report renderers must use it
// rather than re-deriving the columns. static is the engine's mode; the
// static column is reported whatever it is.
func RunExecAll(seed uint64, s workloads.Scale, counts []int, static autopar.StaticMode) ([]ExecRow, []int, error) {
	counts = normalizeCounts(counts)
	amdahl := make(map[string]float64)
	var rows []ExecRow
	for _, pk := range execKernels() {
		row, err := runExecKernel(pk, s.N(pk.N), seed, counts, static)
		if err != nil {
			return rows, counts, fmt.Errorf("study: exec %s/%s: %w", pk.App, pk.Loop, err)
		}
		bound, err := amdahlForApp(pk.App, seed, s, amdahl)
		if err != nil {
			return rows, counts, fmt.Errorf("study: exec %s amdahl: %w", pk.App, err)
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

// runExecKernel measures one kernel over n elements across the count
// ladder: mapPar for one stage; fused pipePar plus the chained-mapPar
// baseline, and the pair detector, for more.
func runExecKernel(pk workloads.PipeKernel, n int, seed uint64, counts []int, static autopar.StaticMode) (ExecRow, error) {
	multi := len(pk.Stages) > 1
	row := ExecRow{
		App: pk.App, Loop: pk.Loop, N: n, Stages: len(pk.Stages),
		WallMS:  make(map[int]float64, len(counts)),
		Speedup: make(map[int]float64, len(counts)),
		Chunks:  make(map[int]int, len(counts)),
	}
	if multi {
		row.ChainMS = make(map[int]float64, len(counts))
		// A small n keeps the interpreted run cheap; the access-set
		// answer is size-blind.
		found, err := detectPipePairs(pk, 48)
		if err != nil {
			return row, fmt.Errorf("pair detection: %w", err)
		}
		row.PairsFound, row.PairsWant = found, pk.WantPairs
	}
	sigs := make(map[int]string, len(counts))
	chainSigs := make(map[int]string, len(counts))
	hasMulti, allParallel, allElided := false, true, true
	for _, w := range counts {
		opts := autopar.Options{Workers: w, Static: static}
		m, err := measureOnce(pk, n, seed, opts, multi)
		if err != nil {
			return row, fmt.Errorf("workers=%d: %w", w, err)
		}
		row.WallMS[w] = m.ms
		row.Chunks[w] = m.oc.Chunks
		sigs[w] = m.sig
		if row.StageVerdicts == nil {
			row.StageVerdicts = m.verdicts
		}
		if multi {
			c, err := measureOnce(pk, n, seed, opts, false)
			if err != nil {
				return row, fmt.Errorf("mapPar chain workers=%d: %w", w, err)
			}
			row.ChainMS[w] = c.ms
			chainSigs[w] = c.sig
		}
		if w < 2 {
			continue
		}
		hasMulti = true
		if !m.oc.GuardElided {
			allElided = false
		}
		// Outcome.Parallel means "actually dispatched across >= 2
		// workers"; a pure kernel whose remainder fell below the
		// dispatch threshold reports false here too.
		if !m.oc.Parallel {
			allParallel = false
			if row.AbortReason == "" {
				row.AbortReason = m.oc.AbortReason
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
		if sigs[w] != sigs[1] || (multi && chainSigs[w] != sigs[1]) {
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

// measurement is one timed operation: the output signature, the engine
// outcome, the wall-clock ms and the prover's verdict for each stage.
type measurement struct {
	sig      string
	oc       autopar.Outcome
	ms       float64
	verdicts []string
}

// measureOnce runs the kernel once through the real ParallelArray API —
// fused (one pipePar over every stage) or chained (one mapPar per stage,
// which for a one-stage kernel is the plain mapPar of the exec ladder).
// Before the operation it runs autopar.AnalyzeStatic, the engine's own
// resolver, on each loaded stage. Only the operation itself is timed:
// prelude execution, ParallelArray construction, the prover and the
// O(n) signature join are identical sequential work at every worker
// count and would otherwise drag every speedup toward 1.0.
func measureOnce(pk workloads.PipeKernel, n int, seed uint64, opts autopar.Options, fused bool) (measurement, error) {
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
		return measurement{}, err
	}
	opProg, err := interp.Load("var __out = " + op + ";\n")
	if err != nil {
		return measurement{}, err
	}
	sigProg, err := interp.Load(`var __sig = __out.toArray().join(",");` + "\n")
	if err != nil {
		return measurement{}, err
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
		return measurement{}, err
	}
	m := measurement{verdicts: make([]string, len(names))}
	for s, name := range names {
		m.verdicts[s] = autopar.AnalyzeStatic(in, in.Global(name)).Verdict.String()
	}

	t0 := time.Now()
	if err := in.Run(opProg); err != nil {
		return measurement{}, err
	}
	m.ms = float64(time.Since(t0).Microseconds()) / 1000

	if err := in.Run(sigProg); err != nil {
		return measurement{}, err
	}
	m.sig = in.Global("__sig").Str()
	if m.sig == "" {
		return measurement{}, fmt.Errorf("operation produced no output")
	}
	m.oc = st.Last()
	return m, nil
}

// onePipe is the kernel as the one-stage pipeline it is, the form
// measureOnce runs.
func onePipe(ek workloads.ExecKernel) workloads.PipeKernel {
	return workloads.PipeKernel{
		App: ek.App, Loop: ek.Loop, Prelude: ek.Prelude, N: ek.N, Input: ek.Input,
		Stages: []workloads.PipeStage{{Elemental: ek.Elemental}},
	}
}

// detectPipePairs runs the workload's raw loop-pair form under the
// PipePairDetector and returns how many produce → consume pairs it saw.
func detectPipePairs(pk workloads.PipeKernel, n int) (int, error) {
	prog, err := interp.Load(pk.PairProgram(n))
	if err != nil {
		return 0, err
	}
	in := interp.New()
	d := core.NewPipePairDetector()
	in.SetHooks(d)
	if err := in.Run(prog); err != nil {
		return 0, err
	}
	return len(d.Pairs()), nil
}

// amdahlForApp resolves the ModeDeep 16-core bound for an app built at
// scale s, caching the (expensive) deep run per app.
func amdahlForApp(app string, seed uint64, s workloads.Scale, cache map[string]float64) (float64, error) {
	if v, ok := cache[app]; ok {
		return v, nil
	}
	var wl *workloads.Workload
	if app == "Histogram" {
		wl = workloads.Histogram(s)
	} else {
		var err error
		wl, err = workloads.ByName(app, s)
		if err != nil {
			return 0, err
		}
	}
	res, _, _, err := RunDeepOnly(wl, seed)
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
