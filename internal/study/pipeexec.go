package study

// The pipeline ladder: ModeExec's pipePar counterpart. The image
// workload (workloads.ImagePipe) is a decode → filter → encode chain
// whose stage loops are sequentially dependent — the shape flat mapPar
// cannot merge — so each worker count is measured two ways: pipePar
// (the fused stage chain run chunk by chunk on one pool dispatch) and
// the chained-mapPar baseline (each stage a full parallel pass with a
// barrier between passes). Outputs must be byte-identical across both strategies and
// every count; the core.PipePairDetector is run over the raw loop-pair
// form of the same program to confirm the chain is detectable, closing
// the detect → schedule → verify loop.

import (
	"fmt"

	"repro/internal/autopar"
	"repro/internal/core"
	"repro/internal/effects"
	"repro/internal/js/interp"
	"repro/internal/workloads"
)

// PipeRow is the pipeline workload measured across the worker ladder.
type PipeRow struct {
	App, Loop string
	// N is the scaled element count; Stages the pipeline depth.
	N, Stages int
	// PipeMS and ChainMS map worker count to wall-clock milliseconds for
	// the pipelined run and the chained-mapPar baseline.
	PipeMS, ChainMS map[int]float64
	// Speedup maps worker count to sequential-pipePar-time / pipePar-time.
	Speedup map[int]float64
	// Parallel is true when the pipeline actually dispatched (>= 2
	// goroutines) at every count >= 2; AbortReason is the first §5.3
	// reason observed when it did not.
	Parallel    bool
	AbortReason string
	// Identical is true when outputs were byte-identical across every
	// count and both strategies.
	Identical bool
	// Batches is the chunk-plan length of the dispatch at the ladder's
	// top count (0 when it never dispatched).
	Batches int
	// StageVerdicts[s] is the purity prover's verdict for stage s —
	// computed for every row from the stage's own source, whatever the
	// engine's -static mode (the ModeExec static-column convention).
	StageVerdicts []string
	// PairsFound is the number of produce → consume pairs the
	// core.PipePairDetector reported on the raw loop-pair form;
	// PairsWant is the workload's expected count.
	PairsFound, PairsWant int
}

// RunPipeAll measures the pipeline workload at each worker count
// (nil = ExecWorkerCounts; a leading 1 is forced). The returned counts
// are the normalized ladder actually measured.
func RunPipeAll(seed uint64, counts []int, static autopar.StaticMode) ([]PipeRow, []int, error) {
	counts = normalizeCounts(counts)
	row, err := runPipeKernel(workloads.ImagePipe(), seed, counts, static)
	if err != nil {
		return nil, counts, fmt.Errorf("study: pipeline %s/%s: %w", row.App, row.Loop, err)
	}
	return []PipeRow{row}, counts, nil
}

func runPipeKernel(pk workloads.PipeKernel, seed uint64, counts []int, static autopar.StaticMode) (PipeRow, error) {
	n := workloads.CurrentScale().N(pk.N)
	row := PipeRow{
		App: pk.App, Loop: pk.Loop, N: n, Stages: len(pk.Stages),
		PipeMS:  make(map[int]float64, len(counts)),
		ChainMS: make(map[int]float64, len(counts)),
		Speedup: make(map[int]float64, len(counts)),
	}

	// Detector verification on the raw loop-pair form. A small n keeps
	// the interpreted run cheap; the access-set answer is size-blind.
	found, err := detectPipePairs(pk, 48)
	if err != nil {
		return row, fmt.Errorf("pair detection: %w", err)
	}
	row.PairsFound, row.PairsWant = found, pk.WantPairs

	pipeSigs := make(map[int]string, len(counts))
	chainSigs := make(map[int]string, len(counts))
	top := counts[len(counts)-1]
	hasMulti, allParallel := false, true
	for _, w := range counts {
		opts := autopar.Options{Workers: w, Static: static}
		sig, rep, ms, err := measureOnce(pk, n, seed, opts, true)
		if err != nil {
			return row, fmt.Errorf("pipePar workers=%d: %w", w, err)
		}
		row.PipeMS[w] = ms
		pipeSigs[w] = sig
		if w == top {
			row.Batches = rep.Pipe.Batches
		}
		if len(row.StageVerdicts) == 0 {
			for _, sr := range rep.StageStatic {
				row.StageVerdicts = append(row.StageVerdicts, sr.Verdict.String())
			}
		}
		if w >= 2 {
			hasMulti = true
			if !rep.Parallel {
				allParallel = false
				if row.AbortReason == "" {
					row.AbortReason = rep.AbortReason
				}
				if row.AbortReason == "" {
					row.AbortReason = fmt.Sprintf("pipeline did not stream at %d workers (n=%d below dispatch threshold)", w, n)
				}
			}
		}

		csig, _, cms, err := measureOnce(pk, n, seed, opts, false)
		if err != nil {
			return row, fmt.Errorf("mapPar chain workers=%d: %w", w, err)
		}
		row.ChainMS[w] = cms
		chainSigs[w] = csig
	}
	// The static column is analysis output, computed per stage even when
	// the engine ran with -static=off and reported no verdicts.
	if len(row.StageVerdicts) == 0 {
		row.StageVerdicts = staticStageVerdicts(pk)
	}
	row.Parallel = hasMulti && allParallel
	if !hasMulti && row.AbortReason == "" {
		row.AbortReason = "only sequential counts measured"
	}
	row.Identical = true
	for _, w := range counts {
		if pipeSigs[w] != pipeSigs[1] || chainSigs[w] != pipeSigs[1] {
			row.Identical = false
			row.Parallel = false
			if row.AbortReason == "" {
				row.AbortReason = fmt.Sprintf("output at %d workers diverged", w)
			}
		}
	}
	base := row.PipeMS[1]
	for _, w := range counts {
		if row.PipeMS[w] > 0 {
			row.Speedup[w] = base / row.PipeMS[w]
		}
	}
	return row, nil
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

// staticStageVerdicts runs the prover over each stage source (the
// -static=off path, where the engine reports no verdicts itself).
func staticStageVerdicts(pk workloads.PipeKernel) []string {
	out := make([]string, len(pk.Stages))
	for s, st := range pk.Stages {
		if rep, err := effects.AnalyzeKernel(pk.Prelude, st.Elemental); err == nil {
			out[s] = rep.Verdict.String()
		} else {
			out[s] = effects.Unknown.String()
		}
	}
	return out
}

// PipeSummary condenses the pipeline ladder for logs.
func PipeSummary(rows []PipeRow) string {
	if len(rows) == 0 {
		return "no pipeline rows"
	}
	r := rows[0]
	best, at := 0.0, 1
	for w, s := range r.Speedup {
		if s > best || (s == best && w < at) {
			best, at = s, w
		}
	}
	return fmt.Sprintf("%d-stage pipeline streamed %d batches, best measured speedup %.2fx@%d",
		r.Stages, r.Batches, best, at)
}
