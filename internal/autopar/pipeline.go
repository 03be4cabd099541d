// Pipeline speculation (pipePar): the produce → consume shape the
// paper's taxonomy leaves on the table. Where mapPar parallelizes
// *within* one loop, PipelineSpec runs a chain of dependent elemental
// stages — out[i] = fK(...f1(elems[i], i)..., i) — over the same
// work-stealing pool (internal/sched): the worker that claims a chunk of
// the index space runs the whole stage chain over it, each stage on its
// own share-nothing interpreter with its own purity Guard (or
// guard-elided when the static prover proves that stage's kernel pure),
// exact sequential fallback on any violation in any stage.
//
// The sequential semantics of pipePar are the *fused* composition —
// element-major, all stages for element i before element i+1 — which is
// what the profile slice, the fallback and the Verify shadow all
// execute. A chain of mapPar calls is stage-major instead; the two
// orders are indistinguishable exactly when the stages are pure, which
// is the only case that dispatches.
package autopar

import (
	"fmt"

	"repro/internal/effects"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/printer"
	"repro/internal/js/value"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// buildStagePlan serializes one stage's elemental into a share-nothing
// kernel taking (x, i) — the element value crosses as a call argument,
// so no per-stage input array is installed (stage inputs exist only
// once the previous stage has produced them).
func buildStagePlan(in *interp.Interp, s int, fn value.Value, opts Options) (*plan, string) {
	if !fn.IsCallable() {
		return nil, fmt.Sprintf("stage %d is not a function", s)
	}
	caps, abort := newCapturePlan(in, fn.Object())
	if abort != "" {
		return nil, fmt.Sprintf("stage %d: %s", s, abort)
	}
	lit := fn.Object().Fn.Decl.(*ast.FuncLit)
	src := caps.prelude() + "\nvar __elemental = " + printer.PrintExpr(lit) + ";\n" +
		"function kernel(x, i) {\n  return __elemental(x, i);\n}\n"
	setup := func(win *interp.Interp) error {
		caps.install(win)
		return nil
	}
	return &plan{
		kernel: &parallel.Kernel{
			Source:   src,
			Setup:    setup,
			TreeWalk: opts.TreeWalk,
			MaxSteps: opts.WorkerSteps,
		},
	}, ""
}

// dispatchStages runs the stage chain over [base, len(elems)) on the
// work-stealing pool: the worker that claims a chunk applies stage 0,
// then stage 1, ... to it, so out doubles as the inter-stage buffer — a
// chunk is touched by one goroutine, which is all the ordering stage
// s+1's read of stage s's write needs. Each stage keeps a pool of its
// own (stages may capture same-named variables with different values),
// built per slot only when a chunk reaches that stage there. Any fault
// is recorded in its (stage, slot) and cancels the remaining chunks.
func dispatchStages(plans []*plan, elems, out []value.Value, base int, opts sched.Options) (sched.Stats, []*workerPool) {
	pools := make([]*workerPool, len(plans))
	for s, pl := range plans {
		pools[s] = newWorkerPool(pl, opts.MaxWorkers())
	}
	stats, _ := sched.Run(len(elems)-base, opts, func(w, ci, lo, hi int) error {
		for s, pool := range pools {
			sl := pool.at(w)
			if sl == nil {
				return errSpecAborted
			}
			kfn, ok := sl.callable("kernel")
			if !ok {
				return errSpecAborted
			}
			src := out
			if s == 0 {
				src = elems
			}
			for i := base + lo; i < base+hi; i++ {
				v, err := sl.worker.Call(kfn, src[i], value.Int(i))
				// Fast path first: fault labels are formatted only on
				// an actual fault (this is the measured hot path).
				if err != nil || v.IsObject() || sl.guard.Violation() != "" {
					sl.fault = triage(w, fmt.Sprintf("kernel(%d) result", i), v, err, sl.guard)
					sl.fault.reason = fmt.Sprintf("stage %d: %s", s, sl.fault.reason)
					return errSpecAborted
				}
				out[i] = v
			}
		}
		return nil
	})
	return stats, pools
}

// PipelineSpec executes the stage composition
// out[i] = fns[K-1](... fns[0](elems[i], i) ..., i) speculatively. The
// phases mirror speculate(): per-stage static verdicts, a fused profile
// slice under the Guard on the main interpreter, per-stage capture
// serialization, dispatch of the stage chain chunk by chunk
// (dispatchStages), and an exact sequential fallback — the fused
// composition re-run guarded on the main interpreter — when any stage
// faults. opts.Pipeline off (or Workers < 2, or a too-small remainder)
// keeps the whole operation sequential-but-guarded.
func PipelineSpec(in *interp.Interp, fns []value.Value, elems []value.Value, opts Options) ([]value.Value, Outcome) {
	n := len(elems)
	nStages := len(fns)
	oc := Outcome{Op: "pipePar", Elements: n, Workers: 1, Pure: true}
	out := make([]value.Value, n)
	if nStages == 0 {
		// Composing zero stages is the identity.
		copy(out, elems)
		return out, oc
	}
	composed := func(i int) {
		v := elems[i]
		for _, fn := range fns {
			v = call(in, fn, v, value.Int(i))
		}
		out[i] = v
	}
	if n == 0 {
		return out, oc
	}

	proven := make([]bool, nStages)
	allProven := false
	if opts.Static != StaticOff {
		oc.StageStatic = make([]effects.Report, nStages)
		allProven = true
		refuse := ""
		for s, fn := range fns {
			rep := AnalyzeStatic(in, fn)
			oc.StageStatic[s] = rep
			switch {
			case rep.Verdict == effects.Proven:
				proven[s] = true
				continue
			case rep.Verdict == effects.Refuted:
				if refuse == "" {
					refuse = fmt.Sprintf("refused pipeline plan: stage %d: static analysis refuted purity: %s", s, rep.First())
				}
			case opts.Static == StaticStrict:
				if refuse == "" {
					refuse = fmt.Sprintf("refused pipeline plan: stage %d: static=strict and verdict unknown: %s", s, rep.First())
				}
			}
			allProven = false
		}
		if refuse != "" {
			// Refused before any speculative work: the whole composition
			// runs sequentially — still guarded, so the dynamic purity
			// column keeps its own verdict (same contract as speculate).
			oc.AbortReason = refuse
			_, violation := profileUnderGuard(in, 0, n, n, composed)
			noteFallbackViolation(&oc, violation)
			oc.Profiled = n
			return out, oc
		}
	}

	base := opts.profileCount(n)
	if allProven {
		base = 0
	}
	wantSpec := opts.Pipeline && opts.Workers >= 2 && n-base >= opts.minDispatch()

	if allProven {
		if !wantSpec {
			for i := 0; i < n; i++ {
				composed(i)
			}
			oc.GuardElided = true
			return out, oc
		}
	} else {
		limit := n
		if wantSpec {
			limit = base
		}
		executed, violation := profileUnderGuard(in, 0, limit, n, composed)
		oc.Profiled = executed
		if violation != "" {
			oc.Pure = false
			oc.AbortReason = "aborted pipeline plan: " + violation
			return out, oc
		}
		if !wantSpec {
			return out, oc
		}
	}

	// Plan: the stage-0 input slice must cross share-nothing workers;
	// inter-stage values are checked as they are produced (triage).
	for i := base; i < n; i++ {
		if elems[i].IsObject() {
			oc.AbortReason = fmt.Sprintf("aborted pipeline plan: element %d is an object; cannot cross share-nothing workers", i)
			sequentialPipeRemainder(in, composed, base, n, &oc)
			return out, oc
		}
	}
	plans := make([]*plan, nStages)
	for s, fn := range fns {
		pl, abort := buildStagePlan(in, s, fn, opts)
		if abort != "" {
			oc.AbortReason = "aborted pipeline plan: " + abort
			sequentialPipeRemainder(in, composed, base, n, &oc)
			return out, oc
		}
		pl.unguarded = proven[s]
		plans[s] = pl
	}

	stats, pools := dispatchStages(plans, elems, out, base, opts.schedOptions())
	oc.Pipe = PipeStats{Stages: nStages, Workers: stats.Workers, Batches: stats.Chunks}
	oc.Chunks, oc.Steals = stats.Chunks, stats.Steals

	if fault := firstFault(pools...); fault != nil {
		oc.Pure = !fault.impure && oc.Pure
		oc.AbortReason = "aborted pipeline plan: " + fault.reason
		// Exact sequential fallback: every remainder element recomputes
		// on the main interpreter in fused element order — partial
		// worker results (possibly stale snapshots) are all overwritten.
		sequentialPipeRemainder(in, composed, base, n, &oc)
		return out, oc
	}
	oc.Parallel = stats.Workers >= 2
	oc.Workers = stats.Workers
	oc.Dispatched = n - base
	oc.GuardElided = allProven
	if opts.Static != StaticOff {
		oc.StageElided = append([]bool(nil), proven...)
	}

	if opts.Verify {
		if at := verifyPipeRemainder(in, fns, elems, base, out); at >= 0 {
			oc.Misspeculated = true
			oc.Parallel = false
			oc.Workers = 1
			oc.Dispatched = 0
			oc.AbortReason = fmt.Sprintf("misspeculation: pipelined result diverged from sequential shadow at element %d", at)
		}
	}
	return out, oc
}

// sequentialPipeRemainder re-executes the fused composition for
// [base, n) on the main interpreter under a fresh guard — the abort
// path, preserving exact sequential semantics (side effects, exception
// order), with any late violation merged into the outcome.
func sequentialPipeRemainder(in *interp.Interp, composed func(i int), base, n int, oc *Outcome) {
	_, violation := profileUnderGuard(in, base, n, n, composed)
	noteFallbackViolation(oc, violation)
}

// verifyPipeRemainder shadow-runs the fused composition for [base, n)
// and compares bit-identical; it returns the first divergent index
// (-1 when identical), overwriting out with the sequential values from
// the divergence on so the caller always returns sequential semantics.
func verifyPipeRemainder(in *interp.Interp, fns []value.Value, elems []value.Value, base int, out []value.Value) int {
	diverged := -1
	for i := base; i < len(elems); i++ {
		shadow := elems[i]
		for _, fn := range fns {
			shadow = call(in, fn, shadow, value.Int(i))
		}
		if diverged < 0 && !value.SameValue(shadow, out[i]) {
			diverged = i
		}
		if diverged >= 0 {
			out[i] = shadow
		}
	}
	return diverged
}
