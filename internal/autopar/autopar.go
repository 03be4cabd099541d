// Package autopar closes the paper's analyze → execute loop (§5.1/§5.3):
// it is a speculate-then-verify execution engine that makes ParallelArray
// operations genuinely parallel instead of merely classifying them, and
// the in-language API they are called through.
//
// Install (parallelarray.go) adds the ParallelArray(arr) constructor the
// paper recommends (§5.1: "libraries can take a functional approach to
// exposing data parallelism (like RiverTrail did)"). A ParallelArray
// copies its elements at construction (value semantics, matching River
// Trail); its mapPar, filterPar, reducePar and pipePar methods run on the
// engine below, and RiverTrailReport() hands the last Outcome to script.
//
// There are two operations — the element-wise stage chain (pipeline.go:
// mapPar and filterPar are its one-stage cases, pipePar the general one)
// and the reduction (ReduceSpec) — and one speculation spine, run, that
// takes either through the same phases:
//
//  0. Gate (Options.Static): the purity prover's verdict per elemental.
//     Refuted refuses the plan before any speculative work; all Proven
//     elides the Guard and phase 1.
//  1. Profile: a leading slice of the elements runs sequentially on the
//     main interpreter under the purity Guard. Any write to pre-existing
//     state aborts the plan here, with the §5.3 reason naming the
//     variable or property.
//  2. Plan: each elemental ships as its source text and its closure
//     captures are serialized (capture.go); the input slice is
//     checked element-by-element for crossability. Anything that cannot
//     move between share-nothing interpreters aborts.
//  3. Dispatch: the remaining elements execute on a pool of worker
//     goroutines, one private interpreter per worker holding only the
//     captured helpers and the elemental, loaded from its source text,
//     which the Go chunk loop calls directly per element. Each worker is
//     armed with its own Guard: an impurity that only manifests beyond
//     the profiled slice is detected on the worker, not silently raced.
//     Scheduling goes through internal/sched (adaptive chunks,
//     randomized work stealing); results are index-addressed and reduce
//     partials merge in fixed chunk-plan order, so outputs stay
//     byte-identical at every worker count. A guard that trips mid-dispatch — including
//     on a stolen chunk — cancels the whole pool. Results cross back
//     only if primitive.
//  4. Verify/fallback: any worker-side violation, error, or non-crossable
//     result abandons the speculation and re-executes the remainder
//     sequentially on the main interpreter, preserving exact sequential
//     semantics (side effects, exception order). With Options.Verify the
//     merged parallel result is additionally cross-checked bit-identical
//     against a sequential shadow run; a divergence (misspeculation) is
//     reported and the sequential values win.
//
// The Outcome of every operation reports what happened and why, feeding
// RiverTrailReport() — the paper's requirement that speculation "not
// only ... abort when it fails to run a loop in parallel, but also have
// ways to report to the developer the reason for aborting."
package autopar

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/effects"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/sched"
)

// Options configures one speculative operation.
type Options struct {
	// Workers is the pool size for the dispatched remainder; < 2 disables
	// speculation (everything runs sequentially under the guard).
	Workers int
	// Verify cross-checks the parallel result bit-identical against a
	// sequential shadow run (used by tests and ModeExec validation).
	Verify bool
	// MinChunk and ChunkDivisor tune the work-stealing scheduler's chunk
	// plan for the dispatched remainder (0 = sched defaults). At any
	// fixed setting, outputs are byte-identical across worker counts.
	// Element-wise outputs are identical at any setting; a reduce's merge
	// bracketing follows the chunk boundaries, so comparing reduce
	// output across *different* knob settings requires an associative
	// combiner (Verify catches the rest).
	MinChunk     int
	ChunkDivisor int
	// Static selects how much the engine trusts the internal/effects
	// purity prover (static.go): StaticOff never consults it,
	// StaticAssist elides the Guard and profile slice for Proven
	// kernels and refuses Refuted ones.
	Static StaticMode
	// Pipeline is never read: pipePar dispatches under exactly the
	// conditions mapPar does. It stays declared solely because
	// bench/exec.go sets it (ROADMAP's one-benchmark item deletes it).
	Pipeline bool
}

// schedOptions maps the speculation options onto the scheduler's.
func (o Options) schedOptions() sched.Options {
	return sched.Options{
		Workers:  o.Workers,
		MinChunk: o.MinChunk,
		Divisor:  o.ChunkDivisor,
	}
}

// Outcome reports one speculative operation.
type Outcome struct {
	// Op is "mapPar", "filterPar", "reducePar" or "pipePar".
	Op string
	// Pure is true when no purity violation was observed (profile slice
	// and worker guards all clean).
	Pure bool
	// Parallel is true when the remainder actually executed on >= 2
	// workers and the merge survived all checks.
	Parallel bool
	// Workers is the number of goroutines that executed the plan
	// (1 = sequential).
	Workers int
	// Profiled counts elements run under the guard on the main
	// interpreter; Dispatched counts elements executed on the pool.
	Profiled, Dispatched int
	// Elements is the total processed.
	Elements int
	// Misspeculated is true when Verify found a divergence.
	Misspeculated bool
	// AbortReason is the §5.3-style reason the plan fell back ("" when
	// the speculation succeeded or never started).
	AbortReason string
	// Chunks is the scheduler's chunk-plan length for the dispatched
	// remainder; Steals counts successful steal operations. Steals are
	// timing-dependent telemetry — they describe how the run balanced,
	// never what it computed (0 when nothing dispatched).
	Chunks, Steals int
	// Static is the purity prover's verdict and reason chain for a
	// single-elemental operation (mapPar, filterPar, reducePar, a
	// one-stage pipePar) — filled on every path, refusal included. It is
	// the zero report (Verdict Unknown, no reasons) when Options.Static
	// was off and the prover never ran, and for a multi-stage pipePar,
	// whose verdicts are per stage.
	Static effects.Report
	// GuardElided is true when the operation ran with zero Guard hooks
	// installed anywhere — no profile slice, unguarded workers — on the
	// strength of a Proven verdict.
	GuardElided bool
	// Pipe is the telemetry of the operation's pool dispatch (zero-valued
	// when it never reached the pool).
	Pipe PipeStats
	// StageStatic is the per-elemental prover report when a static mode
	// was active (index = stage position; one entry for a single-stage
	// operation); nil otherwise. StageElided[s] is true when stage s
	// dispatched with zero Guard hooks on the strength of its Proven
	// verdict.
	StageStatic []effects.Report
	StageElided []bool
}

// PipeStats describes one pool dispatch: the stage count (1 for mapPar,
// filterPar and reducePar), the pool size the scheduler resolved, and
// Batches — the chunk-plan length, each chunk running the whole stage
// chain on the worker that claimed it.
type PipeStats struct {
	Stages, Workers, Batches int
	// Stalls is always nil: chunks never wait on one another. It is kept
	// solely because bench/exec.go ranges over it (ROADMAP's
	// one-benchmark item drops it with the taskgraph.pipe_stalls metric).
	Stalls []int
}

const (
	// minDispatch is the smallest remainder worth dispatching.
	minDispatch = 4
	maxProfile  = 64
)

// profileCount is the number of leading elements of n run under the
// guard before dispatch: n/8 clamped to [1, 64], and never more than n.
func profileCount(n int) int {
	return min(max(n/8, 1), maxProfile, n)
}

// call invokes fn on the main interpreter; JS throws propagate as panics
// exactly like the sequential path (enclosing try/catch or SafeCall
// boundaries handle them; Guard.With restores hooks on unwind).
func call(in *interp.Interp, fn value.Value, args ...value.Value) value.Value {
	v, _ := in.CallFunction(fn, value.Undefined(), args)
	return v
}

// operation is what differs between the element-wise stage chain and
// the reduction; run owns every phase they share.
type operation interface {
	// step applies the operation's sequential semantics to element i on
	// the main interpreter.
	step(i int)
	// dispatch plans [base, n) and runs it on the pool, with stage s
	// unguarded where proven[s]. A plan that cannot be built is a fault
	// with zero Stats.
	dispatch(base int, proven []bool) (sched.Stats, *workerFault)
	// verify shadow-runs [base, n) sequentially against the dispatched
	// result and leaves the sequential values in place; it returns what
	// diverged ("" when bit-identical).
	verify(base int) string
}

// stageLabel prefixes a reason with the stage it belongs to; a
// single-stage operation has nothing to tell apart.
func stageLabel(s, stages int) string {
	if stages == 1 {
		return ""
	}
	return fmt.Sprintf("stage %d: ", s)
}

// run takes one operation over elements [start, n) through the phases
// of the package comment: static gate, profile under guard, dispatch,
// then fallback or verify. fns are the elementals the gate proves.
func run(in *interp.Interp, op string, fns []value.Value, start, n int, opts Options, o operation) Outcome {
	oc := Outcome{Op: op, Elements: n, Workers: 1, Pure: true}
	if start >= n {
		return oc
	}
	// guarded runs [from, n) sequentially under a fresh guard — the
	// refusal and fallback path, preserving exact sequential semantics
	// (side effects and exception order included). The guard keeps the
	// §5.1 purity signal alive after the plan is already abandoned: a
	// write first manifesting beyond the profile slice still flips Pure
	// and is named in the report.
	guarded := func(from int) {
		_, violation := profileUnderGuard(in, from, n, n, o.step)
		noteFallbackViolation(&oc, violation)
	}

	proven := make([]bool, len(fns))
	allProven := false
	if opts.Static != StaticOff {
		oc.StageStatic = make([]effects.Report, len(fns))
		allProven = true
		refuse := ""
		for s, fn := range fns {
			rep := AnalyzeStatic(in, fn)
			oc.StageStatic[s] = rep
			if rep.Verdict == effects.Proven {
				proven[s] = true
				continue
			}
			allProven = false
			if rep.Verdict == effects.Refuted && refuse == "" {
				refuse = "refused parallel plan: " + stageLabel(s, len(fns)) +
					"static analysis refuted purity: " + rep.First()
			}
		}
		if len(fns) == 1 {
			oc.Static = oc.StageStatic[0]
		}
		if refuse != "" {
			// Refused before any speculative work: the whole operation
			// runs sequentially — still guarded, so the dynamic purity
			// column keeps its own independent verdict.
			oc.AbortReason = refuse
			guarded(start)
			oc.Profiled = n - start
			return oc
		}
	}

	base := start + profileCount(n-start)
	if allProven {
		// Proven kernels need no profile slice: the prover already did
		// what profiling exists to discover.
		base = start
	}
	wantSpec := opts.Workers >= 2 && n-base >= minDispatch
	if allProven && !wantSpec {
		// Sequential, but with zero guard hooks: sequential execution is
		// semantically exact with or without them.
		for i := start; i < n; i++ {
			o.step(i)
		}
		oc.GuardElided = true
		return oc
	}
	if !allProven {
		limit := n
		if wantSpec {
			limit = base
		}
		executed, violation := profileUnderGuard(in, start, limit, n, o.step)
		oc.Profiled = executed
		if violation != "" {
			oc.Pure = false
			oc.AbortReason = "aborted parallel plan: " + violation
			return oc
		}
		if !wantSpec {
			return oc
		}
	}

	// Plan only after a clean profile: serialization (capture analysis,
	// worker program text, crossability scan) is wasted work for a
	// kernel the guard already rejected. On the Proven path these checks
	// are the soundness backstop — a rebound ambient or non-crossable
	// capture still aborts to the (exact) sequential fallback.
	stats, fault := o.dispatch(base, proven)
	oc.Chunks, oc.Steals = stats.Chunks, stats.Steals
	if stats.Chunks > 0 {
		oc.Pipe = PipeStats{Stages: len(fns), Workers: stats.Workers, Batches: stats.Chunks}
	}
	if fault != nil {
		oc.Pure = !fault.impure
		oc.AbortReason = "aborted parallel plan: " + fault.reason
		// Every remainder element recomputes on the main interpreter —
		// partial worker results (possibly stale snapshots) are all
		// overwritten.
		guarded(base)
		return oc
	}
	// The scheduler clamps the pool to the chunk plan; a 1-worker
	// dispatch is not parallel execution, whatever the options asked for.
	oc.Parallel = stats.Workers >= 2
	oc.Workers = stats.Workers
	oc.Dispatched = n - base
	oc.GuardElided = allProven
	if opts.Static != StaticOff {
		oc.StageElided = proven
	}

	if opts.Verify {
		if diverged := o.verify(base); diverged != "" {
			oc.Misspeculated = true
			oc.Parallel = false
			oc.Workers = 1
			oc.Dispatched = 0
			oc.AbortReason = "misspeculation: " + diverged
		}
	}
	return oc
}

// profileUnderGuard runs body(i) for i in [start, n) under a fresh
// purity guard chained onto the interpreter's installed hooks. While
// the guard is clean it stops at limit — the speculation handoff
// point; once the guard trips, it runs to completion instead (the
// classic guarded sequential fallback). Returns the elements executed
// and the guard violation ("" when clean).
func profileUnderGuard(in *interp.Interp, start, limit, n int, body func(i int)) (int, string) {
	guard := NewGuard()
	executed := 0
	_ = guard.With(in, func() error {
		for i := start; i < n; i++ {
			if i >= limit && guard.Violation() == "" {
				break
			}
			body(i)
			executed++
		}
		return nil
	})
	return executed, guard.Violation()
}

// noteFallbackViolation merges a violation observed during a guarded
// fallback into the outcome (deduplicated: an impure worker fault has
// already named the same write).
func noteFallbackViolation(oc *Outcome, violation string) {
	if violation == "" {
		return
	}
	oc.Pure = false
	if !strings.Contains(oc.AbortReason, violation) {
		oc.AbortReason += "; also: " + violation
	}
}

// plan is one elemental prepared for share-nothing workers.
type plan struct {
	// src is the worker program: the captured helper definitions, then
	// `var __elemental = <the literal's source text>;`.
	src  string
	caps *capturePlan
	// maxSteps is the main interpreter's step budget, which every worker
	// inherits: a kernel that terminates on the profiled slice but
	// diverges beyond it faults the worker — and falls back to the
	// equally bounded main interpreter — instead of hanging the pool.
	maxSteps int64
	// unguarded elides the per-worker Guard entirely: set only when the
	// static prover returned Proven for the elemental and its callees.
	// Workers stay share-nothing; only the write hooks disappear.
	unguarded bool
}

// newPlan serializes fn — its captures resolved against in, its source
// text bound to __elemental — into a worker program. A non-empty abort
// string means the operation must stay sequential.
func newPlan(in *interp.Interp, fn value.Value) (*plan, string) {
	if !fn.IsCallable() {
		return nil, "elemental is not a function"
	}
	caps, abort := newCapturePlan(in, fn.Object())
	if abort != "" {
		return nil, abort
	}
	lit := fn.Object().Fn.Decl.(*ast.FuncLit)
	return &plan{
		src:      caps.prelude() + "\nvar __elemental = " + lit.Source() + ";\n",
		caps:     caps,
		maxSteps: in.MaxSteps(),
	}, ""
}

// uncrossable names the first element of elems[base:] that cannot move
// between share-nothing interpreters ("" when all can).
func uncrossable(elems []value.Value, base int) string {
	for i := base; i < len(elems); i++ {
		if elems[i].IsObject() {
			return fmt.Sprintf("element %d is an object; cannot cross share-nothing workers", i)
		}
	}
	return ""
}

// workerFault is the first failure observed on the pool.
type workerFault struct {
	reason string // §5.3-style abort reason
	impure bool   // true when a worker guard flagged a write
}

// triage converts one worker-call outcome into a fault (nil = ok): call
// error first, then guard violation (impure), then a result that cannot
// cross share-nothing interpreters.
func triage(wi int, what string, v value.Value, err error, guard *Guard) *workerFault {
	if err != nil {
		return &workerFault{reason: fmt.Sprintf("worker %d: %s: %v", wi, what, err)}
	}
	if vi := guard.Violation(); vi != "" {
		return &workerFault{reason: fmt.Sprintf("speculation aborted on worker %d: %s", wi, vi), impure: true}
	}
	if v.IsObject() {
		return &workerFault{reason: fmt.Sprintf("%s is an object; cannot cross share-nothing workers", what)}
	}
	return nil
}

// errSpecAborted is the cancellation signal handed to the scheduler when
// a worker faults; the fault detail travels in the per-worker slot.
var errSpecAborted = errors.New("autopar: speculation aborted")

// workerPool is the lazily built per-slot state of one plan's dispatch.
// A slot is touched by a single goroutine (the sched contract), so no
// locks.
type workerPool struct {
	p     *plan
	slots []poolSlot
}

// poolSlot is one share-nothing interpreter with the plan's program
// loaded, its __elemental, its armed Guard (nil when a Proven verdict
// elided it; Violation() on a nil guard reports clean) and the slot's
// fault.
type poolSlot struct {
	in    *interp.Interp
	fn    value.Value
	guard *Guard
	fault *workerFault
	// args is the slot's argument buffer (call), allocated by its own
	// worker apart from the slots array, which the workers share.
	args []value.Value
}

func newWorkerPool(p *plan, size int) *workerPool {
	return &workerPool{p: p, slots: make([]poolSlot, size)}
}

// at returns slot w, building its worker on first use; nil means
// startup faulted (recorded in the slot).
func (wp *workerPool) at(w int) *poolSlot {
	sl := &wp.slots[w]
	if sl.in == nil {
		if *sl = wp.p.start(w); sl.fault != nil {
			return nil
		}
	}
	return sl
}

// start builds one share-nothing worker for the plan: captures
// installed, program run, __elemental looked up, then the guard armed —
// unless a Proven verdict elided the hooks. The program is parsed and
// compiled once per process (interp.Load's cache), not per worker.
func (p *plan) start(wi int) poolSlot {
	win := interp.New(interp.WithMaxSteps(p.maxSteps))
	p.caps.install(win)
	prog, err := interp.Load(p.src)
	if err == nil {
		err = win.Run(prog)
	}
	if err != nil {
		return poolSlot{fault: &workerFault{reason: fmt.Sprintf("worker %d failed to start: %v", wi, err)}}
	}
	sl := poolSlot{in: win, fn: win.Global("__elemental"), args: make([]value.Value, maxCallArgs)}
	if !p.unguarded {
		sl.guard = NewGuard()
		sl.guard.Activate(win)
	}
	return sl
}

// maxCallArgs is the most arguments poolSlot.call passes: a reduction's
// (acc, element, index).
const maxCallArgs = 3

// call invokes the worker's elemental with at most maxCallArgs args,
// passed in the slot's own buffer, which the callee copies what it keeps
// of; a throw or a fatal condition (step limit) comes back as the error.
func (sl *poolSlot) call(args ...value.Value) (value.Value, error) {
	return sl.in.SafeCall(sl.fn, value.Undefined(), sl.args[:copy(sl.args, args)])
}

// firstFault returns the first fault in (pool, slot) scan order, nil
// when clean — a deterministic pick when several workers (or several
// stages, one pool each) fault concurrently — labelled with its stage.
func firstFault(pools ...*workerPool) *workerFault {
	for s, wp := range pools {
		for i := range wp.slots {
			if f := wp.slots[i].fault; f != nil {
				return &workerFault{reason: stageLabel(s, len(pools)) + f.reason, impure: f.impure}
			}
		}
	}
	return nil
}

// ReduceSpec folds elems with fn(acc, elem, i) speculatively. The
// sequential semantics seed acc with init (when hasInit) or elems[0];
// the parallel plan folds per-worker chunks with the elemental as the
// combiner and merges partials in chunk order, which equals the
// sequential fold exactly when the elemental is associative — Verify
// catches the rest (the reduction-order caveat of §4.1).
func ReduceSpec(in *interp.Interp, fn value.Value, elems []value.Value, init value.Value, hasInit bool, opts Options) (value.Value, Outcome) {
	r := &reduction{in: in, fn: fn, elems: elems, opts: opts, acc: init}
	start := 0
	if !hasInit {
		if len(elems) == 0 {
			return value.Undefined(), Outcome{Op: "reducePar", Workers: 1, Pure: true}
		}
		r.acc = elems[0]
		start = 1
	}
	oc := run(in, "reducePar", []value.Value{fn}, start, len(elems), opts, r)
	return r.acc, oc
}

// reduction is the left fold as an operation. acc is the running fold
// and, at the end, the result; seed is acc at the dispatch hand-off —
// what the chunk partials merged into and the Verify shadow restarts
// from.
type reduction struct {
	in        *interp.Interp
	fn        value.Value
	elems     []value.Value
	opts      Options
	acc, seed value.Value
}

func (r *reduction) step(i int) {
	r.acc = call(r.in, r.fn, r.acc, r.elems[i], value.Int(i))
}

// dispatch folds [base, n) chunk by chunk under the work-stealing pool
// and merges the partials into acc in chunk-plan order. The plan is a
// pure function of the remainder size, so the merge bracketing is
// identical at every worker count.
func (r *reduction) dispatch(base int, proven []bool) (sched.Stats, *workerFault) {
	pl, abort := newPlan(r.in, r.fn)
	if abort == "" {
		abort = uncrossable(r.elems, base)
	}
	if abort != "" {
		return sched.Stats{}, &workerFault{reason: abort}
	}
	pl.unguarded = proven[0]

	opts := r.opts.schedOptions()
	chunks := sched.Plan(len(r.elems)-base, opts)
	partials := make([]value.Value, len(chunks))
	pool := newWorkerPool(pl, opts.MaxWorkers())
	stats, _ := sched.RunPlan(chunks, opts, func(w, ci, lo, hi int) error {
		sl := pool.at(w)
		if sl == nil {
			return errSpecAborted
		}
		// The chunk partial seeds from the chunk's first element, then
		// folds left with the elemental as combiner.
		acc, err := r.elems[base+lo], error(nil)
		for i := base + lo + 1; i < base+hi && err == nil; i++ {
			acc, err = sl.call(acc, r.elems[i], value.Int(i))
		}
		what := fmt.Sprintf("chunk partial [%d,%d)", base+lo, base+hi)
		if sl.fault = triage(w, what, acc, err, sl.guard); sl.fault != nil {
			return errSpecAborted
		}
		partials[ci] = acc
		return nil
	})
	if fault := firstFault(pool); fault != nil {
		return stats, fault
	}
	r.seed = r.acc
	for ci, part := range partials {
		r.acc = call(r.in, r.fn, r.acc, part, value.Int(base+chunks[ci].Lo))
	}
	return stats, nil
}

func (r *reduction) verify(base int) string {
	merged := r.acc
	r.acc = r.seed
	for i := base; i < len(r.elems); i++ {
		r.step(i)
	}
	if value.SameValue(r.acc, merged) {
		return ""
	}
	return "chunked reduction diverged from sequential fold (non-associative combiner)"
}
