// Package autopar closes the paper's analyze → execute loop (§5.1/§5.3):
// it is a speculate-then-verify execution engine that makes ParallelArray
// operations genuinely parallel instead of merely classifying them.
//
// A speculative run has four phases:
//
//  1. Profile: a leading slice of the elements runs the elemental
//     function sequentially on the main interpreter under the purity
//     Guard. Any write to pre-existing state aborts the plan here, with
//     the §5.3 reason naming the variable or property.
//  2. Plan: the elemental function's source is re-printed from its AST
//     and its closure captures are serialized (capture.go); the input
//     slice is checked element-by-element for crossability. Anything
//     that cannot move between share-nothing interpreters aborts.
//  3. Dispatch: the remaining elements execute on a pool of worker
//     goroutines, one private interpreter per worker (built on
//     internal/parallel's Kernel/Worker machinery), each armed with its
//     own Guard: an impurity that only manifests beyond the profiled
//     slice is detected on the worker, not silently raced. Scheduling
//     goes through internal/sched (adaptive chunks, randomized work
//     stealing); results are index-addressed and reduce partials merge
//     in fixed chunk-plan order, so outputs stay byte-identical at
//     every worker count. A guard that trips mid-dispatch — including
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
	"repro/internal/js/printer"
	"repro/internal/js/value"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// Options configures one speculative operation.
type Options struct {
	// Workers is the pool size for the dispatched remainder; < 2 disables
	// speculation (everything runs sequentially under the guard).
	Workers int
	// Profile is the number of leading elements run under the guard
	// before dispatch (0 = n/8 clamped to [1, 64]).
	Profile int
	// MinDispatch is the smallest remainder worth dispatching (0 = 4).
	MinDispatch int
	// Verify cross-checks the parallel result bit-identical against a
	// sequential shadow run (used by tests and ModeExec validation).
	Verify bool
	// MinChunk and ChunkDivisor tune the work-stealing scheduler's chunk
	// plan for the dispatched remainder (0 = sched defaults). At any
	// fixed setting, outputs are byte-identical across worker counts.
	// Map/filter outputs are identical at any setting; a reduce's merge
	// bracketing follows the chunk boundaries, so comparing reduce
	// output across *different* knob settings requires an associative
	// combiner (Verify catches the rest).
	MinChunk     int
	ChunkDivisor int
	// TreeWalk runs dispatched workers on the tree-walking evaluator
	// instead of the compiled one (parallel.Kernel.TreeWalk). Speculation
	// outcomes are identical either way — the guard-parity tests hold the
	// two engines to the same hook stream — so this is a bench/bisect
	// toggle, not a semantics knob.
	TreeWalk bool
	// Static selects how much the engine trusts the internal/effects
	// purity prover (static.go): StaticOff never consults it,
	// StaticAssist elides the Guard and profile slice for Proven
	// kernels and refuses Refuted ones, StaticStrict additionally
	// refuses Unknown ones.
	Static StaticMode
	// Pipeline enables pool dispatch for PipelineSpec / pipePar
	// (pipeline.go). Off, pipePar still computes the same composition —
	// sequentially, guarded — so the flag is a pure execution-strategy
	// toggle, never a semantics knob.
	Pipeline bool
	// WorkerSteps bounds each share-nothing worker interpreter's step
	// budget (0 = interpreter default). The pipeline fuzz sets it so a
	// fuzzed kernel that terminates on the profiled slice but diverges
	// beyond it faults the worker — and falls back to the (equally
	// step-bounded) main interpreter — instead of hanging the pool.
	WorkerSteps int64
}

// schedOptions maps the speculation options onto the scheduler's.
// Autopar kernels run inside a page the user is looking at, so the
// dispatch is declared interactive.
func (o Options) schedOptions() sched.Options {
	return sched.Options{
		Workers:  o.Workers,
		MinChunk: o.MinChunk,
		Divisor:  o.ChunkDivisor,
		Class:    sched.ClassInteractive,
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
	// Static is the purity prover's verdict and reason chain (the zero
	// report, Verdict Unknown with no reasons, when Options.Static was
	// off and the prover never ran).
	Static effects.Report
	// GuardElided is true when the operation ran with zero Guard hooks
	// installed anywhere — no profile slice, unguarded workers — on the
	// strength of a Proven verdict.
	GuardElided bool
	// Pipe is the dispatch telemetry of a pipePar operation (zero-valued
	// for flat operations and for pipelines that never dispatched).
	Pipe PipeStats
	// StageStatic is the per-stage prover report of a pipePar operation
	// when a static mode was active (index = stage position); nil
	// otherwise. StageElided[s] is true when stage s dispatched with
	// zero Guard hooks on the strength of its Proven verdict.
	StageStatic []effects.Report
	StageElided []bool
}

// PipeStats describes one dispatched pipePar: the stage count, the pool
// size the scheduler resolved, and Batches — the chunk-plan length, each
// chunk running the whole stage chain on the worker that claimed it.
type PipeStats struct {
	Stages, Workers, Batches int
	// Stalls is always nil: chunks never wait on one another. It is kept
	// solely because bench/exec.go ranges over it (ROADMAP item 3 has the
	// follow-up that drops it with the taskgraph.pipe_stalls metric).
	Stalls []int
}

const (
	defaultMinDispatch = 4
	maxProfile         = 64
)

func (o Options) profileCount(n int) int {
	p := o.Profile
	if p <= 0 {
		p = n / 8
		if p < 1 {
			p = 1
		}
		if p > maxProfile {
			p = maxProfile
		}
	}
	if p > n {
		p = n
	}
	return p
}

func (o Options) minDispatch() int {
	if o.MinDispatch > 0 {
		return o.MinDispatch
	}
	return defaultMinDispatch
}

// call invokes fn on the main interpreter; JS throws propagate as panics
// exactly like the sequential path (enclosing try/catch or SafeCall
// boundaries handle them; Guard.With restores hooks on unwind).
func call(in *interp.Interp, fn value.Value, args ...value.Value) value.Value {
	v, _ := in.CallFunction(fn, value.Undefined(), args)
	return v
}

// plan is one prepared speculative dispatch.
type plan struct {
	kernel *parallel.Kernel
	base   int // first dispatched element index
	n      int // total elements
	// unguarded elides the per-worker Guard entirely: set only when the
	// static prover returned Proven for the elemental and its callees.
	// Workers stay share-nothing; only the write hooks disappear.
	unguarded bool
}

// buildPlan serializes fn and the remainder elems[base:] into a
// share-nothing kernel. A non-empty abort string means the operation must
// stay sequential.
func buildPlan(op string, in *interp.Interp, fn value.Value, elems []value.Value, base int) (*plan, string) {
	if !fn.IsCallable() {
		return nil, "elemental is not a function"
	}
	caps, abort := newCapturePlan(in, fn.Object())
	if abort != "" {
		return nil, abort
	}
	for i := base; i < len(elems); i++ {
		if elems[i].IsObject() {
			return nil, fmt.Sprintf("element %d is an object; cannot cross share-nothing workers", i)
		}
	}
	lit := fn.Object().Fn.Decl.(*ast.FuncLit)
	elemental := printer.PrintExpr(lit)

	var body string
	switch op {
	case "filterPar":
		// Coerce on the worker so only booleans cross interpreters.
		body = "return __elemental(__input[i - __base], i) ? true : false;"
	default:
		body = "return __elemental(__input[i - __base], i);"
	}
	src := caps.prelude() + "\nvar __elemental = " + elemental + ";\n" +
		"function kernel(i) {\n  " + body + "\n}\n" +
		// Chunked fold for reducePar: acc seeds from the chunk's first
		// element, then folds left with the elemental as combiner.
		"function __chunkReduce(lo, hi) {\n" +
		"  var acc = __input[lo - __base];\n" +
		"  for (var i = lo + 1; i < hi; i++) {\n" +
		"    acc = __elemental(acc, __input[i - __base], i);\n" +
		"  }\n  return acc;\n}\n"

	remainder := elems[base:]
	setup := func(win *interp.Interp) error {
		// Per-worker copies: primitives are immutable, the array object is
		// private to the worker.
		copyElems := append([]value.Value(nil), remainder...)
		win.SetGlobal("__input", value.ObjectVal(win.NewArray(copyElems...)))
		win.SetGlobal("__base", value.Int(base))
		caps.install(win)
		return nil
	}
	return &plan{
		kernel: &parallel.Kernel{Source: src, Setup: setup},
		base:   base,
		n:      len(elems),
	}, ""
}

// workerFault is the first failure observed on the pool.
type workerFault struct {
	reason string // §5.3-style abort reason
	impure bool   // true when a worker guard flagged a write
}

// startWorker builds one share-nothing worker for the plan — guarded,
// unless a Proven verdict elided the hooks (the returned *Guard is nil
// then; Violation() on a nil guard reports clean).
func (p *plan) startWorker(wi int) (*parallel.Worker, *Guard, *workerFault) {
	w, err := p.kernel.NewWorker()
	if err != nil {
		return nil, nil, &workerFault{reason: fmt.Sprintf("worker %d failed to start: %v", wi, err)}
	}
	if p.unguarded {
		return w, nil, nil
	}
	guard := NewGuard()
	guard.Activate(w.Interp())
	return w, guard, nil
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

// workerPool is the lazily built per-slot state of one plan's dispatch:
// a share-nothing interpreter, its armed Guard (nil when a Proven
// verdict elided it), the callables resolved on it and the slot's
// fault. A slot is touched by a single goroutine (the sched contract),
// so no locks.
type workerPool struct {
	p     *plan
	slots []poolSlot
}

type poolSlot struct {
	worker *parallel.Worker
	guard  *Guard
	fns    map[string]value.Value
	fault  *workerFault
}

func newWorkerPool(p *plan, size int) *workerPool {
	return &workerPool{p: p, slots: make([]poolSlot, size)}
}

// at returns slot w, building its worker on first use; nil means
// startup faulted (recorded in the slot).
func (wp *workerPool) at(w int) *poolSlot {
	sl := &wp.slots[w]
	if sl.worker == nil {
		if sl.worker, sl.guard, sl.fault = wp.p.startWorker(w); sl.fault != nil {
			return nil
		}
	}
	return sl
}

// callable resolves the kernel-defined function name once per slot, not
// per chunk; false means the kernel does not define it (recorded as the
// slot's fault).
func (sl *poolSlot) callable(name string) (value.Value, bool) {
	if fn, ok := sl.fns[name]; ok {
		return fn, true
	}
	fn, err := sl.worker.Callable(name)
	if err != nil {
		sl.fault = &workerFault{reason: err.Error()}
		return fn, false
	}
	if sl.fns == nil {
		sl.fns = make(map[string]value.Value, 1)
	}
	sl.fns[name] = fn
	return fn, true
}

// firstFault returns the first fault in (pool, slot) scan order, nil
// when clean — a deterministic pick when several workers (or several
// pipeline stages, one pool each) fault concurrently.
func firstFault(pools ...*workerPool) *workerFault {
	for _, wp := range pools {
		for i := range wp.slots {
			if f := wp.slots[i].fault; f != nil {
				return f
			}
		}
	}
	return nil
}

// dispatch runs plan element indices [base, n) across the work-stealing
// pool, writing kernel results into index-addressed out[i] slots (so
// output is byte-identical at every worker count). Any fault — error,
// non-crossable result, or a guard tripping mid-chunk, stolen or not —
// cancels the remaining chunks. It returns the scheduling stats and the
// first fault (nil on success).
func (p *plan) dispatch(opts sched.Options, out []value.Value) (sched.Stats, *workerFault) {
	rem := p.n - p.base
	pool := newWorkerPool(p, opts.MaxWorkers())
	stats, _ := sched.Run(rem, opts, func(w, ci, lo, hi int) error {
		sl := pool.at(w)
		if sl == nil {
			return errSpecAborted
		}
		for i := p.base + lo; i < p.base+hi; i++ {
			v, err := sl.worker.CallKernel(i)
			// Fast path first: the fault label is formatted only when
			// a fault actually occurred (this loop is the measured
			// parallel hot path).
			if err != nil || v.IsObject() || sl.guard.Violation() != "" {
				sl.fault = triage(w, fmt.Sprintf("kernel(%d) result", i), v, err, sl.guard)
				return errSpecAborted
			}
			out[i] = v
		}
		return nil
	})
	return stats, firstFault(pool)
}

// reduceDispatch folds [base, n) chunk by chunk under the work-stealing
// pool, returning the partials in chunk-plan order (all crossable) plus
// each chunk's start index. The plan is a pure function of the remainder
// size, so the partial ordering — and the caller's merge bracketing —
// is identical at every worker count.
func (p *plan) reduceDispatch(opts sched.Options) ([]value.Value, []int, sched.Stats, *workerFault) {
	rem := p.n - p.base
	chunkPlan := sched.Plan(rem, opts)
	partials := make([]value.Value, len(chunkPlan))
	starts := make([]int, len(chunkPlan))
	pool := newWorkerPool(p, opts.MaxWorkers())
	stats, _ := sched.RunPlan(chunkPlan, opts, func(w, ci, lo, hi int) error {
		sl := pool.at(w)
		if sl == nil {
			return errSpecAborted
		}
		fold, ok := sl.callable("__chunkReduce")
		if !ok {
			return errSpecAborted
		}
		starts[ci] = p.base + lo
		v, err := sl.worker.Call(fold, value.Int(p.base+lo), value.Int(p.base+hi))
		what := fmt.Sprintf("chunk partial [%d,%d)", p.base+lo, p.base+hi)
		if sl.fault = triage(w, what, v, err, sl.guard); sl.fault != nil {
			return errSpecAborted
		}
		partials[ci] = v
		return nil
	})
	if f := firstFault(pool); f != nil {
		return nil, nil, stats, f
	}
	return partials, starts, stats, nil
}

// MapSpec executes out[i] = fn(elems[i], i) speculatively.
func MapSpec(in *interp.Interp, fn value.Value, elems []value.Value, opts Options) ([]value.Value, Outcome) {
	out := make([]value.Value, len(elems))
	oc := speculate(in, "mapPar", fn, elems, opts, out, identity)
	return out, oc
}

// FilterSpec evaluates keep[i] = ToBoolean(fn(elems[i], i)) speculatively.
func FilterSpec(in *interp.Interp, fn value.Value, elems []value.Value, opts Options) ([]bool, Outcome) {
	vals := make([]value.Value, len(elems))
	// Canonicalize to booleans on both sides: workers coerce on the
	// kernel (only booleans cross interpreters), so the main-side
	// profile, fallback and Verify shadow must compare in the same
	// domain — a truthy non-boolean predicate result is not a
	// misspeculation.
	oc := speculate(in, "filterPar", fn, elems, opts, vals, toBoolean)
	keep := make([]bool, len(vals))
	for i, v := range vals {
		keep[i] = v.ToBool()
	}
	return keep, oc
}

func identity(v value.Value) value.Value  { return v }
func toBoolean(v value.Value) value.Value { return value.Bool(v.ToBool()) }

// speculate is the shared map/filter engine: profile under guard, plan,
// dispatch, verify or fall back. coerce canonicalizes main-side results
// into the same domain worker results arrive in (identity for map,
// ToBoolean for filter).
func speculate(in *interp.Interp, op string, fn value.Value, elems []value.Value, opts Options, out []value.Value, coerce func(value.Value) value.Value) Outcome {
	n := len(elems)
	oc := Outcome{Op: op, Elements: n, Workers: 1, Pure: true}
	if n == 0 {
		return oc
	}

	proven := false
	if opts.Static != StaticOff {
		oc.Static = AnalyzeStatic(in, fn)
		switch {
		case oc.Static.Verdict == effects.Refuted:
			// Refused before any speculative work: the whole operation
			// runs sequentially — still guarded, so the dynamic purity
			// column keeps its own independent verdict.
			oc.AbortReason = "refused parallel plan: static analysis refuted purity: " + oc.Static.First()
			sequentialRemainder(in, fn, elems, 0, out, coerce, &oc)
			oc.Profiled = n
			return oc
		case oc.Static.Verdict == effects.Proven:
			proven = true
		case opts.Static == StaticStrict:
			oc.AbortReason = "refused parallel plan: static=strict and verdict unknown: " + oc.Static.First()
			sequentialRemainder(in, fn, elems, 0, out, coerce, &oc)
			oc.Profiled = n
			return oc
		}
	}

	base := opts.profileCount(n)
	if proven {
		// A Proven kernel needs no profile slice: the prover already
		// did what profiling exists to discover.
		base = 0
	}
	wantSpec := opts.Workers >= 2 && n-base >= opts.minDispatch()

	if proven {
		if !wantSpec {
			// Sequential, but with zero guard hooks: sequential
			// execution is semantically exact with or without them.
			for i := 0; i < n; i++ {
				out[i] = coerce(call(in, fn, elems[i], value.Int(i)))
			}
			oc.GuardElided = true
			return oc
		}
	} else {
		limit := n
		if wantSpec {
			limit = base
		}
		executed, violation := profileUnderGuard(in, 0, limit, n, func(i int) {
			out[i] = coerce(call(in, fn, elems[i], value.Int(i)))
		})
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
	// AST re-print, crossability scan) is wasted work for a kernel the
	// guard already rejected. On the Proven path these checks are the
	// soundness backstop — a rebound ambient or non-crossable capture
	// still aborts to the (exact) sequential fallback.
	pl, abort := buildPlan(op, in, fn, elems, base)
	if abort != "" {
		oc.AbortReason = "aborted parallel plan: " + abort
		sequentialRemainder(in, fn, elems, base, out, coerce, &oc)
		return oc
	}
	pl.kernel.TreeWalk = opts.TreeWalk
	pl.kernel.MaxSteps = opts.WorkerSteps
	pl.unguarded = proven

	stats, fault := pl.dispatch(opts.schedOptions(), out)
	oc.Chunks, oc.Steals = stats.Chunks, stats.Steals
	if fault != nil {
		oc.Pure = !fault.impure && oc.Pure
		oc.AbortReason = "aborted parallel plan: " + fault.reason
		sequentialRemainder(in, fn, elems, base, out, coerce, &oc)
		return oc
	}
	// The scheduler clamps the pool to the chunk plan; a 1-worker
	// dispatch is not parallel execution, whatever the options asked for.
	oc.Parallel = stats.Workers >= 2
	oc.Workers = stats.Workers
	oc.Dispatched = n - base
	oc.GuardElided = proven

	if opts.Verify {
		if at := verifyRemainder(in, fn, elems, base, out, coerce); at >= 0 {
			oc.Misspeculated = true
			oc.Parallel = false
			oc.Workers = 1
			oc.Dispatched = 0
			oc.AbortReason = fmt.Sprintf("misspeculation: parallel result diverged from sequential shadow at element %d", at)
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

// foldRemainder left-folds elems[base:] into acc on the main
// interpreter — the reduce fallback (oc non-nil: guarded, merging any
// late violation into the outcome) and the Verify shadow (oc nil:
// plain, the kernel is already proven clean).
func foldRemainder(in *interp.Interp, fn value.Value, acc value.Value, elems []value.Value, base int, oc *Outcome) value.Value {
	if oc == nil {
		for i := base; i < len(elems); i++ {
			acc = call(in, fn, acc, elems[i], value.Int(i))
		}
		return acc
	}
	_, violation := profileUnderGuard(in, base, len(elems), len(elems), func(i int) {
		acc = call(in, fn, acc, elems[i], value.Int(i))
	})
	noteFallbackViolation(oc, violation)
	return acc
}

// sequentialRemainder re-executes [base, n) on the main interpreter —
// the abort path, preserving exact sequential semantics (side effects
// and exception order included). It runs under a fresh guard so the
// §5.1 purity signal does not regress just because the plan already
// aborted for another reason: a write first manifesting beyond the
// profile slice still flips Pure and is named in the report, exactly
// as the pre-autopar whole-operation guard did.
func sequentialRemainder(in *interp.Interp, fn value.Value, elems []value.Value, base int, out []value.Value, coerce func(value.Value) value.Value, oc *Outcome) {
	_, violation := profileUnderGuard(in, base, len(elems), len(elems), func(i int) {
		out[i] = coerce(call(in, fn, elems[i], value.Int(i)))
	})
	noteFallbackViolation(oc, violation)
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

// verifyRemainder shadow-runs [base, n) sequentially and compares. It
// returns the first divergent index (-1 when bit-identical), overwriting
// out with the sequential values on divergence so the caller always
// returns sequential semantics.
func verifyRemainder(in *interp.Interp, fn value.Value, elems []value.Value, base int, out []value.Value, coerce func(value.Value) value.Value) int {
	diverged := -1
	for i := base; i < len(elems); i++ {
		shadow := coerce(call(in, fn, elems[i], value.Int(i)))
		if diverged < 0 && !value.SameValue(shadow, out[i]) {
			diverged = i
		}
		if diverged >= 0 {
			out[i] = shadow
		}
	}
	return diverged
}

// ReduceSpec folds elems with fn(acc, elem, i) speculatively. The
// sequential semantics seed acc with init (when hasInit) or elems[0];
// the parallel plan folds per-worker chunks with the elemental as the
// combiner and merges partials in chunk order, which equals the
// sequential fold exactly when the elemental is associative — Verify
// catches the rest (the reduction-order caveat of §4.1).
func ReduceSpec(in *interp.Interp, fn value.Value, elems []value.Value, init value.Value, hasInit bool, opts Options) (value.Value, Outcome) {
	n := len(elems)
	oc := Outcome{Op: "reducePar", Elements: n, Workers: 1, Pure: true}

	acc := init
	start := 0
	if !hasInit {
		if n == 0 {
			return value.Undefined(), oc
		}
		acc = elems[0]
		start = 1
	}
	if n == start {
		return acc, oc
	}

	proven := false
	if opts.Static != StaticOff {
		oc.Static = AnalyzeStatic(in, fn)
		switch {
		case oc.Static.Verdict == effects.Refuted:
			oc.AbortReason = "refused parallel plan: static analysis refuted purity: " + oc.Static.First()
			acc = foldRemainder(in, fn, acc, elems, start, &oc)
			oc.Profiled = n - start
			return acc, oc
		case oc.Static.Verdict == effects.Proven:
			proven = true
		case opts.Static == StaticStrict:
			oc.AbortReason = "refused parallel plan: static=strict and verdict unknown: " + oc.Static.First()
			acc = foldRemainder(in, fn, acc, elems, start, &oc)
			oc.Profiled = n - start
			return acc, oc
		}
	}

	base := start + opts.profileCount(n-start)
	if proven {
		base = start // no profile slice on the Proven path
	}
	wantSpec := opts.Workers >= 2 && n-base >= opts.minDispatch()

	if proven {
		if !wantSpec {
			// Sequential fold with zero guard hooks.
			acc = foldRemainder(in, fn, acc, elems, start, nil)
			oc.GuardElided = true
			return acc, oc
		}
	} else {
		limit := n
		if wantSpec {
			limit = base
		}
		executed, violation := profileUnderGuard(in, start, limit, n, func(i int) {
			acc = call(in, fn, acc, elems[i], value.Int(i))
		})
		oc.Profiled = executed
		if violation != "" {
			oc.Pure = false
			oc.AbortReason = "aborted parallel plan: " + violation
			return acc, oc
		}
		if !wantSpec {
			return acc, oc
		}
	}

	pl, abort := buildPlan("reducePar", in, fn, elems, base)
	if abort != "" {
		oc.AbortReason = "aborted parallel plan: " + abort
		return foldRemainder(in, fn, acc, elems, base, &oc), oc
	}
	pl.kernel.TreeWalk = opts.TreeWalk
	pl.kernel.MaxSteps = opts.WorkerSteps
	pl.unguarded = proven

	partials, starts, stats, fault := pl.reduceDispatch(opts.schedOptions())
	oc.Chunks, oc.Steals = stats.Chunks, stats.Steals
	if fault != nil {
		oc.Pure = !fault.impure && oc.Pure
		oc.AbortReason = "aborted parallel plan: " + fault.reason
		return foldRemainder(in, fn, acc, elems, base, &oc), oc
	}
	merged := acc
	for ci, part := range partials {
		merged = call(in, fn, merged, part, value.Int(starts[ci]))
	}
	oc.Parallel = stats.Workers >= 2
	oc.Workers = stats.Workers
	oc.Dispatched = n - base
	oc.GuardElided = proven

	if opts.Verify {
		shadow := foldRemainder(in, fn, acc, elems, base, nil)
		if !value.SameValue(shadow, merged) {
			oc.Misspeculated = true
			oc.Parallel = false
			oc.Workers = 1
			oc.Dispatched = 0
			oc.AbortReason = "misspeculation: chunked reduction diverged from sequential fold (non-associative combiner)"
			return shadow, oc
		}
	}
	return merged, oc
}
