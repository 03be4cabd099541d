// The element-wise operation: a chain of dependent elemental stages —
// out[i] = fK(...f1(elems[i], i)..., i) — of which mapPar and filterPar
// are the K = 1 case and pipePar the general one (the produce → consume
// shape the paper's taxonomy leaves on the table). One spine serves all
// three; run (autopar.go) owns the speculation phases, this file what is
// specific to a stage chain: the worker that claims a chunk of the index
// space runs the whole chain over it, each stage on its own
// share-nothing interpreter with its own purity Guard (or guard-elided
// when the static prover proves that stage's kernel pure).
//
// The sequential semantics are the *fused* composition — element-major,
// all stages for element i before element i+1 — which is what the
// profile slice, the fallback and the Verify shadow all execute. A chain
// of mapPar calls is stage-major instead; the two orders are
// indistinguishable exactly when the stages are pure, which is the only
// case that dispatches.
package autopar

import (
	"fmt"

	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/sched"
)

// coercion canonicalizes the final stage's result: js is appended to
// the kernel's return expression on the worker, main does the same to
// results computed on the main interpreter, so profile, fallback, Verify
// shadow and worker results all compare in one domain.
type coercion struct {
	js   string
	main func(value.Value) value.Value
}

var (
	identity = coercion{"", func(v value.Value) value.Value { return v }}
	// toBoolean coerces on the worker so only booleans cross
	// interpreters; a truthy non-boolean predicate result is then not a
	// misspeculation.
	toBoolean = coercion{" ? true : false", func(v value.Value) value.Value { return value.Bool(v.ToBool()) }}
)

// MapSpec executes out[i] = fn(elems[i], i) speculatively.
func MapSpec(in *interp.Interp, fn value.Value, elems []value.Value, opts Options) ([]value.Value, Outcome) {
	return elementwise(in, "mapPar", []value.Value{fn}, elems, opts, identity)
}

// FilterSpec evaluates keep[i] = ToBoolean(fn(elems[i], i)) speculatively.
func FilterSpec(in *interp.Interp, fn value.Value, elems []value.Value, opts Options) ([]bool, Outcome) {
	vals, oc := elementwise(in, "filterPar", []value.Value{fn}, elems, opts, toBoolean)
	keep := make([]bool, len(vals))
	for i, v := range vals {
		keep[i] = v.ToBool()
	}
	return keep, oc
}

// PipelineSpec executes the stage composition
// out[i] = fns[K-1](... fns[0](elems[i], i) ..., i) speculatively.
// Composing zero stages is the identity.
func PipelineSpec(in *interp.Interp, fns []value.Value, elems []value.Value, opts Options) ([]value.Value, Outcome) {
	if len(fns) == 0 {
		return append([]value.Value(nil), elems...), Outcome{Op: "pipePar", Elements: len(elems), Workers: 1, Pure: true}
	}
	return elementwise(in, "pipePar", fns, elems, opts, identity)
}

// elementwise runs the stage chain fns over elems through the
// speculation spine, coercing the final stage's result.
func elementwise(in *interp.Interp, op string, fns, elems []value.Value, opts Options, coerce coercion) ([]value.Value, Outcome) {
	c := &chain{in: in, fns: fns, elems: elems, out: make([]value.Value, len(elems)), coerce: coerce, opts: opts}
	return c.out, run(in, op, fns, 0, len(elems), opts, c)
}

// chain is the stage chain as an operation.
type chain struct {
	in         *interp.Interp
	fns        []value.Value
	elems, out []value.Value
	coerce     coercion
	opts       Options
}

func (c *chain) step(i int) {
	v := c.elems[i]
	for _, fn := range c.fns {
		v = call(c.in, fn, v, value.Int(i))
	}
	c.out[i] = c.coerce.main(v)
}

// dispatch serializes every stage and runs the chain over [base, n) on
// the pool. Only the stage-0 input slice is checked for crossability
// here; inter-stage values are checked as they are produced (triage).
func (c *chain) dispatch(base int, proven []bool) (sched.Stats, *workerFault) {
	plans := make([]*plan, len(c.fns))
	for s, fn := range c.fns {
		js := ""
		if s == len(c.fns)-1 {
			js = c.coerce.js
		}
		pl, abort := buildStagePlan(c.in, fn, js, c.opts)
		if abort != "" {
			return sched.Stats{}, &workerFault{reason: stageLabel(s, len(c.fns)) + abort}
		}
		pl.unguarded = proven[s]
		plans[s] = pl
	}
	if abort := uncrossable(c.elems, base); abort != "" {
		return sched.Stats{}, &workerFault{reason: abort}
	}
	stats, pools := dispatchStages(plans, c.elems, c.out, base, c.opts.schedOptions())
	return stats, firstFault(pools...)
}

func (c *chain) verify(base int) string {
	diverged := -1
	for i := base; i < len(c.elems); i++ {
		parallel := c.out[i]
		c.step(i)
		if diverged < 0 && !value.SameValue(parallel, c.out[i]) {
			diverged = i
		}
	}
	if diverged < 0 {
		return ""
	}
	return fmt.Sprintf("parallel result diverged from sequential shadow at element %d", diverged)
}

// buildStagePlan serializes one stage's elemental into a share-nothing
// kernel taking (x, i) — the element value crosses as a call argument,
// so no input array is installed (a later stage's inputs exist only
// once the previous stage has produced them). coerceJS is the final
// stage's coercion.js, "" elsewhere.
func buildStagePlan(in *interp.Interp, fn value.Value, coerceJS string, opts Options) (*plan, string) {
	return newPlan(in, fn, "function kernel(x, i) {\n  return __elemental(x, i)"+coerceJS+";\n}\n", opts, nil)
}

// dispatchStages runs the stage chain over [base, len(elems)) on the
// work-stealing pool: the worker that claims a chunk applies stage 0,
// then stage 1, ... to it, so out doubles as the inter-stage buffer — a
// chunk is touched by one goroutine, which is all the ordering stage
// s+1's read of stage s's write needs — and results land in
// index-addressed out[i] slots, byte-identical at every worker count.
// Each stage keeps a pool of its own (stages may capture same-named
// variables with different values), built per slot only when a chunk
// reaches that stage there. Any fault — error, non-crossable result, or
// a guard tripping mid-chunk, stolen or not — is recorded in its
// (stage, slot) and cancels the remaining chunks.
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
			src := out
			if s == 0 {
				src = elems
			}
			for i := base + lo; i < base+hi; i++ {
				v, err := sl.worker.Call(sl.kernel, src[i], value.Int(i))
				// Fast path first: fault labels are formatted only on
				// an actual fault (this is the measured hot path).
				if err != nil || v.IsObject() || sl.guard.Violation() != "" {
					sl.fault = triage(w, fmt.Sprintf("kernel(%d) result", i), v, err, sl.guard)
					return errSpecAborted
				}
				out[i] = v
			}
		}
		return nil
	})
	return stats, pools
}
