// Package parallel demonstrates that the latent data parallelism
// JS-CERES finds is real: loops whose iterations the dependence analysis
// clears are executed across goroutines — one interpreter instance per
// worker, share-nothing, in the spirit of River Trail's map/reduce model
// that the paper recommends libraries adopt (§5.1).
//
// Concurrency/determinism contract: MapParallel schedules through
// internal/sched — the adaptive work-stealing scheduler — and writes
// each kernel(i) into its own index-addressed slot, so the result is
// byte-identical at every worker count and steal timing, and equal to
// MapSequential whenever kernel is iteration-independent.
package parallel

import (
	"fmt"
	"runtime"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/sched"
)

// Kernel is a data-parallel loop body: JavaScript source that defines
// `function kernel(i) { ... return v; }` plus optional setup installing
// read-only inputs as globals.
//
// The source is parsed and compiled exactly once per process
// (interp.Load's content-addressed cache, and the compiled unit the AST
// it returns carries), not once per Kernel: two Kernel values with the
// same Source share one read-only AST and one compiled unit across
// every worker interpreter. Spinning up a worker costs one interpreter allocation
// plus one program load, not a re-parse or re-compile.
type Kernel struct {
	// Source defines kernel(i) and any helpers/constants it needs.
	Source string
	// Setup installs host data (input arrays, parameters) into an
	// interpreter instance. It runs once per worker; the installed data
	// must be treated as read-only by the kernel.
	Setup func(in *interp.Interp) error
	// Seed for each worker's deterministic Math.random.
	Seed uint64
	// MaxSteps bounds each worker interpreter's evaluation steps
	// (0 = the interpreter default). Callers that execute untrusted or
	// fuzzed kernels set it so a kernel that diverges on the worker
	// faults (step-limit error) instead of hanging the pool.
	MaxSteps int64
}

// program resolves Source through the process-wide parse cache.
func (k *Kernel) program() (*ast.Program, error) {
	prog, err := interp.Load(k.Source)
	if err != nil {
		return nil, fmt.Errorf("parallel: parse kernel: %w", err)
	}
	return prog, nil
}

// Result is the outcome of a map execution.
type Result struct {
	Values  []value.Value
	Workers int
	// Sched is the scheduling telemetry (chunk and steal counters) of
	// the parallel run; zero-valued for sequential execution.
	Sched sched.Stats
}

// Worker is one share-nothing kernel instance: a private interpreter with
// the kernel program loaded. Callers that schedule kernel calls
// themselves instead of through MapParallel drive Workers directly.
type Worker struct {
	in *interp.Interp
	fn value.Value
}

// NewWorker builds a fresh share-nothing worker for the kernel.
func (k *Kernel) NewWorker() (*Worker, error) {
	prog, err := k.program()
	if err != nil {
		return nil, err
	}
	in := interp.New(interp.WithSeed(k.Seed), interp.WithMaxSteps(k.MaxSteps))
	if k.Setup != nil {
		if err := k.Setup(in); err != nil {
			return nil, fmt.Errorf("parallel: setup: %w", err)
		}
	}
	if err := in.Run(prog); err != nil {
		return nil, fmt.Errorf("parallel: load kernel: %w", err)
	}
	fn := in.Global("kernel")
	if !fn.IsCallable() {
		return nil, fmt.Errorf("parallel: kernel source does not define kernel(i)")
	}
	return &Worker{in: in, fn: fn}, nil
}

// Interp exposes the worker's private interpreter (for per-worker hooks).
func (w *Worker) Interp() *interp.Interp { return w.in }

// CallKernel invokes the kernel function on the worker with args: (i)
// for a map, whatever the source's kernel declares otherwise.
func (w *Worker) CallKernel(args ...value.Value) (value.Value, error) {
	return w.in.SafeCall(w.fn, value.Undefined(), args)
}

// MapSequential runs kernel(i) for i in [0, n) on one interpreter.
func (k *Kernel) MapSequential(n int) (*Result, error) {
	w, err := k.NewWorker()
	if err != nil {
		return nil, err
	}
	out := make([]value.Value, n)
	for i := 0; i < n; i++ {
		v, err := w.CallKernel(value.Int(i))
		if err != nil {
			return nil, fmt.Errorf("parallel: kernel(%d): %w", i, err)
		}
		out[i] = v
	}
	return &Result{Values: out, Workers: 1}, nil
}

// MapParallel runs kernel(i) for i in [0, n) across up to `workers`
// goroutines (0 = GOMAXPROCS), each with its own share-nothing
// interpreter, scheduled by the adaptive work-stealing scheduler.
// Results are written into index-addressed slots, so output is
// byte-identical at every worker count regardless of stealing.
func (k *Kernel) MapParallel(n, workers int) (*Result, error) {
	workers = clampWorkers(n, workers)
	if workers <= 1 {
		return k.MapSequential(n)
	}

	out := make([]value.Value, n)
	opts := sched.Options{Workers: workers, Seed: k.Seed}
	states := make([]*Worker, opts.MaxWorkers())
	stats, err := sched.Run(n, opts, func(w, ci, lo, hi int) error {
		ww, err := k.workerAt(states, w)
		if err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			v, err := ww.CallKernel(value.Int(i))
			if err != nil {
				return fmt.Errorf("parallel: kernel(%d): %w", i, err)
			}
			out[i] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Values: out, Workers: stats.Workers, Sched: stats}, nil
}

// clampWorkers resolves the worker count against n.
func clampWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// workerAt lazily builds the share-nothing worker for pool slot w. No
// locking: sched runs each worker index on a single goroutine.
func (k *Kernel) workerAt(states []*Worker, w int) (*Worker, error) {
	if states[w] == nil {
		ww, err := k.NewWorker()
		if err != nil {
			return nil, err
		}
		states[w] = ww
	}
	return states[w], nil
}

// Equal reports whether two results hold strictly equal values.
func Equal(a, b *Result) bool {
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if !value.StrictEquals(a.Values[i], b.Values[i]) {
			return false
		}
	}
	return true
}

// ReduceNumbers folds numeric results with a Go-side reduction, the
// pattern River Trail exposes as reduce().
func ReduceNumbers(r *Result, init float64, f func(acc, x float64) float64) float64 {
	acc := init
	for _, v := range r.Values {
		acc = f(acc, v.ToNumber())
	}
	return acc
}
