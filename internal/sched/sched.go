// Package sched is the shared adaptive scheduler under every parallel
// path in this repository: the River Trail map
// (internal/parallel), the speculative ParallelArray engine
// (internal/autopar) and the study orchestrator (internal/study) all
// dispatch their index ranges through it instead of carrying private
// static `len/workers` splits.
//
// Every parallel path here has the flat data-parallel shape the paper's
// River Trail operators expose — a fixed index range with no recursive
// forking — so the scheduler is the least coordination that balances it:
//
//   - Plan first. A run is decomposed into a *chunk plan* — contiguous
//     [Lo, Hi) spans of the index space whose sizes start at n/16 and
//     shrink geometrically toward 8. The plan is a pure function of n:
//     it never depends on the worker count, on timing, or on which
//     worker ran what. Large chunks while
//     lots of work remains keep per-chunk overhead negligible; small
//     chunks toward the tail keep the finish line balanced even when
//     per-element cost is wildly skewed.
//   - Claim order. Workers claim chunks in plan order from one shared
//     atomic counter, one add per chunk. A slow chunk holds only the
//     worker that claimed it while everyone else claims the rest of the
//     plan; no chunk ever waits behind a running one.
//
// # Determinism contract
//
// Scheduling is nondeterministic — which worker executes which chunk,
// and in what order, depends on timing. Output must not be. The contract
// with callers is:
//
//  1. body(worker, chunk, lo, hi) may write only into slots addressed by
//     the element index i ∈ [lo, hi) or by the chunk index — never into
//     anything keyed by `worker` that the caller later reads
//     order-sensitively.
//  2. Per-chunk results (reduction partials, filter keeps) are merged by
//     the caller in chunk-index order. Because the chunk plan is a pure
//     function of n, that merge applies the *same* bracketing
//     at every worker count and on every run — so even a non-associative
//     merge is byte-identical across worker counts (it may still differ
//     from a single sequential left fold; associativity closes that last
//     gap, exactly as in the pre-scheduler static-chunk code).
//
// Under that contract, output is byte-identical at 1, 2, 4 and 8 workers
// no matter how the claims interleave — the property
// internal/sched/sched_test.go and every caller's cross-check assert
// under -race.
//
// Errors cancel: the first body error stops chunk hand-out, remaining
// workers exit at their next chunk boundary, and Run returns the fault
// of the lowest-numbered faulting worker (callers that need richer fault
// semantics, like autopar's guard aborts, record per-worker fault detail
// themselves and treat the returned error as a cancellation signal).
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Span is one contiguous chunk [Lo, Hi) of the scheduled index space.
type Span struct {
	Lo, Hi int
}

// The chunk plan's shape. divisor 16 makes the leading chunk n/16 — big
// enough to amortize dispatch, small enough that no single worker can
// be pinned by more than ~1/16 of a uniformly-costed run; minChunk 8
// stops the geometric shrink before per-chunk bookkeeping would rival
// the per-element interpreter cost this repository schedules.
const (
	minChunk = 8
	divisor  = 16
)

// Options sizes the worker pool of one scheduled run.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS. The effective
	// pool is additionally clamped to the number of chunks in the plan.
	Workers int
}

// MaxWorkers resolves the requested pool size (<= 0 → GOMAXPROCS)
// before the plan-length clamp. Callers size per-worker state with it.
func (o Options) MaxWorkers() int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Plan decomposes [0, n) into the deterministic chunk plan: span k
// covers max(minChunk, remaining/divisor) elements, so sizes shrink
// geometrically from n/16 toward 8. The result is a pure function of
// n — the worker count and runtime timing never move a chunk boundary,
// which is what makes chunk-order merges byte-identical at every worker
// count. The unread Options argument is kept for bench/.
func Plan(n int, _ Options) []Span {
	if n <= 0 {
		return nil
	}
	spans := make([]Span, 0, divisor)
	for lo := 0; lo < n; {
		size := max((n-lo)/divisor, minChunk)
		if size > n-lo {
			size = n - lo
		}
		spans = append(spans, Span{Lo: lo, Hi: lo + size})
		lo += size
	}
	return spans
}

// UnitPlan returns the finest plan — one chunk per index. Callers with
// naturally coarse work items (the study orchestrator's jobs, prewarm
// fetches) use it so claims balance at item granularity.
func UnitPlan(n int) []Span {
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = Span{Lo: i, Hi: i + 1}
	}
	return spans
}

// Stats is the run's scheduling telemetry. Everything here describes
// *how* the work was executed, never *what* it computed: per-worker
// chunk tallies are timing-dependent and must not feed deterministic
// output.
type Stats struct {
	// Workers is the resolved pool size (after the GOMAXPROCS default
	// and the plan-length clamp).
	Workers int
	// Chunks is the plan length.
	Chunks int
	// Steals always reads 0: workers claim chunks from one counter and
	// nothing is stolen. It is kept only because the benchmark harness
	// (bench/study.go) still reads it.
	Steals int
	// PerWorker is the number of chunks each worker executed.
	PerWorker []int
}

// BodyFunc processes one chunk: element indices [lo, hi) of plan entry
// `chunk`, on pool worker `worker`. Each worker index runs on a single
// goroutine for the whole run, so per-worker state (interpreters,
// guards) needs no locking; a non-nil error cancels the run.
type BodyFunc func(worker, chunk, lo, hi int) error

// Run schedules [0, n) under the default geometric plan.
func Run(n int, opts Options, body BodyFunc) (Stats, error) {
	return RunPlan(Plan(n, opts), opts, body)
}

// RunPlan schedules an explicit chunk plan across the worker pool.
// Workers claim chunks in plan order from one shared counter; the
// calling goroutine is worker 0. See the package comment for the
// determinism contract; the plan must consist of disjoint spans.
func RunPlan(plan []Span, opts Options, body BodyFunc) (Stats, error) {
	nchunks := len(plan)
	workers := min(opts.MaxWorkers(), max(nchunks, 1))
	st := Stats{Workers: workers, Chunks: nchunks, PerWorker: make([]int, workers)}
	var next atomic.Int64
	var cancelled atomic.Bool
	errs := make([]error, workers)
	work := func(w int) {
		for !cancelled.Load() {
			ci := int(next.Add(1) - 1)
			if ci >= nchunks {
				return
			}
			sp := plan[ci]
			if err := body(w, ci, sp.Lo, sp.Hi); err != nil {
				errs[w] = err
				cancelled.Store(true)
				return
			}
			st.PerWorker[w]++
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}
