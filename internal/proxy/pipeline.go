// The serving pipeline: the rewrite path as four timed stages — decode
// → parse/analyze → rewrite → encode — run back to back as ONE job on a
// bounded internal/sched.Queue instead of inline on the request
// goroutine. The stages of one rewrite are strictly sequential, so the
// overlap between requests comes from the worker pool, not from cutting
// a rewrite into several jobs. What the queue adds:
//
//   - Admission control. A request enters the pipeline only if fewer
//     than `depth` rewrites are outstanding; otherwise Submit reports
//     sched.ErrSaturated immediately and the proxy sheds the load as
//     HTTP 429 + Retry-After. Saturation is a bounded queue-wait tail,
//     never unbounded goroutine pileup and latency growth.
//   - Latency classes. Interactive rewrites dequeue before batch ones
//     and batch is shed first (sched/class.go).
//
// Workers never block on other queue jobs (the deadlock rule from
// sched.Queue): request goroutines wait on a completion channel.
package proxy

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/instrument"
	"repro/internal/js/ast"
	"repro/internal/sched"
)

// StageNames lists the pipeline stages in execution order.
var StageNames = [4]string{"decode", "parse", "rewrite", "encode"}

// Pipeline is the staged rewrite service. Create with NewPipeline,
// install into a cache with SetRewriteFunc(pl.RewriteFor), close with
// Close.
//
// Every admission carries a sched.Class: request-path rewrites enter
// interactive, prewarm enters batch, and the queue's lane policy
// (interactive first, batch shed first, priority inheritance via
// RewriteFor's started hook) applies end to end.
type Pipeline struct {
	queue *sched.Queue

	// batchMaxWait, when set, is the queue-wait deadline handed to every
	// batch admission: stale prewarm work still queued past it is shed
	// instead of run. Set before serving traffic.
	batchMaxWait time.Duration

	// onStage, when set (tests only), observes each stage as it starts
	// and the worker it runs on.
	onStage func(stage, worker int)

	mu       sync.Mutex
	stages   [len(StageNames)]stageStat
	complete int64
	failures int64
	shed     int64
}

type stageStat struct {
	jobs    int64
	totalNs int64
	maxNs   int64
}

// StageStats describes one pipeline stage's execution history.
type StageStats struct {
	Name string `json:"name"`
	// Jobs counts stage executions (== admitted requests for decode;
	// later stages run fewer when an earlier stage failed).
	Jobs int64 `json:"jobs"`
	// TotalUs/MeanUs/MaxUs are stage execution time in microseconds.
	TotalUs int64 `json:"total_us"`
	MeanUs  int64 `json:"mean_us"`
	MaxUs   int64 `json:"max_us"`
}

// PipelineStats is a point-in-time snapshot of the pipeline.
type PipelineStats struct {
	// Queue is the scheduler-level view: admissions, rejections,
	// in-flight tickets, and queue-wait mean/p50/p99/max.
	Queue sched.QueueStats `json:"queue"`
	// Stages reports per-stage job counts and timing, in order.
	Stages []StageStats `json:"stages"`
	// Completed counts rewrites that produced output; Failures counts
	// rewrites that ended in an error (parse failures, not rejections —
	// rejected requests never enter the pipeline); Shed counts admitted
	// batch rewrites dropped before running (evicted for interactive
	// work, or past the batch queue-wait deadline) — shed is a load
	// decision, not a failure.
	Completed int64 `json:"completed"`
	Failures  int64 `json:"failures"`
	Shed      int64 `json:"shed"`
}

// NewPipeline starts a staged rewrite service on `workers` scheduler
// workers (<= 0 → 1) with an admission bound of `depth` outstanding
// rewrites (<= 0 → workers*2).
func NewPipeline(workers, depth int) *Pipeline {
	return &Pipeline{queue: sched.NewQueue(workers, depth)}
}

// Close drains in-flight work and stops the workers.
func (pl *Pipeline) Close() { pl.queue.Close() }

// SetBatchMaxWait sets the queue-wait deadline applied to batch
// admissions (0 = no deadline). Must be called before the pipeline
// serves traffic.
func (pl *Pipeline) SetBatchMaxWait(d time.Duration) { pl.batchMaxWait = d }

// Queue exposes the underlying scheduler queue (stats, capacity).
func (pl *Pipeline) Queue() *sched.Queue { return pl.queue }

// pipeJob is one admitted rewrite.
type pipeJob struct {
	pl   *Pipeline
	src  []byte
	mode instrument.Mode
	t0   time.Time // submit time; run computes the queue wait from it
	cb   func(body []byte, wait time.Duration, err error)
}

// Rewrite runs a staged rewrite at interactive priority, blocking until
// it completes. A saturated queue returns sched.ErrSaturated without
// queueing.
func (pl *Pipeline) Rewrite(src []byte, mode instrument.Mode) ([]byte, time.Duration, error) {
	return pl.RewriteFor(src, mode, sched.ClassInteractive, nil)
}

// RewriteFor is the cache's RewriteFunc: admission-checked at the given
// class, blocking until the staged rewrite completes (or, for a batch
// admission, until it is shed — delivered as sched.ErrSaturated). When
// started is non-nil it is invoked exactly once after admission with
// the job's Promote hook, before this call blocks; the cache's
// single-flight layer uses it for priority inheritance — an interactive
// caller coalescing onto a batch-priority flight promotes the job it is
// now waiting on.
func (pl *Pipeline) RewriteFor(src []byte, mode instrument.Mode, class sched.Class, started func(promote func())) ([]byte, time.Duration, error) {
	type result struct {
		body []byte
		wait time.Duration
		err  error
	}
	ch := make(chan result, 1)
	j := &pipeJob{pl: pl, src: src, mode: mode, t0: time.Now(), cb: func(body []byte, wait time.Duration, err error) {
		ch <- result{body, wait, err}
	}}
	opts := sched.SubmitOptions{Class: class, OnShed: j.shed}
	if class == sched.ClassBatch {
		opts.MaxWait = pl.batchMaxWait
	}
	h, err := pl.queue.SubmitWith(j.run, opts)
	if err != nil {
		return nil, 0, err
	}
	if started != nil {
		started(h.Promote)
	}
	r := <-ch
	return r.body, r.wait, r.err
}

// shed delivers a dropped admission to its waiter: the queue freed the
// slot for interactive work, or the batch deadline passed. The waiter
// sees sched.ErrSaturated — indistinguishable from rejection at Submit,
// which is the correct reading: the system chose not to spend capacity
// on this job.
func (j *pipeJob) shed() {
	pl := j.pl
	pl.mu.Lock()
	pl.shed++
	pl.mu.Unlock()
	j.cb(nil, time.Since(j.t0), sched.ErrSaturated)
}

// run is the whole rewrite: it stamps the queue wait (admission → first
// execution), runs the four stages on the worker that dequeued it,
// timing each, and delivers the result. A panicking stage is contained
// here: the job completes with an error (delivered to the waiting
// caller — nobody hangs on the completion channel, and the cache's
// single-flight entry resolves) instead of the panic being swallowed by
// the queue with no result. A panic-inducing script is handled like a
// parse failure: the proxy serves it un-instrumented.
func (j *pipeJob) run(w *sched.WorkerCtx) {
	wait := time.Since(j.t0)
	var (
		ns   [len(StageNames)]int64 // per-stage durations
		ran  int                    // stages that ran to completion
		body []byte
		err  error
	)
	stage := func(fn func()) {
		if j.pl.onStage != nil {
			j.pl.onStage(ran, w.Worker)
		}
		start := time.Now()
		fn()
		ns[ran] = time.Since(start).Nanoseconds()
		ran++
	}
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, fmt.Errorf("proxy: rewrite stage panic: %v", r)
		}
		j.pl.record(ns[:ran], err)
		j.cb(body, wait, err)
	}()

	var text string
	var prog *ast.Program
	stage(func() { text = instrument.Decode(j.src) })
	// The parse is also the analyze half: it inventories every syntactic
	// loop the transform will wrap, and builds no tree.
	stage(func() { prog, err = instrument.Parse(text) })
	if err != nil {
		return
	}
	stage(func() { instrument.Transform(prog) })
	stage(func() { body = instrument.Encode(prog, j.mode) })
}

// record folds one finished rewrite into the stats: the stages that ran
// (a parse failure leaves rewrite/encode untouched) and the outcome.
func (pl *Pipeline) record(ns []int64, err error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for i, d := range ns {
		s := &pl.stages[i]
		s.jobs++
		s.totalNs += d
		if d > s.maxNs {
			s.maxNs = d
		}
	}
	if err != nil {
		pl.failures++
	} else {
		pl.complete++
	}
}

// Stats snapshots the pipeline and its queue.
func (pl *Pipeline) Stats() PipelineStats {
	st := PipelineStats{Queue: pl.queue.Stats()}
	pl.mu.Lock()
	st.Completed = pl.complete
	st.Failures = pl.failures
	st.Shed = pl.shed
	for i, s := range pl.stages {
		ss := StageStats{
			Name:    StageNames[i],
			Jobs:    s.jobs,
			TotalUs: s.totalNs / 1e3,
			MaxUs:   s.maxNs / 1e3,
		}
		if s.jobs > 0 {
			ss.MeanUs = s.totalNs / s.jobs / 1e3
		}
		st.Stages = append(st.Stages, ss)
	}
	pl.mu.Unlock()
	return st
}
