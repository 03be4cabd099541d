// The open-ended half of the scheduler. RunPlan (sched.go) schedules a
// *fixed* index space — the shape of a ParallelArray operation or a
// study grid, where the whole plan is known up front. A serving system
// has the opposite shape: an unbounded stream of requests arriving at
// unknown times, where the thing that must be bounded is not the plan
// but the *admission* — how much work is allowed to be outstanding at
// once. Queue is that entry point: a long-lived worker pool with a
// bounded admission queue and explicit saturation (ErrSaturated, never
// an unbounded goroutine-per-request). One admission is one job: it
// holds its slot from Submit until the job returns.
//
// Admissions carry a latency Class (class.go). The queue is two-lane:
// every queued interactive job drains before any batch job, and at
// saturation batch is shed before interactive is ever rejected (an
// interactive Submit evicts the oldest still-queued batch job rather
// than return ErrSaturated while one exists). Batch admissions may also
// carry a queue-wait deadline: a batch job a worker reaches past its
// MaxWait is shed instead of run late.
package sched

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// ErrSaturated is returned by Queue.Submit when the admission bound is
// reached: the caller must shed load (HTTP 429, retry later) instead of
// queueing without limit. It is a sentinel — match with errors.Is.
// Batch admissions shed before they run (eviction or deadline) report
// it through OnShed.
var ErrSaturated = errors.New("sched: queue saturated")

// ErrClosed is returned by Queue.Submit after Close.
var ErrClosed = errors.New("sched: queue closed")

// Job is one unit of queued work. The worker index has the same
// contract as BodyFunc's: each index is serviced by a single goroutine
// for the queue's lifetime, so per-worker state needs no locking.
type Job func(w *WorkerCtx)

// WorkerCtx is passed to every job: the worker index it runs on. A job
// must never wait on another queue job (so must not Submit and block on
// the result): with every worker doing so the pool deadlocks.
type WorkerCtx struct {
	// Worker is the pool worker index in [0, Workers).
	Worker int
}

// task is one admission and the job it runs. class and done are guarded
// by Queue.mu — done marks the slot freed (job returned, or shed before
// running) and makes any later Promote a no-op.
type task struct {
	fn       Job
	class    Class
	done     bool
	onShed   func()
	enq      time.Time
	deadline time.Time // batch admissions with MaxWait; zero otherwise
}

// waitRingSize bounds each class's queue-wait sample ring (recent
// admissions only — percentiles describe current behaviour, not all
// history).
const waitRingSize = 1024

// Queue is a long-lived worker pool with bounded admission. Safe for
// concurrent use.
type Queue struct {
	workers int
	depth   int

	mu   sync.Mutex
	cond *sync.Cond
	// Lane order is the whole scheduling policy: workers drain
	// lanes[Interactive] entirely before lanes[Batch], FIFO within each.
	lanes   [numClasses][]*task
	closed  bool
	tickets int // admissions queued or running

	classTickets [numClasses]int
	submitted    [numClasses]int64
	rejected     [numClasses]int64
	shed         [numClasses]int64
	promoted     int64
	completed    int64
	maxQueued    int

	waits  [numClasses][waitRingSize]time.Duration
	waitN  [numClasses]int64 // waits recorded (ring index = waitN % size)
	waitNs [numClasses]int64 // sum of all waits, for the mean
	wg     sync.WaitGroup
}

// ClassQueueStats is the per-class slice of QueueStats.
type ClassQueueStats struct {
	// Submitted counts admitted Submit calls; Rejected counts Submits
	// that returned ErrSaturated; Shed counts admissions dropped after
	// admission but before they ran (batch eviction at saturation, or
	// MaxWait deadline).
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed"`
	// InFlight is the number of admission tickets currently held at
	// this class (a promoted ticket counts as interactive).
	InFlight int `json:"in_flight"`
	// QueueWait* describe time admitted jobs of this class spent queued
	// before they started: mean over whole history, percentiles and max
	// over the last waitRingSize admissions.
	QueueWaitMean time.Duration `json:"queue_wait_mean_ns"`
	QueueWaitP50  time.Duration `json:"queue_wait_p50_ns"`
	QueueWaitP99  time.Duration `json:"queue_wait_p99_ns"`
	QueueWaitMax  time.Duration `json:"queue_wait_max_ns"`
}

// QueueStats is a point-in-time snapshot of the queue counters. The
// top-level fields aggregate both classes (pre-class dashboards keep
// working); Interactive and Batch carry the per-class split.
type QueueStats struct {
	// Workers and Depth echo the construction parameters.
	Workers int `json:"workers"`
	Depth   int `json:"depth"`
	// Submitted/Rejected count Submit calls (admitted vs ErrSaturated);
	// Shed counts admitted-then-dropped jobs; Completed counts jobs
	// executed (== Submitted − Shed once drained); Promoted counts
	// batch→interactive promotions.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed"`
	Promoted  int64 `json:"promoted"`
	Completed int64 `json:"completed"`
	// InFlight is the number of admission tickets currently held.
	InFlight int `json:"in_flight"`
	// MaxQueued is the high-water mark of queued (not yet running) jobs.
	MaxQueued int `json:"max_queued"`
	// QueueWait* merge both classes' samples; the per-class split lives
	// in Interactive/Batch.
	QueueWaitMean time.Duration `json:"queue_wait_mean_ns"`
	QueueWaitP50  time.Duration `json:"queue_wait_p50_ns"`
	QueueWaitP99  time.Duration `json:"queue_wait_p99_ns"`
	QueueWaitMax  time.Duration `json:"queue_wait_max_ns"`

	Interactive ClassQueueStats `json:"interactive"`
	Batch       ClassQueueStats `json:"batch"`
}

// NewQueue starts a pool of `workers` goroutines (<= 0 → 1) accepting
// at most `depth` outstanding admissions (<= 0 → workers*2). Callers
// must Close it when done.
func NewQueue(workers, depth int) *Queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = workers * 2
	}
	q := &Queue{workers: workers, depth: depth}
	q.cond = sync.NewCond(&q.mu)
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go q.work(w)
	}
	return q
}

// Workers returns the pool size.
func (q *Queue) Workers() int { return q.workers }

// Depth returns the admission bound.
func (q *Queue) Depth() int { return q.depth }

// Submit admits fn at ClassInteractive, or reports ErrSaturated when
// `depth` admissions are already outstanding and none can be shed (an
// admission stays outstanding until its job returns). Submit never
// blocks: backpressure is the caller's to surface, immediately.
func (q *Queue) Submit(fn Job) error {
	_, err := q.SubmitWith(fn, SubmitOptions{})
	return err
}

// SubmitWith admits fn under opts. At the admission bound the shed
// order is class-asymmetric: a batch Submit is rejected outright, while
// an interactive Submit first evicts the oldest still-queued batch job
// (its OnShed fires) and is only rejected when no queued batch work
// remains — so batch always sheds before any interactive rejection.
// The returned Handle supports priority inheritance via Promote; it is
// nil exactly when err is non-nil.
func (q *Queue) SubmitWith(fn Job, opts SubmitOptions) (*Handle, error) {
	class := opts.Class
	if class < 0 || class >= numClasses {
		class = ClassInteractive
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	var evicted func()
	if q.tickets >= q.depth {
		ok := false
		if class == ClassInteractive {
			if victim := q.evictQueuedBatchLocked(); victim != nil {
				evicted = victim.onShed
				ok = true
			}
		}
		if !ok {
			q.rejected[class]++
			q.mu.Unlock()
			return nil, ErrSaturated
		}
	}
	q.tickets++
	q.classTickets[class]++
	q.submitted[class]++
	tk := &task{fn: fn, class: class, onShed: opts.OnShed, enq: time.Now()}
	if class == ClassBatch && opts.MaxWait > 0 {
		tk.deadline = tk.enq.Add(opts.MaxWait)
	}
	q.lanes[class] = append(q.lanes[class], tk)
	if n := q.queuedLocked(); n > q.maxQueued {
		q.maxQueued = n
	}
	q.cond.Signal()
	q.mu.Unlock()
	if evicted != nil {
		evicted()
	}
	return &Handle{q: q, t: tk}, nil
}

// evictQueuedBatchLocked drops the oldest queued batch job to free its
// admission slot for an arriving interactive request. Returns the shed
// task (its onShed must be called after the lock is released), or nil
// when no batch job is still queued — batch work that already started
// is never preempted.
func (q *Queue) evictQueuedBatchLocked() *task {
	lane := q.lanes[ClassBatch]
	if len(lane) == 0 {
		return nil
	}
	tk := lane[0]
	q.lanes[ClassBatch] = lane[1:]
	q.freeTicketLocked(tk, true)
	return tk
}

// freeTicketLocked releases an admission slot — either its job returned
// (shed=false) or it was dropped before running (shed=true). done makes
// late Promotes no-ops and guards against any double free.
func (q *Queue) freeTicketLocked(t *task, shed bool) {
	if t.done {
		return
	}
	t.done = true
	q.tickets--
	q.classTickets[t.class]--
	if shed {
		q.shed[t.class]++
	}
}

func (q *Queue) queuedLocked() int {
	return len(q.lanes[ClassInteractive]) + len(q.lanes[ClassBatch])
}

// dequeueLocked pops the next task in lane-priority order, nil when
// both lanes are empty.
func (q *Queue) dequeueLocked() *task {
	for c := range q.lanes {
		if lane := q.lanes[c]; len(lane) > 0 {
			q.lanes[c] = lane[1:]
			return lane[0]
		}
	}
	return nil
}

func (q *Queue) work(w int) {
	defer q.wg.Done()
	ctx := &WorkerCtx{Worker: w}
	for {
		q.mu.Lock()
		for q.queuedLocked() == 0 && !q.closed {
			q.cond.Wait()
		}
		tk := q.dequeueLocked()
		if tk == nil {
			// closed and drained; jobs still running cannot add work.
			q.mu.Unlock()
			return
		}
		// Deadline shed: a batch job reached past its MaxWait is dropped
		// instead of run late. Promotion clears the check (tk.class is
		// read under the lock), so an inherited-priority job always runs.
		if !tk.deadline.IsZero() && tk.class == ClassBatch && time.Now().After(tk.deadline) {
			q.freeTicketLocked(tk, true)
			q.mu.Unlock()
			if tk.onShed != nil {
				tk.onShed()
			}
			continue
		}
		q.recordWaitLocked(tk.class, time.Since(tk.enq))
		q.mu.Unlock()

		runJob(tk.fn, ctx)

		q.mu.Lock()
		q.completed++
		q.freeTicketLocked(tk, false)
		q.mu.Unlock()
	}
}

// runJob contains a panicking job so one bad input cannot kill a
// shared worker or corrupt the queue's ticket accounting. Containment
// is all the queue can do — it cannot deliver a result on the job's
// behalf, so jobs that report through channels or callbacks must
// install their own recover (as the proxy pipeline's job does) or
// their waiters hang.
func runJob(fn Job, w *WorkerCtx) {
	defer func() { _ = recover() }()
	fn(w)
}

func (q *Queue) recordWaitLocked(class Class, d time.Duration) {
	q.waits[class][q.waitN[class]%waitRingSize] = d
	q.waitN[class]++
	q.waitNs[class] += int64(d)
}

// Close stops admission immediately (Submit returns ErrClosed), lets
// queued jobs of both classes finish, and waits for the workers to
// exit. Queued batch jobs still run — Close drains, it does not shed.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}

// Stats snapshots the counters and copies the wait rings under one
// lock, then sorts the copies for the percentiles after releasing it:
// the proxy calls Stats for every 429, which is exactly when workers
// and submitters contend for q.mu.
func (q *Queue) Stats() QueueStats {
	var samples [numClasses][]time.Duration
	var waitN, waitNs [numClasses]int64
	q.mu.Lock()
	st := QueueStats{
		Workers:   q.workers,
		Depth:     q.depth,
		Promoted:  q.promoted,
		Completed: q.completed,
		InFlight:  q.tickets,
		MaxQueued: q.maxQueued,
	}
	per := [numClasses]*ClassQueueStats{&st.Interactive, &st.Batch}
	for c, cs := range per {
		*cs = ClassQueueStats{
			Submitted: q.submitted[c],
			Rejected:  q.rejected[c],
			Shed:      q.shed[c],
			InFlight:  q.classTickets[c],
		}
		waitN[c], waitNs[c] = q.waitN[c], q.waitNs[c]
		samples[c] = append(samples[c], q.waits[c][:min(waitN[c], waitRingSize)]...)
	}
	q.mu.Unlock()

	var merged []time.Duration
	var sumNs, sumN int64
	for c, cs := range per {
		st.Submitted += cs.Submitted
		st.Rejected += cs.Rejected
		st.Shed += cs.Shed
		if len(samples[c]) == 0 {
			continue
		}
		merged = append(merged, samples[c]...)
		fillWaitPercentiles(samples[c], &cs.QueueWaitP50, &cs.QueueWaitP99, &cs.QueueWaitMax)
		cs.QueueWaitMean = time.Duration(waitNs[c] / waitN[c])
		sumNs += waitNs[c]
		sumN += waitN[c]
	}
	if len(merged) > 0 {
		fillWaitPercentiles(merged, &st.QueueWaitP50, &st.QueueWaitP99, &st.QueueWaitMax)
		st.QueueWaitMean = time.Duration(sumNs / sumN)
	}
	return st
}

// fillWaitPercentiles sorts sample in place and writes p50/p99/max.
func fillWaitPercentiles(sample []time.Duration, p50, p99, max *time.Duration) {
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	*p50 = sample[len(sample)*50/100]
	i99 := len(sample) * 99 / 100
	if i99 >= len(sample) {
		i99 = len(sample) - 1
	}
	*p99 = sample[i99]
	*max = sample[len(sample)-1]
}
