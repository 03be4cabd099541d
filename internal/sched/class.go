// Latency classes. Every Queue admission carries a Class: the scheduling
// layers between admission and completion — lane ordering, shedding
// order, queue-wait telemetry — all key on it, so a batch prewarm can
// never sit ahead of an interactive page load anywhere in the stack. A
// fixed-plan Run owns its pool and takes no class.
package sched

import (
	"fmt"
	"time"
)

// Class is the latency class a unit of work runs under. The zero value
// is ClassInteractive so pre-class call sites (plain Submit, zero
// Options) keep request-path semantics.
type Class int

const (
	// ClassInteractive is the latency-sensitive lane: a client is
	// blocked on the result right now (a page load waiting on a
	// rewrite). Interactive work drains ahead of batch work and is the
	// last to be shed at saturation.
	ClassInteractive Class = iota
	// ClassBatch is the throughput lane: nobody is waiting on any
	// single completion (prewarm batches, study grids). Batch work
	// fills capacity interactive work leaves free and is shed first at
	// saturation.
	ClassBatch

	// numClasses sizes per-class state; new classes slot in above.
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBatch:
		return "batch"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// SubmitOptions classifies one Queue admission.
type SubmitOptions struct {
	// Class selects the lane. The zero value is ClassInteractive.
	Class Class
	// MaxWait, when > 0 on a batch admission, is the queue-wait
	// deadline: a job still queued when a worker reaches it after
	// MaxWait is shed (OnShed fires) instead of run — stale batch work
	// is dropped rather than executed late. Ignored for interactive
	// admissions, which never deadline-shed.
	MaxWait time.Duration
	// OnShed is invoked exactly once, from whichever goroutine sheds
	// the admission, if the job is dropped before it runs: either
	// evicted to free the slot for an interactive admission at
	// saturation, or past its MaxWait deadline. It must not block.
	// A nil OnShed drops the job silently. Jobs that have started are
	// never shed.
	OnShed func()
}

// Handle names one admission for the priority-inheritance path. It is
// safe to call Promote at any time, including concurrently with (or
// after) the admission completing or being shed — late promotions
// no-op.
type Handle struct {
	q *Queue
	t *task
}

// Promote raises the admission to the interactive class; a job still
// queued moves to the back of the interactive lane. Used for priority
// inheritance: when an interactive caller coalesces onto work already
// admitted at batch priority, promoting it keeps the interactive caller
// from waiting behind batch ordering (or a batch deadline).
func (h *Handle) Promote() {
	if h == nil {
		return
	}
	q, t := h.q, h.t
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.done || t.class != ClassBatch {
		return
	}
	q.classTickets[ClassBatch]--
	q.classTickets[ClassInteractive]++
	t.class = ClassInteractive
	q.promoted++
	batch := q.lanes[ClassBatch]
	for i, tk := range batch {
		if tk == t {
			q.lanes[ClassBatch] = append(batch[:i], batch[i+1:]...)
			q.lanes[ClassInteractive] = append(q.lanes[ClassInteractive], t)
			break
		}
	}
}

// Class reports the admission's current class (it can change once,
// batch → interactive, via Promote).
func (h *Handle) Class() Class {
	h.q.mu.Lock()
	defer h.q.mu.Unlock()
	return h.t.class
}
