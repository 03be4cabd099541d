package browser

import (
	"container/heap"
	"errors"
)

// Task is a scheduled timer or animation-frame callback. The queue is a
// pure scheduling model over virtual time: JavaScript's execution model is
// event-driven (§1.1), and applications like the paper's Harmony or Ace
// spend most wall-clock time idle between events, which is why their
// Table 2 "Active" time is a tiny fraction of "Total". Advancing the
// virtual clock to each deadline reproduces that shape deterministically.
type Task struct {
	ID       int64
	deadline int64 // virtual ns
	interval int64 // >0 for repeating timers
	frame    bool  // animation-frame task (scheduled on the frame cadence)
	Data     any   // the JS callback
	seq      int64
	canceled bool
}

// TaskQueue is a virtual-time task queue.
type TaskQueue struct {
	h      taskHeap
	nextID int64
	seq    int64
	byID   map[int64]*Task

	// FrameInterval is the animation-frame cadence (default 16ms).
	FrameInterval int64
	// lastFrame is the virtual time of the last dispatched frame boundary.
	lastFrame int64
}

// NewTaskQueue returns an empty queue with a 16ms frame cadence.
func NewTaskQueue() *TaskQueue {
	return &TaskQueue{
		FrameInterval: 16_000_000,
		byID:          make(map[int64]*Task),
	}
}

// ErrQueueEmpty is returned by Next on an empty queue.
var ErrQueueEmpty = errors.New("browser: task queue empty")

// ScheduleTimeout enqueues a one-shot timer.
func (q *TaskQueue) ScheduleTimeout(now, delayNS int64, data any) *Task {
	return q.schedule(now+max(0, delayNS), 0, false, data)
}

// ScheduleInterval enqueues a repeating timer.
func (q *TaskQueue) ScheduleInterval(now, intervalNS int64, data any) *Task {
	if intervalNS < 1_000_000 {
		intervalNS = 1_000_000 // browsers clamp tiny intervals
	}
	return q.schedule(now+intervalNS, intervalNS, false, data)
}

// ScheduleFrame enqueues an animation-frame callback at the next frame
// boundary after now.
func (q *TaskQueue) ScheduleFrame(now int64, data any) *Task {
	next := q.lastFrame + q.FrameInterval
	if next <= now {
		next = now + q.FrameInterval - (now-q.lastFrame)%q.FrameInterval
	}
	return q.schedule(next, 0, true, data)
}

func (q *TaskQueue) schedule(deadline, interval int64, frame bool, data any) *Task {
	q.nextID++
	q.seq++
	t := &Task{
		ID:       q.nextID,
		deadline: deadline,
		interval: interval,
		frame:    frame,
		Data:     data,
		seq:      q.seq,
	}
	heap.Push(&q.h, t)
	q.byID[t.ID] = t
	return t
}

// Cancel marks a task canceled; it reports whether the id was live.
func (q *TaskQueue) Cancel(id int64) bool {
	t, ok := q.byID[id]
	if !ok || t.canceled {
		return false
	}
	t.canceled = true
	delete(q.byID, id)
	return true
}

// Len returns the number of live tasks.
func (q *TaskQueue) Len() int { return len(q.byID) }

// Next pops the earliest task at or after `now`, returning the task and
// the virtual time at which it fires (>= now; the caller advances its
// clock to that time). Repeating timers are re-armed automatically.
func (q *TaskQueue) Next(now int64) (*Task, int64, error) {
	for q.h.Len() > 0 {
		t := heap.Pop(&q.h).(*Task)
		if t.canceled {
			continue
		}
		fire := max(t.deadline, now)
		if t.interval > 0 {
			// re-arm
			q.seq++
			clone := *t
			clone.deadline = fire + t.interval
			clone.seq = q.seq
			heap.Push(&q.h, &clone)
			q.byID[t.ID] = &clone
		} else {
			delete(q.byID, t.ID)
		}
		if t.frame && fire > q.lastFrame {
			q.lastFrame = fire
		}
		return t, fire, nil
	}
	return nil, now, ErrQueueEmpty
}

// taskHeap orders by (deadline, seq).
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return out
}
