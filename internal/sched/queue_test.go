package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueRunsJobs(t *testing.T) {
	q := NewQueue(4, 16)
	defer q.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		if err := q.Submit(func(w *WorkerCtx) {
			n.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := n.Load(); got != 16 {
		t.Fatalf("ran %d jobs, want 16", got)
	}
	st := q.Stats()
	if st.Submitted != 16 || st.Completed != 16 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want 16 submitted/completed, 0 rejected", st)
	}
}

// TestQueueSaturation: with every worker blocked and the admission
// queue full, Submit reports ErrSaturated instead of queueing without
// bound — and admissions free again once jobs finish.
func TestQueueSaturation(t *testing.T) {
	const workers, depth = 2, 4
	q := NewQueue(workers, depth)
	defer q.Close()
	release := make(chan struct{})
	var admitted atomic.Int64
	var wg sync.WaitGroup
	accepted := 0
	for i := 0; i < depth*3; i++ {
		err := q.Submit(func(w *WorkerCtx) {
			admitted.Add(1)
			<-release
			wg.Done()
		})
		if err == nil {
			accepted++
			wg.Add(1)
		} else if !errors.Is(err, ErrSaturated) {
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if accepted != depth {
		t.Errorf("accepted %d admissions, want exactly depth=%d", accepted, depth)
	}
	if st := q.Stats(); st.Rejected != int64(depth*3-depth) || st.InFlight != depth {
		t.Errorf("stats = %+v, want %d rejected, %d in flight", st, depth*2, depth)
	}
	close(release)
	wg.Wait()
	// Admissions freed: a new job is accepted again.
	done := make(chan struct{})
	if err := q.Submit(func(w *WorkerCtx) { close(done) }); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	<-done
}

// TestQueueWorkerIdentity: each worker index is one goroutine — two
// jobs pinned to the same index never run concurrently.
func TestQueueWorkerIdentity(t *testing.T) {
	const workers = 4
	q := NewQueue(workers, 256)
	defer q.Close()
	var active [workers]atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		err := q.Submit(func(w *WorkerCtx) {
			defer wg.Done()
			if active[w.Worker].Add(1) != 1 {
				t.Errorf("worker %d ran two jobs concurrently", w.Worker)
			}
			time.Sleep(time.Microsecond)
			active[w.Worker].Add(-1)
		})
		if errors.Is(err, ErrSaturated) {
			wg.Done()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestQueueCloseRejectsAndDrains(t *testing.T) {
	q := NewQueue(2, 8)
	var n atomic.Int64
	for i := 0; i < 8; i++ {
		_ = q.Submit(func(w *WorkerCtx) { n.Add(1) })
	}
	q.Close() // must wait for every admitted job, queued or running
	if got := n.Load(); got != 8 {
		t.Fatalf("jobs after Close: %d ran, want 8", got)
	}
	if err := q.Submit(func(w *WorkerCtx) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

func TestQueueWaitStats(t *testing.T) {
	q := NewQueue(1, 4)
	defer q.Close()
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	_ = q.Submit(func(w *WorkerCtx) { <-block; wg.Done() })
	// These three queue behind the blocker and accrue real wait.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		if err := q.Submit(func(w *WorkerCtx) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	close(block)
	wg.Wait()
	st := q.Stats()
	if st.QueueWaitMax < 4*time.Millisecond {
		t.Errorf("QueueWaitMax = %v, want >= ~5ms (jobs queued behind the blocker)", st.QueueWaitMax)
	}
	if st.QueueWaitP99 < st.QueueWaitP50 {
		t.Errorf("p99 %v < p50 %v", st.QueueWaitP99, st.QueueWaitP50)
	}
	if st.MaxQueued < 3 {
		t.Errorf("MaxQueued = %d, want >= 3", st.MaxQueued)
	}
}

// TestQueuePanicContainment: a panicking job must not kill its worker
// or corrupt ticket accounting — later jobs run and Close drains.
func TestQueuePanicContainment(t *testing.T) {
	q := NewQueue(1, 4)
	if err := q.Submit(func(w *WorkerCtx) { panic("bad job") }); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	if err := q.Submit(func(w *WorkerCtx) { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker dead after panicking job")
	}
	q.Close() // the second job's slot frees after it returns; Close waits for that
	if st := q.Stats(); st.InFlight != 0 {
		t.Errorf("InFlight = %d after panic, want 0", st.InFlight)
	}
}
