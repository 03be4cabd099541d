package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// orderLog collects execution order under a lock.
type orderLog struct {
	mu    sync.Mutex
	order []string
}

func (l *orderLog) step(name string) {
	l.mu.Lock()
	l.order = append(l.order, name)
	l.mu.Unlock()
}

func (l *orderLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

// blockWorker occupies the single worker of q with an interactive job
// until the returned release func is called.
func blockWorker(t *testing.T, q *Queue) (release func(), done *sync.WaitGroup) {
	t.Helper()
	started := make(chan struct{})
	unblock := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	if err := q.Submit(func(w *WorkerCtx) {
		close(started)
		<-unblock
		wg.Done()
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	return func() { close(unblock) }, &wg
}

// TestQueueInteractivePreemptsBatchOrdering: an interactive root
// admitted *after* a batch root still runs first — the lanes, not
// arrival order, decide.
func TestQueueInteractivePreemptsBatchOrdering(t *testing.T) {
	q := NewQueue(1, 8)
	defer q.Close()
	var log orderLog
	release, blocker := blockWorker(t, q)
	var wg sync.WaitGroup
	wg.Add(2)
	if _, err := q.SubmitWith(func(w *WorkerCtx) {
		log.step("batch")
		wg.Done()
	}, SubmitOptions{Class: ClassBatch}); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(func(w *WorkerCtx) {
		log.step("interactive")
		wg.Done()
	}); err != nil {
		t.Fatal(err)
	}
	release()
	blocker.Wait()
	wg.Wait()
	if got := log.snapshot(); got[0] != "interactive" || got[1] != "batch" {
		t.Fatalf("order = %v, want interactive before batch", got)
	}
}

// TestQueueBatchShedsBeforeInteractiveRejected: at the admission bound
// an interactive Submit evicts the oldest queued batch root (OnShed
// fires, the batch job never runs) and is admitted; interactive is
// rejected only once no queued batch work remains.
func TestQueueBatchShedsBeforeInteractiveRejected(t *testing.T) {
	q := NewQueue(1, 2)
	defer q.Close()
	release, blocker := blockWorker(t, q) // ticket 1 of 2
	shedCh := make(chan struct{})
	batchRan := make(chan struct{}, 1)
	if _, err := q.SubmitWith(func(w *WorkerCtx) {
		batchRan <- struct{}{}
	}, SubmitOptions{Class: ClassBatch, OnShed: func() { close(shedCh) }}); err != nil {
		t.Fatal(err) // ticket 2 of 2 — queue is now at depth
	}
	var wg sync.WaitGroup
	wg.Add(1)
	if err := q.Submit(func(w *WorkerCtx) { wg.Done() }); err != nil {
		t.Fatalf("interactive submit at depth with a queued batch root: %v, want admitted", err)
	}
	select {
	case <-shedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("OnShed never fired for the evicted batch root")
	}
	// Still at depth, and no batch left to evict: now interactive sheds.
	if err := q.Submit(func(w *WorkerCtx) {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("interactive submit with no evictable batch: %v, want ErrSaturated", err)
	}
	release()
	blocker.Wait()
	wg.Wait()
	select {
	case <-batchRan:
		t.Fatal("evicted batch root ran anyway")
	default:
	}
	st := q.Stats()
	if st.Batch.Shed != 1 || st.Batch.Rejected != 0 {
		t.Errorf("batch stats = %+v, want 1 shed, 0 rejected", st.Batch)
	}
	if st.Interactive.Rejected != 1 || st.Interactive.Shed != 0 {
		t.Errorf("interactive stats = %+v, want 1 rejected, 0 shed", st.Interactive)
	}
	if st.Shed != 1 || st.Rejected != 1 {
		t.Errorf("combined stats = %+v, want shed=1 rejected=1", st)
	}
}

// TestQueueBatchDeadlineShed: a batch root a worker reaches past its
// MaxWait is dropped (OnShed fires) instead of run late.
func TestQueueBatchDeadlineShed(t *testing.T) {
	q := NewQueue(1, 4)
	defer q.Close()
	release, blocker := blockWorker(t, q)
	shedCh := make(chan struct{})
	ran := make(chan struct{}, 1)
	if _, err := q.SubmitWith(func(w *WorkerCtx) {
		ran <- struct{}{}
	}, SubmitOptions{Class: ClassBatch, MaxWait: time.Millisecond, OnShed: func() { close(shedCh) }}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the deadline lapse while queued
	release()
	blocker.Wait()
	select {
	case <-shedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("deadline shed never fired")
	}
	select {
	case <-ran:
		t.Fatal("expired batch root ran anyway")
	default:
	}
	st := q.Stats()
	if st.Batch.Shed != 1 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want Batch.Shed=1 InFlight=0", st)
	}
}

// TestQueuePromoteReordersQueuedRoot: promoting a queued batch
// admission moves it into the interactive lane ahead of later
// interactive arrivals, clears its deadline check, and shows up in
// Promoted.
func TestQueuePromoteReordersQueuedRoot(t *testing.T) {
	q := NewQueue(1, 8)
	defer q.Close()
	var log orderLog
	release, blocker := blockWorker(t, q)
	var wg sync.WaitGroup
	wg.Add(2)
	h, err := q.SubmitWith(func(w *WorkerCtx) {
		log.step("promoted-batch")
		wg.Done()
	}, SubmitOptions{Class: ClassBatch, MaxWait: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Class(); got != ClassBatch {
		t.Fatalf("Class() before promote = %v, want batch", got)
	}
	h.Promote()
	h.Promote() // idempotent
	if got := h.Class(); got != ClassInteractive {
		t.Fatalf("Class() after promote = %v, want interactive", got)
	}
	if err := q.Submit(func(w *WorkerCtx) {
		log.step("interactive")
		wg.Done()
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // would trip MaxWait were it still batch
	release()
	blocker.Wait()
	wg.Wait()
	if got := log.snapshot(); got[0] != "promoted-batch" {
		t.Fatalf("order = %v, want the promoted root to run first", got)
	}
	st := q.Stats()
	if st.Promoted != 1 {
		t.Errorf("Promoted = %d, want 1 (second Promote must no-op)", st.Promoted)
	}
	if st.Batch.Shed != 0 {
		t.Errorf("Batch.Shed = %d, want 0 (promotion must clear the deadline)", st.Batch.Shed)
	}
}

// TestQueueCloseDrainsQueuedRoots: Close called while roots of both
// classes are still queued behind a busy worker must run every one of
// them — Close drains, it never sheds — and leave no admission held.
func TestQueueCloseDrainsQueuedRoots(t *testing.T) {
	q := NewQueue(1, 16)
	release, blocker := blockWorker(t, q)
	var ran [numClasses]atomic.Int64
	const roots = 8
	for i := 0; i < roots; i++ {
		class := Class(i % int(numClasses))
		if _, err := q.SubmitWith(func(w *WorkerCtx) {
			ran[class].Add(1)
		}, SubmitOptions{Class: class}); err != nil {
			t.Fatal(err)
		}
	}
	if st := q.Stats(); st.Interactive.InFlight != roots/2+1 || st.Batch.InFlight != roots/2 {
		t.Fatalf("in-flight before Close = %+v, want every root still held", st)
	}
	closed := make(chan struct{})
	go func() {
		q.Close()
		close(closed)
	}()
	// Admission closes before the drain: the blocker is released only
	// once a submit reports ErrClosed, so every root is still queued when
	// Close lands. The probe is batch class — a batch submit never evicts,
	// so an early probe can only add a no-op job, not shed a root.
	for {
		_, err := q.SubmitWith(func(w *WorkerCtx) {}, SubmitOptions{Class: ClassBatch})
		if errors.Is(err, ErrClosed) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	release()
	blocker.Wait()
	<-closed
	if i, b := ran[ClassInteractive].Load(), ran[ClassBatch].Load(); i != roots/2 || b != roots/2 {
		t.Fatalf("roots run after Close: interactive=%d batch=%d, want %d each", i, b, roots/2)
	}
	st := q.Stats()
	if st.InFlight != 0 || st.Interactive.InFlight != 0 || st.Batch.InFlight != 0 {
		t.Errorf("in-flight after Close = %+v, want all zero", st)
	}
	if st.Completed != st.Submitted || st.Shed != 0 {
		t.Errorf("stats after Close = %+v, want completed == submitted, nothing shed", st)
	}
}

// TestQueuePromoteRacesCompletion: Promote racing the admission's
// completion (and landing after it) must never corrupt per-class
// ticket accounting. Run under -race.
func TestQueuePromoteRacesCompletion(t *testing.T) {
	q := NewQueue(2, 8)
	defer q.Close()
	for i := 0; i < 500; i++ {
		var wg sync.WaitGroup
		wg.Add(1)
		h, err := q.SubmitWith(func(w *WorkerCtx) {
			wg.Done()
		}, SubmitOptions{Class: ClassBatch})
		if err != nil {
			wg.Done()
			continue
		}
		raced := make(chan struct{})
		go func() {
			h.Promote()
			close(raced)
		}()
		wg.Wait()
		<-raced
		h.Promote() // after completion: must be a no-op
	}
	// Let the last ticket frees land before snapshotting.
	time.Sleep(10 * time.Millisecond)
	st := q.Stats()
	if st.InFlight != 0 || st.Interactive.InFlight != 0 || st.Batch.InFlight != 0 {
		t.Fatalf("in-flight after drain = inflight=%d interactive=%d batch=%d, want all zero",
			st.InFlight, st.Interactive.InFlight, st.Batch.InFlight)
	}
	if st.Promoted > 500 {
		t.Fatalf("Promoted = %d, impossible for 500 admissions", st.Promoted)
	}
}

// TestQueueStatsSplitPerClass: wait percentiles are recorded in the
// admission's class ring, and the combined top-level numbers merge
// both.
func TestQueueStatsSplitPerClass(t *testing.T) {
	q := NewQueue(1, 8)
	defer q.Close()
	release, blocker := blockWorker(t, q)
	var wg sync.WaitGroup
	wg.Add(2)
	if _, err := q.SubmitWith(func(w *WorkerCtx) { wg.Done() }, SubmitOptions{Class: ClassBatch}); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(func(w *WorkerCtx) { wg.Done() }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	release()
	blocker.Wait()
	wg.Wait()
	st := q.Stats()
	if st.Interactive.Submitted != 2 || st.Batch.Submitted != 1 {
		t.Fatalf("submitted split = %+v, want 2 interactive (incl. blocker) / 1 batch", st)
	}
	if st.Batch.QueueWaitMax < 4*time.Millisecond {
		t.Errorf("Batch.QueueWaitMax = %v, want >= ~5ms", st.Batch.QueueWaitMax)
	}
	if st.QueueWaitMax < st.Batch.QueueWaitMax {
		t.Errorf("combined max %v < batch max %v", st.QueueWaitMax, st.Batch.QueueWaitMax)
	}
}
