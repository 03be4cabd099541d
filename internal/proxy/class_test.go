package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/instrument"
	"repro/internal/sched"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// blockPipelineWorker parks the single worker of pl on a raw
// interactive admission until release is called.
func blockPipelineWorker(t *testing.T, pl *Pipeline) (release func()) {
	t.Helper()
	rel := make(chan struct{})
	blocked := make(chan struct{})
	if err := pl.Queue().Submit(func(w *sched.WorkerCtx) {
		close(blocked)
		<-rel
	}); err != nil {
		t.Fatal(err)
	}
	<-blocked
	return func() { close(rel) }
}

// TestSingleFlightPriorityInheritance: an interactive request that
// coalesces onto a rewrite already in flight at batch priority promotes
// the in-flight job — the interactive caller inherits its wait, not
// batch lane ordering.
func TestSingleFlightPriorityInheritance(t *testing.T) {
	pl := NewPipeline(1, 8)
	defer pl.Close()
	c := NewRewriteCache(1 << 20)
	c.SetRewriteFunc(pl.RewriteFor)
	release := blockPipelineWorker(t, pl)

	type res struct {
		body []byte
		err  error
	}
	batchCh := make(chan res, 1)
	go func() {
		body, _, err := c.RewriteTimed(srcN(1), instrument.ModeLight, sched.ClassBatch)
		batchCh <- res{body, err}
	}()
	waitFor(t, "batch flight admitted", func() bool {
		return c.Stats().Inflight == 1 && pl.Queue().Stats().Batch.Submitted == 1
	})

	intCh := make(chan res, 1)
	go func() {
		body, _, err := c.RewriteTimed(srcN(1), instrument.ModeLight, sched.ClassInteractive)
		intCh <- res{body, err}
	}()
	// Promotion must land while the job is still queued behind the
	// blocked worker — before any rewrite work happens.
	waitFor(t, "promotion", func() bool { return pl.Queue().Stats().Promoted == 1 })

	release()
	b, i := <-batchCh, <-intCh
	if b.err != nil || i.err != nil {
		t.Fatalf("errs = %v / %v, want nil", b.err, i.err)
	}
	if !bytes.Equal(b.body, i.body) {
		t.Fatal("coalesced callers saw different bodies")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != 1 || st.Rewrites != 1 {
		t.Errorf("cache stats = %+v, want 1 miss / 1 coalesced / 1 rewrite", st)
	}
	qs := pl.Queue().Stats()
	if qs.Promoted != 1 || qs.Batch.Shed != 0 {
		t.Errorf("queue stats = %+v, want 1 promoted, 0 batch shed", qs)
	}
}

// TestSingleFlightPromotionRacesCompletion: promotion racing the
// flight's completion — in either coalesce order — must never corrupt
// results or ticket accounting. Run under -race.
func TestSingleFlightPromotionRacesCompletion(t *testing.T) {
	pl := NewPipeline(2, 16)
	defer pl.Close()
	c := NewRewriteCache(8 << 20)
	c.SetRewriteFunc(pl.RewriteFor)
	for i := 0; i < 200; i++ {
		src := srcN(1000 + i)
		var wg sync.WaitGroup
		var bodies [2][]byte
		var errs [2]error
		wg.Add(2)
		go func() {
			defer wg.Done()
			bodies[0], _, errs[0] = c.RewriteTimed(src, instrument.ModeLight, sched.ClassBatch)
		}()
		go func() {
			defer wg.Done()
			bodies[1], _, errs[1] = c.RewriteTimed(src, instrument.ModeLight, sched.ClassInteractive)
		}()
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("iteration %d: errs = %v / %v", i, errs[0], errs[1])
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("iteration %d: coalesced callers saw different bodies", i)
		}
	}
	waitFor(t, "tickets to drain", func() bool {
		st := pl.Queue().Stats()
		return st.InFlight == 0 && st.Interactive.InFlight == 0 && st.Batch.InFlight == 0
	})
}

// TestPipelineBatchShedForInteractive: at the admission bound an
// interactive rewrite evicts a queued batch rewrite — the batch caller
// gets sched.ErrSaturated, the interactive request is served, and the
// drop is accounted as shed, not failure.
func TestPipelineBatchShedForInteractive(t *testing.T) {
	pl := NewPipeline(1, 2)
	defer pl.Close()
	release := blockPipelineWorker(t, pl) // ticket 1 of 2

	shedCh := make(chan error, 1)
	go func() {
		_, _, err := pl.RewriteFor(srcN(2), instrument.ModeLight, sched.ClassBatch, nil)
		shedCh <- err
	}()
	// batch, ticket 2 of 2 — queue now at depth
	waitFor(t, "batch admitted", func() bool { return pl.Queue().Stats().Batch.Submitted == 1 })

	done := make(chan error, 1)
	go func() {
		_, _, err := pl.Rewrite(srcN(3), instrument.ModeLight)
		done <- err
	}()
	if err := <-shedCh; !errors.Is(err, sched.ErrSaturated) {
		t.Fatalf("shed batch rewrite delivered %v, want ErrSaturated", err)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("interactive rewrite after batch shed: %v", err)
	}
	st := pl.Stats()
	if st.Shed != 1 || st.Failures != 0 {
		t.Errorf("pipeline stats shed/failures = %d/%d, want 1/0", st.Shed, st.Failures)
	}
	if st.Queue.Batch.Shed != 1 || st.Queue.Interactive.Rejected != 0 {
		t.Errorf("queue stats = %+v, want batch shed 1, interactive rejected 0", st.Queue)
	}
}

// TestPipelineBatchMaxWaitSheds: a batch admission still queued past
// the configured deadline is shed instead of run stale.
func TestPipelineBatchMaxWaitSheds(t *testing.T) {
	pl := NewPipeline(1, 4)
	pl.SetBatchMaxWait(time.Millisecond)
	defer pl.Close()
	release := blockPipelineWorker(t, pl)

	shedCh := make(chan error, 1)
	go func() {
		_, _, err := pl.RewriteFor(srcN(4), instrument.ModeLight, sched.ClassBatch, nil)
		shedCh <- err
	}()
	waitFor(t, "batch admitted", func() bool { return pl.Queue().Stats().Batch.Submitted == 1 })
	time.Sleep(10 * time.Millisecond) // let the deadline lapse while queued
	release()
	if err := <-shedCh; !errors.Is(err, sched.ErrSaturated) {
		t.Fatalf("expired batch rewrite delivered %v, want ErrSaturated", err)
	}
	if st := pl.Stats(); st.Shed != 1 || st.Queue.Batch.Shed != 1 {
		t.Errorf("stats = shed %d / queue batch shed %d, want 1/1", st.Shed, st.Queue.Batch.Shed)
	}
}

// TestPipelineInteractiveOvertakesBatchBacklog: however many batch
// rewrites are queued behind the single worker, an interactive rewrite
// submitted after them all runs first, and none of the backlog is shed
// while the queue is below its depth. Interactive wait not growing
// with batch load is a fact about queue order here, not a latency
// ratio.
func TestPipelineInteractiveOvertakesBatchBacklog(t *testing.T) {
	checkGoroutineLeak(t)
	for _, k := range []int{0, 2, 8} {
		t.Run(fmt.Sprintf("batch=%d", k), func(t *testing.T) {
			// Depth k+2 holds the parked job, the backlog and the
			// interactive rewrite: full, never over.
			pl := NewPipeline(1, k+2)
			defer pl.Close()
			// The second job to start parks at gate, so whichever job
			// ran first is the only one whose caller can have returned.
			gate := make(chan struct{})
			openGate := sync.OnceFunc(func() { close(gate) })
			defer openGate()
			var starts atomic.Int32
			pl.onStage = func(stage, _ int) {
				if stage == 0 && starts.Add(1) == 2 {
					<-gate
				}
			}
			release := sync.OnceFunc(blockPipelineWorker(t, pl))
			defer release()
			admitted := func() int64 {
				st := pl.Queue().Stats()
				return st.Interactive.Submitted + st.Batch.Submitted
			}

			batch := make(chan error, k)
			for i := 0; i < k; i++ {
				src := srcN(100 + i)
				go func() {
					_, _, err := pl.RewriteFor(src, instrument.ModeLight, sched.ClassBatch, nil)
					batch <- err
				}()
			}
			waitFor(t, "the batch backlog", func() bool { return admitted() == int64(k+1) })
			interactive := make(chan error, 1)
			go func() {
				_, _, err := pl.Rewrite(srcN(99), instrument.ModeLight)
				interactive <- err
			}()
			waitFor(t, "the interactive rewrite", func() bool { return admitted() == int64(k+2) })
			release()

			waitFor(t, "the first job to return", func() bool { return len(interactive)+len(batch) > 0 })
			if n := len(batch); n != 0 {
				t.Fatalf("%d of %d batch rewrites completed before the interactive one", n, k)
			}
			if err := <-interactive; err != nil {
				t.Fatalf("interactive rewrite: %v", err)
			}
			openGate()
			for i := 0; i < k; i++ {
				if err := <-batch; err != nil {
					t.Errorf("batch rewrite below depth: %v", err)
				}
			}
			if st := pl.Stats(); st.Shed != 0 || st.Queue.Batch.Rejected != 0 || st.Completed != int64(k+1) {
				t.Errorf("shed=%d batch rejected=%d completed=%d, want 0/0/%d", st.Shed, st.Queue.Batch.Rejected, st.Completed, k+1)
			}
		})
	}
}

// TestRetryAfterFromP99: the Retry-After hint is the class's queue-wait
// p99 rounded up to whole seconds, clamped to [1, 30].
func TestRetryAfterFromP99(t *testing.T) {
	cases := []struct {
		p99  time.Duration
		want int
	}{
		{0, 1},
		{30 * time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
		{2 * time.Minute, 30},
	}
	for _, c := range cases {
		if got := retryAfterFromP99(c.p99); got != c.want {
			t.Errorf("retryAfterFromP99(%v) = %d, want %d", c.p99, got, c.want)
		}
	}
}
