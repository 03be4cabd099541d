package sched

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestPlanCoversAndShrinks: the plan tiles [0, n) exactly, sizes shrink
// geometrically toward the minimum chunk, and boundaries are a pure
// function of n — the determinism contract's foundation.
func TestPlanCoversAndShrinks(t *testing.T) {
	for _, n := range []int{1, 7, 8, 100, 2048, 4097} {
		plan := Plan(n, Options{})
		lo := 0
		prev := n + 1
		for ci, sp := range plan {
			if sp.Lo != lo {
				t.Fatalf("n=%d chunk %d: gap, Lo=%d want %d", n, ci, sp.Lo, lo)
			}
			size := sp.Hi - sp.Lo
			if size <= 0 {
				t.Fatalf("n=%d chunk %d: empty span", n, ci)
			}
			if size > prev {
				t.Fatalf("n=%d chunk %d: size %d grew past %d", n, ci, size, prev)
			}
			prev = size
			lo = sp.Hi
		}
		if lo != n {
			t.Fatalf("n=%d: plan ends at %d", n, lo)
		}
	}
	// Worker count never moves a boundary.
	a := Plan(2048, Options{Workers: 2})
	b := Plan(2048, Options{Workers: 8})
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("plan depends on worker count")
	}
}

// TestRunExecutesEveryIndexOnce at several worker counts, with each
// element index run exactly once no matter how the claims interleave.
func TestRunExecutesEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 4, 8} {
		hits := make([]int32, n)
		stats, err := Run(n, Options{Workers: workers}, func(w, ci, lo, hi int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("worker index %d out of pool [0,%d)", w, workers)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
		if stats.Workers > workers || stats.Workers < 1 {
			t.Fatalf("workers=%d: resolved %d", workers, stats.Workers)
		}
		done := 0
		for _, c := range stats.PerWorker {
			done += c
		}
		if done != stats.Chunks {
			t.Fatalf("workers=%d: PerWorker sums to %d, Chunks=%d", workers, done, stats.Chunks)
		}
	}
}

// TestDeterministicMergeAcrossWorkerCounts: per-chunk partials merged in
// chunk order give byte-identical results at every worker count even for
// a deliberately non-associative merge, because the chunk plan is fixed.
func TestDeterministicMergeAcrossWorkerCounts(t *testing.T) {
	const n = 3000
	opts := Options{}
	merge := func(workers int) float64 {
		o := opts
		o.Workers = workers
		plan := Plan(n, o)
		partials := make([]float64, len(plan))
		if _, err := RunPlan(plan, o, func(w, ci, lo, hi int) error {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i) * 1.000001
			}
			partials[ci] = s
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		acc := 0.0
		for _, p := range partials {
			acc = acc*0.999 + p // non-associative on purpose
		}
		return acc
	}
	want := merge(1)
	for _, workers := range []int{2, 4, 8} {
		if got := merge(workers); got != want {
			t.Errorf("workers=%d: merge %v != sequential %v", workers, got, want)
		}
	}
}

// TestBlockedChunkStallsNoOther is the balance property: chunk 0 blocks
// until every other chunk has run, so the run finishes only if no chunk
// ever waits behind a running one. A watchdog turns a stall into a
// failure instead of a hang.
func TestBlockedChunkStallsNoOther(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		opts := Options{Workers: workers}
		plan := Plan(512, opts)
		others := make(chan struct{})
		var ran atomic.Int32
		watchdog := time.After(10 * time.Second)
		_, err := RunPlan(plan, opts, func(w, ci, lo, hi int) error {
			if ci == 0 {
				select {
				case <-others:
					return nil
				case <-watchdog:
					return fmt.Errorf("chunk 0 still blocked after 10s: %d of %d other chunks ran", ran.Load(), len(plan)-1)
				}
			}
			if int(ran.Add(1)) == len(plan)-1 {
				close(others)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestRunErrorCancels: a body error stops the run promptly and is
// returned; the scheduler must not hang or execute the whole plan.
func TestRunErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int32
	_, err := Run(10000, Options{Workers: 4}, func(w, ci, lo, hi int) error {
		if executed.Add(1) == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestEmptyAndUnitPlans: degenerate inputs stay well-formed.
func TestEmptyAndUnitPlans(t *testing.T) {
	stats, err := Run(0, Options{Workers: 4}, func(w, ci, lo, hi int) error {
		t.Fatal("body called for n=0")
		return nil
	})
	if err != nil || stats.Chunks != 0 {
		t.Fatalf("n=0: stats=%+v err=%v", stats, err)
	}
	plan := UnitPlan(5)
	if len(plan) != 5 || plan[4].Lo != 4 || plan[4].Hi != 5 {
		t.Fatalf("unit plan malformed: %v", plan)
	}
	var count atomic.Int32
	stats, err = RunPlan(plan, Options{Workers: 8}, func(w, ci, lo, hi int) error {
		count.Add(1)
		return nil
	})
	if err != nil || count.Load() != 5 || stats.Workers != 5 {
		t.Fatalf("unit run: count=%d stats=%+v err=%v", count.Load(), stats, err)
	}
}

// TestPerWorkerStateSafety: each worker index is live on one goroutine
// at a time, so callers may keep unlocked per-worker state.
func TestPerWorkerStateSafety(t *testing.T) {
	const n = 2000
	inUse := make([]atomic.Bool, 16)
	state := make([]int, 16) // written without locks, per contract
	_, err := Run(n, Options{Workers: 8}, func(w, ci, lo, hi int) error {
		if !inUse[w].CompareAndSwap(false, true) {
			return fmt.Errorf("worker %d re-entered concurrently", w)
		}
		state[w] += hi - lo
		inUse[w].Store(false)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range state {
		total += s
	}
	if total != n {
		t.Fatalf("per-worker state sums to %d, want %d", total, n)
	}
}
