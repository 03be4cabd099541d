package parallel

// Work-stealing scheduler integration: a deliberately skewed kernel —
// per-element cost concentrated in the low-index quarter, the shape of
// the imbalanced raytracer variant — must still produce byte-identical
// results at every worker count, and the pool must actually steal.

import "testing"

// skewedKernel: indices below 256 spin ~100× longer than the rest.
const skewedKernel = `
function kernel(i) {
  var spin = i < 256 ? 300 : 3;
  var acc = 0;
  for (var j = 0; j < spin; j++) {
    acc += (i * 31 + j * j) % 97;
  }
  return acc;
}
`

const skewedN = 1024

// TestSkewedByteIdenticalAcrossWorkers: the map on the skewed kernel
// agrees exactly with the sequential run at 1/2/4/8 workers — stealing
// moves chunks between workers, never values between slots. (Reduce and
// filter on the same kernel are rows of internal/autopar's
// TestFoldSpecsSkewedMatchSequential.)
func TestSkewedByteIdenticalAcrossWorkers(t *testing.T) {
	k := &Kernel{Source: skewedKernel}
	seq, err := k.MapSequential(skewedN)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		m, err := k.MapParallel(skewedN, workers)
		if err != nil {
			t.Fatalf("map workers=%d: %v", workers, err)
		}
		if !Equal(seq, m) {
			t.Errorf("map workers=%d: differs from sequential", workers)
		}
	}
}

// TestSkewedMapSteals: the heavy head pins its owner, so a 4-worker map
// over the skewed kernel must rebalance through steals.
func TestSkewedMapSteals(t *testing.T) {
	k := &Kernel{Source: skewedKernel}
	res, err := k.MapParallel(skewedN, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched.Workers < 2 {
		t.Fatalf("pool resolved to %d workers", res.Sched.Workers)
	}
	if res.Sched.Chunks < res.Sched.Workers {
		t.Errorf("plan too coarse to steal from: %+v", res.Sched)
	}
	if res.Sched.Steals == 0 {
		t.Errorf("no steals on a skewed kernel: %+v", res.Sched)
	}
}
