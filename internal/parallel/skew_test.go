package parallel

// Scheduler integration: a deliberately skewed kernel — per-element cost
// concentrated in the low-index quarter, the shape of the imbalanced
// raytracer variant — must still produce byte-identical results at
// every worker count. (Balance itself is internal/sched's
// TestBlockedChunkStallsNoOther.)

import (
	"slices"
	"testing"

	"repro/internal/js/value"
)

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
// agrees exactly with the sequential run at 1/2/4/8 workers — which
// worker claims a chunk never moves a value between slots. (Reduce and
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
		if !slices.EqualFunc(seq.Values, m.Values, value.SameValue) {
			t.Errorf("map workers=%d: differs from sequential", workers)
		}
	}
}
