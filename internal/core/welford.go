// Package core implements JS-CERES, the profiling and runtime dependence
// analysis tool of Radoi et al., "Are web applications ready for
// parallelism?" (PPoPP 2015).
//
// The tool has three staged instrumentation modes (§3 of the paper), each
// implemented as an interp hook whose event methods are exactly what the
// mode needs, so overhead stays proportional to it:
//
//   - LightProfiler (§3.1): total time vs. time spent in loops, via an
//     open-loop counter.
//   - LoopProfiler (§3.2): per-syntactic-loop instances, running time and
//     trip counts, with mean/variance by Welford's online algorithm.
//   - DepAnalyzer (§3.3): runtime dependence analysis over a loop
//     characterization stack with object creation stamps.
//
// On top of the raw modes, Classify assembles loop nests and derives the
// Table 3 columns (control-flow divergence, DOM access, dependence
// breaking difficulty, parallelization difficulty).
package core

import "math"

// Welford maintains running mean and variance using Welford's online
// algorithm (the paper cites Welford 1962 for its loop statistics).
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the statistics.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Sum returns the total of all observations.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }
