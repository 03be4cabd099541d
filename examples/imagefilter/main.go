// Command imagefilter walks the paper's whole story on one CamanJS-style kernel:
// (1) JS-CERES clears the per-pixel filter loop as data-parallel
// (disjoint writes, read-only input); (2) the kernel then actually runs
// across goroutines — River-Trail-style map — and (3) the parallel result
// is verified bit-identical to sequential, with the wall-clock speedup
// printed.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/parallel"
)

const width, height = 96, 96

// filterLoop is the sequential form JS-CERES analyzes.
const filterLoop = `
var out = new Array(W * H);
function applyFilter() {
  for (var i = 0; i < W * H; i++) {
    var x = i % W, y = (i / W) | 0;
    var v = input[i];
    var vign = 1 - ((x - W / 2) * (x - W / 2) + (y - H / 2) * (y - H / 2)) / (W * H);
    var c = v * 0.7 + 40;
    c = c * vign;
    out[i] = c > 255 ? 255 : (c < 0 ? 0 : c | 0);
  }
}
applyFilter();
`

// kernel is the same body as a River-Trail-style elemental function.
const kernel = `
function kernel(i) {
  var x = i % W, y = (i / W) | 0;
  var v = input[i];
  var vign = 1 - ((x - W / 2) * (x - W / 2) + (y - H / 2) * (y - H / 2)) / (W * H);
  var c = v * 0.7 + 40;
  c = c * vign;
  return c > 255 ? 255 : (c < 0 ? 0 : c | 0);
}
`

func setup(in *interp.Interp) error {
	elems := make([]value.Value, width*height)
	for i := range elems {
		elems[i] = value.Number(float64((i*31 + 7) % 256))
	}
	in.SetGlobal("input", value.ObjectVal(in.NewArray(elems...)))
	in.SetGlobal("W", value.Int(width))
	in.SetGlobal("H", value.Int(height))
	return nil
}

func main() {
	// ---- step 1: analyze the sequential loop ----
	prog, err := interp.Load(filterLoop)
	if err != nil {
		log.Fatal(err)
	}
	in := interp.New()
	if err := setup(in); err != nil {
		log.Fatal(err)
	}
	lp := core.NewLoopProfiler(in)
	dep := core.NewDepAnalyzer(ast.NoLoop)
	in.SetHooks(lp, dep)
	if err := in.Run(prog); err != nil {
		log.Fatal(err)
	}
	nests := core.ClassifyNests(prog, lp, dep)
	if len(nests) == 0 {
		log.Fatal("no loop nest found")
	}
	n := nests[0]
	fmt.Printf("analysis: nest %s — %d trips, deps %s, parallelization %s\n",
		n.Label, int(n.TripMean), n.DepDiff, n.ParDiff)
	if !n.Parallelizable() {
		log.Fatal("analysis says this loop is not parallelizable — not proceeding")
	}

	// ---- step 2: execute it in parallel ----
	k := &parallel.Kernel{Source: kernel, Setup: setup}
	nPixels := width * height

	t0 := time.Now()
	seq, err := k.MapSequential(nPixels)
	if err != nil {
		log.Fatal(err)
	}
	seqDur := time.Since(t0)

	workers := runtime.GOMAXPROCS(0)
	t1 := time.Now()
	par, err := k.MapParallel(nPixels, workers)
	if err != nil {
		log.Fatal(err)
	}
	parDur := time.Since(t1)

	// ---- step 3: verify and report ----
	if !parallel.Equal(seq, par) {
		log.Fatal("parallel result differs from sequential!")
	}
	fmt.Printf("sequential: %v\n", seqDur)
	fmt.Printf("parallel:   %v on %d workers\n", parDur, par.Workers)
	fmt.Printf("speedup:    %.2fx (results verified identical)\n",
		float64(seqDur)/float64(parDur))
	sum := parallel.ReduceNumbers(par, 0, func(a, x float64) float64 { return a + x })
	fmt.Printf("checksum:   %.0f\n", sum)
}
