// Command benchsched measures the work-stealing scheduler itself and
// persists the result as machine-readable BENCH_sched.json — the
// scheduler's entry in the repo's perf trajectory, next to
// BENCH_proxy.json (service).
//
// Two kernels ride the worker ladder through the real share-nothing
// parallel.Kernel path: "balanced" (uniform per-element cost — the
// scheduler's best case, chunk plan alone suffices) and "skewed"
// (cost concentrated in the low-index quarter, the imbalanced-raytracer
// shape — the case stealing exists for). Each (kernel, workers) cell
// reports median/min/max wall clock plus the scheduler's chunk and
// steal counters, so the artifact shows not just *that* the skewed
// kernel scales but *how*: rebalanced through steals, not luck.
//
// Each kernel's ladder is then fitted to the Universal Scalability Law
//
//	S(N) = N / (1 + sigma*(N-1) + kappa*N*(N-1))
//
// by grid search over the contention (sigma) and coherency (kappa)
// coefficients; the fit's predicted saturation point (peak workers and
// speedup there) is the capacity model: what the ladder says about
// worker counts the ladder never ran.
//
// Usage:
//
//	benchsched [-out=BENCH_sched.json] [-reps=5] [-scale=1] [-check]
//
// -reps is the number of timed repetitions per cell after one warmup;
// medians come with min/max so noise is visible.
// -scale divides element counts (CI uses a large divisor; the committed
// artifact is generated at -scale=1).
// -check validates the -out file against the bench-sched/v1 schema and
// exits non-zero on violations (the CI smoke for the committed file).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/parallel"
)

// Schema is the persisted format identifier; bump on breaking change.
const Schema = "bench-sched/v1"

// balancedKernel: uniform per-element cost. The chunk plan spreads it
// evenly, so steals should stay near zero — stealing is pull-based and
// only fires when a worker runs dry early.
const balancedKernel = `
function kernel(i) {
  var acc = 0;
  for (var j = 0; j < 120; j++) {
    acc += (i * 31 + j * j) % 97;
  }
  return acc;
}
`

// skewedKernel: indices below a quarter of the range spin ~100x longer,
// pinning whichever worker owns the head chunks. The other workers must
// steal the tail to keep the pool busy.
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

// Stat is one timing cell: median over reps with the noise bounds.
type Stat struct {
	MedianMS float64 `json:"median_ms"`
	MinMS    float64 `json:"min_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// Rung is one (kernel, workers) measurement.
type Rung struct {
	Workers int  `json:"workers"`
	Wall    Stat `json:"wall"`
	// Speedup is the 1-worker median over this rung's median.
	Speedup float64 `json:"speedup"`
	// Chunks and Steals are the scheduler's telemetry for the run the
	// median came from: chunk-plan length (a pure function of n, fixed
	// across counts) and successful steals (the rebalancing the rung
	// actually needed; zero for the sequential rung).
	Chunks int `json:"chunks"`
	Steals int `json:"steals"`
}

// USL is the fitted Universal Scalability Law for one kernel's ladder.
type USL struct {
	// Sigma is the contention coefficient (serialized fraction),
	// Kappa the coherency coefficient (pairwise coordination cost).
	Sigma float64 `json:"sigma"`
	Kappa float64 `json:"kappa"`
	// RMSE is the fit's root-mean-square error over the measured rungs.
	RMSE float64 `json:"rmse"`
	// PeakWorkers is the model's predicted saturation point
	// sqrt((1-sigma)/kappa) — beyond it, adding workers *slows* the
	// kernel. 0 means the fit found no coherency term (kappa = 0): no
	// saturation inside the model's horizon.
	PeakWorkers float64 `json:"peak_workers"`
	// PeakSpeedup is S(PeakWorkers) under the fitted model (0 when
	// PeakWorkers is 0).
	PeakSpeedup float64 `json:"peak_speedup"`
}

// KernelResult is one kernel's ladder plus its capacity fit.
type KernelResult struct {
	Name  string `json:"name"`
	N     int    `json:"n"`
	Rungs []Rung `json:"rungs"`
	USL   USL    `json:"usl"`
}

// Summary condenses the file for trajectory plots and CI assertions.
type Summary struct {
	// BestSpeedup is the highest measured speedup across all cells.
	BestSpeedup float64 `json:"best_speedup"`
	// SkewedSteals is the steal count at the top rung of the skewed
	// kernel — the headline "the scheduler actually rebalances" number.
	SkewedSteals int `json:"skewed_steals"`
}

// File is the full bench-sched/v1 document.
type File struct {
	Schema string `json:"schema"`
	Scale  int    `json:"scale"`
	Reps   int    `json:"reps"`
	// MaxProcs is the generating machine's GOMAXPROCS. Wall-clock
	// speedup assertions only make sense when it exceeds 1 — on a
	// single-CPU box the ladder measures scheduling overhead and steal
	// behavior, not parallel wins, and the checker holds it to only
	// what it can show.
	MaxProcs int            `json:"maxprocs"`
	Workers  []int          `json:"workers"`
	Kernels  []KernelResult `json:"kernels"`
	Summary  Summary        `json:"summary"`
}

var workerLadder = []int{1, 2, 4, 8}

func main() {
	out := flag.String("out", "BENCH_sched.json", "output path for the bench document")
	reps := flag.Int("reps", 5, "timed repetitions per cell (after one warmup)")
	scale := flag.Int("scale", 1, "divide kernel element counts by N")
	check := flag.Bool("check", false, "validate the -out file against the schema and exit non-zero on violations (the CI smoke)")
	flag.Parse()

	if *check {
		warn, err := checkFile(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsched: check %s: %v\n", *out, err)
			os.Exit(1)
		}
		if warn != "" {
			fmt.Fprintf(os.Stderr, "benchsched: check %s: warning: %s\n", *out, warn)
		}
		fmt.Printf("benchsched: %s conforms to %s\n", *out, Schema)
		return
	}

	doc, err := run(*reps, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsched: %v\n", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsched: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchsched: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchsched: wrote %s (best speedup %.2fx, skewed steals at top rung: %d)\n",
		*out, doc.Summary.BestSpeedup, doc.Summary.SkewedSteals)
}

func run(reps, scale int) (*File, error) {
	if scale < 1 {
		scale = 1
	}
	doc := &File{Schema: Schema, Scale: scale, Reps: reps, Workers: workerLadder, MaxProcs: runtime.GOMAXPROCS(0)}
	kernels := []struct {
		name string
		src  string
		n    int
	}{
		{"balanced", balancedKernel, 4096 / scale},
		{"skewed", skewedKernel, 1024}, // the spin threshold is index 256; keep n above it
	}
	for _, kd := range kernels {
		kr := KernelResult{Name: kd.name, N: kd.n}
		var base float64
		for _, w := range workerLadder {
			r, err := timeCell(kd.src, kd.n, w, reps)
			if err != nil {
				return nil, fmt.Errorf("%s w=%d: %w", kd.name, w, err)
			}
			if w == 1 {
				base = r.Wall.MedianMS
			}
			if r.Wall.MedianMS > 0 {
				r.Speedup = base / r.Wall.MedianMS
			}
			kr.Rungs = append(kr.Rungs, r)
		}
		kr.USL = fitUSL(kr.Rungs)
		doc.Kernels = append(doc.Kernels, kr)
		for _, r := range kr.Rungs {
			if r.Speedup > doc.Summary.BestSpeedup {
				doc.Summary.BestSpeedup = r.Speedup
			}
		}
		if kd.name == "skewed" {
			doc.Summary.SkewedSteals = kr.Rungs[len(kr.Rungs)-1].Steals
		}
	}
	return doc, nil
}

// timeCell measures one (kernel, workers) cell: reps timed MapParallel
// runs after one warmup (which also populates the parse/compile caches).
// Telemetry is taken from the median run.
func timeCell(src string, n, workers, reps int) (Rung, error) {
	k := &parallel.Kernel{Source: src, Seed: 7}
	type sample struct {
		ms     float64
		chunks int
		steals int
	}
	var samples []sample
	for rep := 0; rep <= reps; rep++ {
		t0 := time.Now()
		res, err := k.MapParallel(n, workers)
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return Rung{}, err
		}
		if len(res.Values) != n {
			return Rung{}, fmt.Errorf("short result: %d of %d", len(res.Values), n)
		}
		if rep == 0 {
			continue
		}
		samples = append(samples, sample{ms: ms, chunks: res.Sched.Chunks, steals: res.Sched.Steals})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].ms < samples[j].ms })
	med := samples[len(samples)/2]
	return Rung{
		Workers: workers,
		Wall:    Stat{MedianMS: med.ms, MinMS: samples[0].ms, MaxMS: samples[len(samples)-1].ms},
		Chunks:  med.chunks,
		Steals:  med.steals,
	}, nil
}

// fitUSL grid-searches the USL coefficients against the measured
// (workers, speedup) points: sigma over the full [0, 1] (a flat ladder
// on a single-CPU machine legitimately fits as fully serialized),
// kappa over [0, 0.02].
func fitUSL(rungs []Rung) USL {
	best := USL{Sigma: 0, Kappa: 0, RMSE: math.Inf(1)}
	for sigma := 0.0; sigma <= 1.0; sigma += 0.001 {
		for kappa := 0.0; kappa <= 0.02; kappa += 0.0001 {
			var se float64
			for _, r := range rungs {
				n := float64(r.Workers)
				model := n / (1 + sigma*(n-1) + kappa*n*(n-1))
				d := model - r.Speedup
				se += d * d
			}
			rmse := math.Sqrt(se / float64(len(rungs)))
			if rmse < best.RMSE {
				best = USL{Sigma: sigma, Kappa: kappa, RMSE: rmse}
			}
		}
	}
	if best.Kappa > 0 {
		best.PeakWorkers = math.Sqrt((1 - best.Sigma) / best.Kappa)
		n := best.PeakWorkers
		best.PeakSpeedup = n / (1 + best.Sigma*(n-1) + best.Kappa*n*(n-1))
	}
	return best
}

// checkFile validates a bench document against the v1 schema. The
// returned warning is non-empty when the document is schema-valid but
// its measurements are vacuous (a single-proc machine cannot show a
// parallel win, so every rung passing is not evidence of anything).
func checkFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var doc File
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("not valid JSON: %w", err)
	}
	if doc.Schema != Schema {
		return "", fmt.Errorf("schema = %q, want %q", doc.Schema, Schema)
	}
	if doc.Reps < 1 {
		return "", fmt.Errorf("reps = %d, want >= 1", doc.Reps)
	}
	if len(doc.Workers) == 0 {
		return "", fmt.Errorf("empty worker ladder")
	}
	names := map[string]bool{}
	for _, k := range doc.Kernels {
		names[k.Name] = true
		if k.Name == "" || k.N <= 0 {
			return "", fmt.Errorf("kernel %q: incomplete identity", k.Name)
		}
		if len(k.Rungs) != len(doc.Workers) {
			return "", fmt.Errorf("kernel %s: %d rungs for %d worker counts", k.Name, len(k.Rungs), len(doc.Workers))
		}
		for i, r := range k.Rungs {
			if r.Workers != doc.Workers[i] {
				return "", fmt.Errorf("kernel %s rung %d: workers %d, ladder says %d", k.Name, i, r.Workers, doc.Workers[i])
			}
			s := r.Wall
			if s.MedianMS <= 0 || s.MinMS <= 0 || s.MaxMS < s.MinMS || s.MedianMS < s.MinMS || s.MedianMS > s.MaxMS {
				return "", fmt.Errorf("kernel %s w=%d: inconsistent stat %+v", k.Name, r.Workers, s)
			}
			if r.Speedup <= 0 {
				return "", fmt.Errorf("kernel %s w=%d: speedup %v", k.Name, r.Workers, r.Speedup)
			}
			if r.Steals < 0 || r.Chunks < 0 {
				return "", fmt.Errorf("kernel %s w=%d: negative telemetry %+v", k.Name, r.Workers, r)
			}
			if r.Workers == 1 && r.Steals != 0 {
				return "", fmt.Errorf("kernel %s: steals on the sequential rung", k.Name)
			}
		}
		u := k.USL
		if u.Sigma < 0 || u.Sigma > 1 || u.Kappa < 0 || u.RMSE < 0 {
			return "", fmt.Errorf("kernel %s: implausible USL fit %+v", k.Name, u)
		}
		if u.Kappa > 0 && u.PeakWorkers <= 0 {
			return "", fmt.Errorf("kernel %s: saturation at or below zero workers: %+v", k.Name, u)
		}
	}
	if !names["balanced"] || !names["skewed"] {
		return "", fmt.Errorf("kernels %v: want both balanced and skewed", names)
	}
	if doc.Summary.SkewedSteals == 0 {
		return "", fmt.Errorf("skewed kernel shows zero steals at the top rung; the stealing path went unmeasured")
	}
	if doc.Summary.BestSpeedup <= 0 {
		return "", fmt.Errorf("best speedup %.2f is not a measurement", doc.Summary.BestSpeedup)
	}
	if doc.MaxProcs > 1 && doc.Summary.BestSpeedup <= 1 {
		return "", fmt.Errorf("best speedup %.2f on a %d-proc machine: the ladder shows no parallel win", doc.Summary.BestSpeedup, doc.MaxProcs)
	}
	if doc.MaxProcs <= 1 {
		return fmt.Sprintf("measured with maxprocs=%d: every parallel rung is a tie by construction, so the no-parallel-win check was skipped — re-measure on a multi-core machine before trusting these numbers", doc.MaxProcs), nil
	}
	return "", nil
}
