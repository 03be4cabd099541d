// Command bench is the repository's one benchmark: six workloads driven
// through the public functions of the layer packages, every output
// checked against an oracle, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. BENCHMARK.json at the repository
// root names the workloads and metrics; README.md here explains them.
//
//	bash bench/run.sh --workload serve_hot --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh                      # all six, both runs, out/result.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	rounds        = 5  // timed rounds per run; the reported value is their median
	setups        = 3  // set-ups per run; setup_s is their median
	refSeconds    = 10 // the --seconds at which round sizes are the ones in workloads.go
	defaultSeed   = 7
	benchmarkFile = "BENCHMARK.json"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// declared lists the metrics a run of the given kind must emit.
func (s *benchSpec) declared(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// findSpec reads BENCHMARK.json from the working directory or its
// parent (the benchmark is started from the repository root or from
// bench/), and returns the directory the file is in.
func findSpec() (*benchSpec, string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, benchmarkFile))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, "", fmt.Errorf("%s: %w", benchmarkFile, err)
		}
		root, err := filepath.Abs(dir)
		return &spec, root, err
	}
	return nil, "", fmt.Errorf("%s not found in . or ..: run from the repository root", benchmarkFile)
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed   uint64
	scale  float64 // round sizes relative to workloads.go: --seconds / refSeconds
	w      int     // W: client count and every pool size
	trace  bool
	outDir string
}

// scaled sizes a per-round operation count; a round is never empty.
func (c runConfig) scaled(n int) int {
	return max(1, int(float64(n)*c.scale+0.5))
}

// roundResult is one timed round of fixed size.
type roundResult struct {
	wall      time.Duration
	attempted int
	failed    int
	ops       float64         // correct units of work done, for cpu_ms_per_op
	opsPerS   float64         // units of work per second of wall; each workload says how
	lat       []time.Duration // latency of each correct operation
}

// instance is a workload that has been set up and warmed.
type instance interface {
	// round runs one fixed-size round; tr is nil except in the traced round.
	round(tr *tracer) roundResult
	// verify checks outputs not yet checked against the oracle and
	// returns how many operations were wrong.
	verify() (failed int, err error)
	// layers reports the per-layer numbers of the traced round.
	layers(m measured, spans []span, traced roundResult)
	close()
}

type workloadDef struct {
	name  string
	setup func(cfg runConfig) (instance, error)
}

// measured maps metric names to their samples; the reported value of a
// metric is the median of its samples.
type measured map[string][]float64

func (m measured) set(name string, v float64) { m[name] = []float64{v} }

// result is one run of one workload, as stored in result files. A
// metric's value is the median of its samples.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	Host      hostRecord         `json:"host"`
	Err       string             `json:"error,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all (each in a child process)")
	seed := fs.Uint64("seed", defaultSeed, "seeds corpus generation and request order")
	seconds := fs.Float64("seconds", 0, "measured seconds per run; scales round sizes (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	runs := fs.Int("runs", 1, "with -workload all: runs per workload, each with the next seed")
	out := fs.String("out", "", "with -workload all: result file (default bench/out/result.json)")
	resultPath := fs.String("result", "", "also write this run's full result as JSON to the file (used by -workload all)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, root, err := findSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	outDir := filepath.Join(root, spec.Paths[0], "out")
	if *workload == "all" {
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		return runAll(spec, *seed, *seconds, *runs, *out)
	}
	def, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	cfg := runConfig{seed: *seed, scale: *seconds / refSeconds, w: poolSize(), trace: *trace != 0, outDir: outDir}
	res := runWorkload(def, cfg, spec)
	res.Host = newHostRecord(root, *seed, *seconds)
	printResult(spec, res)
	if *resultPath != "" {
		if err := writeResult(*resultPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload makes one run. The untraced run sets the workload up
// `setups` times, times `rounds` rounds on the last set-up and checks
// every output; the traced run probes the layers, then times one round
// without and one with spans.
func runWorkload(def workloadDef, cfg runConfig, spec *benchSpec) result {
	res := result{Workload: def.name, Trace: cfg.trace}
	m := measured{}
	var err error
	if cfg.trace {
		err = tracedRun(def, cfg, m, &res)
	} else {
		err = untracedRun(def, cfg, m, &res)
	}
	if err != nil {
		res.Err = err.Error()
	}
	res.Correct = err == nil && res.Failed == 0 && res.Attempted > 0
	res.Metrics, err = emit(spec.declared(cfg.trace), !cfg.trace, m)
	if err != nil {
		res.Correct = false
		res.Err = strings.TrimSpace(res.Err + " " + err.Error())
	}
	return res
}

func untracedRun(def workloadDef, cfg runConfig, m measured, res *result) error {
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			// Drop and collect the instance just closed, so that the peak
			// is one instance's and not a matter of when the collector ran.
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(cfg); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		m["setup_s"] = append(m["setup_s"], time.Since(t0).Seconds())
	}
	defer inst.close()
	for r := 0; r < rounds; r++ {
		cpu0 := cpuTime()
		rr := inst.round(nil)
		m["cpu_ms_per_op"] = append(m["cpu_ms_per_op"], ratio(ms(cpuTime()-cpu0), rr.ops))
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		sortDurations(rr.lat)
		m["ops_per_s"] = append(m["ops_per_s"], rr.opsPerS)
		m["lat_p50_ms"] = append(m["lat_p50_ms"], ms(percentile(rr.lat, 50)))
	}
	// Read before the oracle runs: its memory is the benchmark's.
	m.set("peak_rss_mb", peakRSSMiB())
	failed, err := inst.verify()
	res.Failed += failed
	return err
}

func tracedRun(def workloadDef, cfg runConfig, m measured, res *result) error {
	if err := probeLayers(cfg, m); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	inst, err := def.setup(cfg)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	plain := inst.round(nil)
	tr := newTracer()
	traced := inst.round(tr)
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	t0 := time.Now()
	failed, err := inst.verify()
	res.Failed += failed
	m.set("bench.verify_s", time.Since(t0).Seconds())
	m.set("bench.fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	m.set("bench.trace_overhead_ratio", ratio(plain.opsPerS, traced.opsPerS))
	// The tail of the untraced round: informational, because from run to
	// run it spreads too wide to carry a bound. p99.9 only where at least
	// ten samples lie beyond it.
	sortDurations(plain.lat)
	m.set("bench.lat_p99_ms", ms(percentile(plain.lat, 99)))
	if len(plain.lat) >= 10000 {
		m.set("bench.lat_p999_ms", ms(percentile(plain.lat, 99.9)))
	}
	spans := tr.resolve()
	sortDurations(traced.lat)
	inst.layers(m, spans, traced)
	if werr := writeTrace(cfg.outDir, def.name, spans); werr != nil && err == nil {
		err = werr
	}
	return err
}

// emit turns the measured samples into the metric set BENCHMARK.json
// declares for this kind of run. Every end-to-end metric is required; a
// per-layer metric the workload did not produce is 0: the workload never
// entered that layer. A produced metric BENCHMARK.json does not declare
// is a bug here.
func emit(declared []metricSpec, required bool, m measured) (map[string]summary, error) {
	out := make(map[string]summary, len(declared))
	var problems []string
	for _, d := range declared {
		xs, ok := m[d.Name]
		if !ok && required {
			problems = append(problems, "not measured: "+d.Name)
		}
		sm := summarize(xs)
		if math.IsNaN(sm.Median) || math.IsInf(sm.Median, 0) {
			problems = append(problems, "not a number: "+d.Name)
			sm = summary{}
		}
		out[d.Name] = sm
		delete(m, d.Name)
	}
	for name := range m {
		problems = append(problems, "not declared in "+benchmarkFile+": "+name)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return out, errors.New(strings.Join(problems, "; "))
	}
	return out, nil
}

// printResult prints every metric by name with unit, direction and
// spread, and as the last line the one JSON object the driver reads.
func printResult(spec *benchSpec, res result) {
	h := res.Host
	fmt.Printf("# %s trace=%v seed=%d seconds=%g W=%d nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n",
		res.Workload, res.Trace, h.Seed, h.Seconds, h.W, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	fmt.Printf("# %s; closed loop, %d clients; value = median of samples\n", h.Link, h.W)
	declared := spec.declared(res.Trace)
	fmt.Printf("%-34s %14s %-6s %-6s %5s %3s %12s %12s %12s %12s\n",
		"metric", "value", "unit", "better", "bound", "n", "min", "q1", "q3", "max")
	for _, d := range declared {
		s := res.Metrics[d.Name]
		note := ""
		// No parallel claim is ever read off a one-core box.
		if h.W == 1 && (d.Name == "exec.wN_elems_per_s" || d.Name == "ops_per_s" && res.Workload == "exec") {
			note = "  single core: equals w1"
		}
		fmt.Printf("%-34s %14.6g %-6s %-6s %5.2f %3d %12.6g %12.6g %12.6g %12.6g%s\n",
			d.Name, s.Median, d.Unit, d.Better, d.Bound, s.N, s.Min, s.Q1, s.Q3, s.Max, note)
	}
	fmt.Printf("# attempted=%d failed=%d fail_ratio=%g correct=%v\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	if res.Err != "" {
		fmt.Fprintln(os.Stderr, "bench:", res.Err)
		// The driver must not read a result off a failed run.
		return
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range declared {
		line.Metrics[d.Name] = mv{res.Metrics[d.Name].Median, d.Unit}
	}
	data, _ := json.Marshal(line) // plain numbers and strings cannot fail to encode
	fmt.Println(string(data))
}
