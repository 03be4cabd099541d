package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/autopar"
	"repro/internal/effects"
	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// kernelSource is one row of the exec workload as source text: a map
// kernel has one stage, the streaming pipeline three.
type kernelSource struct {
	name    string // metric-name suffix
	prelude string
	stages  []string // elemental sources, produce -> consume
	n       int      // full-size element count
	input   func(i int) float64
}

// kernelSources lists the 8 ModeExec kernels in workloads.ExecKernels
// order, then the image pipeline.
func kernelSources() []kernelSource {
	names := []string{"haar", "cloth", "caman", "fluid", "ray", "ray_skew", "normalmap", "histogram"}
	var out []kernelSource
	for k, ek := range workloads.ExecKernels() {
		out = append(out, kernelSource{names[k], ek.Prelude, []string{ek.Elemental}, ek.N, ek.Input})
	}
	pk := workloads.ImagePipe()
	pipe := kernelSource{name: "pipe", prelude: pk.Prelude, n: pk.N, input: pk.Input}
	for _, st := range pk.Stages {
		pipe.stages = append(pipe.stages, st.Elemental)
	}
	return append(out, pipe)
}

// execRow is one kernel ready to run: an interpreter with the prelude
// loaded, the elemental function(s) as values, and the inputs.
type execRow struct {
	kernelSource
	in    *interp.Interp
	fns   []value.Value
	elems []value.Value
	want  []value.Value // sequential single-interpreter evaluation, filled by verify
	got   [][]value.Value
}

// execInst is the exec workload: every row at 1 worker and at W workers
// each round, through autopar.MapSpec / autopar.PipelineSpec.
type execInst struct {
	cfg  runConfig
	rows []*execRow
	// Last round's outcomes and walls at W workers and at 1, by row.
	ocN, oc1     []autopar.Outcome
	wallN, wall1 []time.Duration
}

func setupExec(cfg runConfig) (instance, error) {
	e := &execInst{cfg: cfg}
	// The seed shifts which input element each index gets; the cost
	// shape of every kernel is a function of the index alone.
	shift := int(cfg.seed % 1024)
	for _, ks := range kernelSources() {
		r := &execRow{kernelSource: ks}
		var err error
		if r.in, r.fns, err = loadKernel(ks.prelude, ks.stages, cfg.seed); err != nil {
			return nil, fmt.Errorf("kernel %s: %w", ks.name, err)
		}
		r.elems = make([]value.Value, max(64, cfg.scaled(ks.n)))
		for i := range r.elems {
			r.elems[i] = value.Number(ks.input(i + shift))
		}
		e.rows = append(e.rows, r)
	}
	// Warm-up: one call per row at W workers loads every kernel source
	// into the process-wide parse and compile caches and grows the heap
	// to its working size. The outputs are checked with the rounds'.
	for _, r := range e.rows {
		out, _ := r.run(cfg.w)
		r.got = append(r.got, out)
	}
	return e, nil
}

// loadKernel runs prelude and elementals in a fresh compiled
// interpreter and returns the elemental function values.
func loadKernel(prelude string, stages []string, seed uint64) (*interp.Interp, []value.Value, error) {
	src := prelude + "\n"
	for s, st := range stages {
		src += fmt.Sprintf("var __f%d = %s;\n", s, st)
	}
	prog, err := interp.Load(src)
	if err != nil {
		return nil, nil, err
	}
	in := interp.New(interp.WithSeed(seed))
	in.SetCompile(true)
	if err := in.Run(prog); err != nil {
		return nil, nil, err
	}
	fns := make([]value.Value, len(stages))
	for s := range stages {
		if fns[s] = in.Global(fmt.Sprintf("__f%d", s)); !fns[s].IsCallable() {
			return nil, nil, fmt.Errorf("stage %d is not a function", s)
		}
	}
	return in, fns, nil
}

func (r *execRow) run(workers int) ([]value.Value, autopar.Outcome) {
	opts := autopar.Options{Workers: workers, Static: autopar.StaticAssist, Pipeline: true}
	if len(r.fns) > 1 {
		return autopar.PipelineSpec(r.in, r.fns, r.elems, opts)
	}
	return autopar.MapSpec(r.in, r.fns[0], r.elems, opts)
}

// wReps is how often a round repeats each row at W workers; the row's
// wall for the round is the median, so one collection or stolen CPU
// during a 20 ms call does not set it.
const wReps = 3

// round runs every row once at 1 worker and wReps times at W workers.
// An operation is one such call; a row's latency is its median wall at
// W workers, and the round's throughput is the geometric mean over rows
// of elements per second at W workers.
func (e *execInst) round(tr *tracer) roundResult {
	n := len(e.rows)
	e.oc1, e.ocN = make([]autopar.Outcome, n), make([]autopar.Outcome, n)
	e.wall1, e.wallN = make([]time.Duration, n), make([]time.Duration, n)
	rr := roundResult{attempted: (1 + wReps) * n}
	var rates []float64
	start := time.Now()
	for k, r := range e.rows {
		req := int64(k)
		t0 := time.Now()
		if tr != nil {
			for _, fn := range r.fns {
				autopar.AnalyzeStatic(r.in, fn)
			}
			tr.add("analyze_static", req, t0, time.Now())
		}
		t1 := time.Now()
		out, oc := r.run(1)
		t2 := time.Now()
		tr.add("spec_w1", req, t1, t2)
		e.oc1[k], e.wall1[k] = oc, t2.Sub(t1)
		r.got = append(r.got, out)
		misspeculated := oc.Misspeculated
		walls := make([]time.Duration, wReps)
		for i := range walls {
			t3 := time.Now()
			out, oc = r.run(e.cfg.w)
			walls[i] = time.Since(t3)
			tr.add("spec_wN", req, t3, t3.Add(walls[i]))
			r.got = append(r.got, out)
			misspeculated = misspeculated || oc.Misspeculated
		}
		tr.add("kernel", req, t0, time.Now())
		if misspeculated {
			rr.failed++
		}
		sortDurations(walls)
		e.ocN[k], e.wallN[k] = oc, walls[wReps/2]
		rr.lat = append(rr.lat, e.wallN[k])
		rates = append(rates, float64(len(r.elems))/e.wallN[k].Seconds())
		rr.ops += (1 + wReps) * float64(len(r.elems))
	}
	rr.wall = time.Since(start)
	rr.opsPerS = geomean(rates)
	return rr
}

// sequential evaluates the row's elemental composition element by
// element on one fresh interpreter: the oracle, and the js layer's
// single-interpreter cost.
func (r *execRow) sequential(seed uint64) ([]value.Value, time.Duration, error) {
	in, fns, err := loadKernel(r.prelude, r.stages, seed)
	if err != nil {
		return nil, 0, err
	}
	out := make([]value.Value, len(r.elems))
	t0 := time.Now()
	for i, x := range r.elems {
		for _, fn := range fns {
			if x, err = in.CallFunction(fn, value.Undefined(), []value.Value{x, value.Int(i)}); err != nil {
				return nil, 0, err
			}
		}
		out[i] = x
	}
	return out, time.Since(t0), nil
}

// verify compares every output of every round with the sequential
// evaluation; a differing output is a failed operation.
func (e *execInst) verify() (int, error) {
	failed := 0
	var firstErr error
	for _, r := range e.rows {
		if r.want == nil {
			var err error
			if r.want, _, err = r.sequential(e.cfg.seed); err != nil {
				return failed, fmt.Errorf("kernel %s: sequential evaluation: %w", r.name, err)
			}
		}
		for _, got := range r.got {
			if !sameValues(got, r.want) {
				failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("kernel %s: output differs from sequential evaluation", r.name)
				}
			}
		}
		r.got = nil
	}
	return failed, firstErr
}

func sameValues(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.SameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// layers times what the traced round cannot show from outside: the
// single-interpreter baseline per kernel, the unspeculated parallel map,
// and the chained-map alternative to the pipeline.
func (e *execInst) layers(m measured, spans []span, traced roundResult) {
	w := e.cfg.w
	var rate1, rateN, effAuto, effPar, overhead []float64
	var elems, seqElems, profiled, chunks, steals, parallelRows, elided, aborts, misspec float64
	var mallocs uint64
	for k, r := range e.rows {
		n := float64(len(r.elems))
		rate1 = append(rate1, n/e.wall1[k].Seconds())
		rateN = append(rateN, n/e.wallN[k].Seconds())
		m.set("autopar.wN_ms."+r.name, ms(e.wallN[k]))
		effAuto = append(effAuto, e.wall1[k].Seconds()/(float64(w)*e.wallN[k].Seconds()))
		oc := e.ocN[k]
		elems, profiled = elems+n, profiled+float64(oc.Profiled)
		chunks, steals = chunks+float64(oc.Chunks), steals+float64(oc.Steals)
		if oc.Parallel || w == 1 {
			parallelRows++
		}
		if oc.GuardElided {
			elided++
		}
		if oc.AbortReason != "" {
			aborts++
		}
		if oc.Misspeculated {
			misspec++
		}
		if len(r.fns) > 1 {
			m.set("taskgraph.pipe_elems_per_s", n/e.wallN[k].Seconds())
			m.set("taskgraph.pipe_batches", float64(oc.Pipe.Batches))
			stalls := 0
			for _, s := range oc.Pipe.Stalls {
				stalls += s
			}
			m.set("taskgraph.pipe_stalls", float64(stalls))
			t0 := time.Now()
			out := r.elems
			for _, fn := range r.fns {
				out, _ = autopar.MapSpec(r.in, fn, out, autopar.Options{Workers: w, Static: autopar.StaticAssist})
			}
			m.set("taskgraph.pipe_vs_chain", ratio(e.wallN[k].Seconds(), time.Since(t0).Seconds()))
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, seq, err := r.sequential(e.cfg.seed)
		runtime.ReadMemStats(&after)
		if err != nil {
			continue
		}
		mallocs, seqElems = mallocs+after.Mallocs-before.Mallocs, seqElems+n
		m.set("js.w1_ns_per_elem."+r.name, float64(seq.Nanoseconds())/n)
		kern := &parallel.Kernel{Source: r.prelude + "\nvar __elemental = " + r.stages[0] +
			";\nfunction kernel(i) { return __elemental(__x[i], i); }\n",
			Setup: func(in *interp.Interp) error {
				in.SetGlobal("__x", value.ObjectVal(in.NewArray(r.elems...)))
				return nil
			}, Seed: e.cfg.seed}
		t0 := time.Now()
		_, err1 := kern.MapParallel(len(r.elems), 1)
		t1 := time.Now()
		_, errN := kern.MapParallel(len(r.elems), w)
		t2 := time.Now()
		if err1 == nil && errN == nil {
			effPar = append(effPar, t1.Sub(t0).Seconds()/(float64(w)*t2.Sub(t1).Seconds()))
			overhead = append(overhead, e.wallN[k].Seconds()/t2.Sub(t1).Seconds())
		}
	}
	m.set("exec.w1_elems_per_s", geomean(rate1))
	m.set("exec.wN_elems_per_s", geomean(rateN))
	m.set("js.allocs_per_elem", ratio(float64(mallocs), seqElems))
	m.set("parallel.efficiency", geomean(effPar))
	m.set("autopar.efficiency", geomean(effAuto))
	m.set("autopar.spec_overhead_ratio", geomean(overhead))
	m.set("autopar.profiled_share", ratio(profiled, elems))
	m.set("autopar.parallel_kernels", parallelRows)
	m.set("autopar.guard_elided", elided)
	m.set("autopar.aborts", aborts)
	m.set("autopar.misspeculated", misspec)
	m.set("sched.chunks", chunks)
	m.set("sched.steals", steals)
}

func (e *execInst) close() {}

// effectsProbe times the purity prover on every kernel and stage and
// counts the Proven verdicts.
func effectsProbe(seed uint64, m measured) error {
	var times []float64
	proven := 0
	for _, ks := range kernelSources() {
		in, fns, err := loadKernel(ks.prelude, ks.stages, seed)
		if err != nil {
			return err
		}
		for _, fn := range fns {
			t0 := time.Now()
			rep := autopar.AnalyzeStatic(in, fn)
			times = append(times, us(time.Since(t0)))
			if rep.Verdict == effects.Proven {
				proven++
			}
		}
	}
	m.set("effects.analyze_us", median(times))
	m.set("effects.proven", float64(proven))
	return nil
}
