package autopar

import (
	"strings"
	"testing"
	"time"

	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
	"repro/internal/leakcheck"
	"repro/internal/sched"
)

// loadStages runs src and returns the interpreter plus the named global
// functions.
func loadStages(t *testing.T, src string, names ...string) (*interp.Interp, []value.Value) {
	t.Helper()
	in := interp.New()
	if err := in.Run(parser.MustParse(src)); err != nil {
		t.Fatalf("load: %v", err)
	}
	fns := make([]value.Value, len(names))
	for i, name := range names {
		fns[i] = in.Global(name)
		if !fns[i].IsCallable() {
			t.Fatalf("source does not define %s", name)
		}
	}
	return in, fns
}

// pipeSequential is the reference semantics: the fused composition on a
// fresh interpreter loaded from the same source.
func pipeSequential(t *testing.T, src string, elems []value.Value, names ...string) []value.Value {
	t.Helper()
	in, fns := loadStages(t, src, names...)
	out := make([]value.Value, len(elems))
	for i := range elems {
		v := elems[i]
		for _, fn := range fns {
			v = call(in, fn, v, value.Int(i))
		}
		out[i] = v
	}
	return out
}

func sameValues(a, b []value.Value) int {
	for i := range a {
		if !value.SameValue(a[i], b[i]) {
			return i
		}
	}
	return -1
}

const pureStages = `
function fa(x, i) { return x * 2 + i; }
function fb(x, i) { return x * x - 1; }
function fc(x, i) { return x % 97; }
`

func TestPipelineSpecPureStagesStream(t *testing.T) {
	elems := ints(512)
	want := pipeSequential(t, pureStages, elems, "fa", "fb", "fc")

	in, fns := loadStages(t, pureStages, "fa", "fb", "fc")
	out, oc := PipelineSpec(in, fns, elems, Options{Workers: 4})
	if !oc.Pure || !oc.Parallel || oc.AbortReason != "" {
		t.Fatalf("pure pipeline did not stream: %+v", oc)
	}
	if at := sameValues(want, out); at >= 0 {
		t.Fatalf("out[%d] = %v, want %v", at, out[at], want[at])
	}
	if oc.Pipe.Stages != 3 || oc.Pipe.Batches != oc.Chunks || oc.Chunks <= 1 || oc.Workers < 2 || oc.Workers > 4 {
		t.Fatalf("pipe telemetry wrong: %+v in %+v", oc.Pipe, oc)
	}
	if oc.Profiled+oc.Dispatched != len(elems) {
		t.Fatalf("profile/dispatch split wrong: %+v", oc)
	}
}

// Output is identical at every worker count; the batch count is the
// chunk-plan length, a function of the dispatched length alone.
func TestPipelineSpecByteIdenticalAcrossWorkerLadder(t *testing.T) {
	elems := ints(300)
	want := pipeSequential(t, pureStages, elems, "fa", "fb")
	for _, workers := range []int{1, 2, 4, 8} {
		in, fns := loadStages(t, pureStages, "fa", "fb")
		opts := Options{Workers: workers}
		out, oc := PipelineSpec(in, fns, elems, opts)
		if at := sameValues(want, out); at >= 0 {
			t.Fatalf("workers=%d: out[%d] = %v, want %v (oc %+v)", workers, at, out[at], want[at], oc)
		}
		if workers == 1 {
			if oc.Parallel || oc.Dispatched != 0 {
				t.Fatalf("workers=1 must stay sequential: %+v", oc)
			}
			continue
		}
		if !oc.Parallel {
			t.Fatalf("workers=%d did not dispatch: %+v", workers, oc)
		}
		if plan := sched.Plan(oc.Dispatched, opts.schedOptions()); oc.Pipe.Batches != len(plan) {
			t.Fatalf("workers=%d: %d batches, want the %d-chunk plan", workers, oc.Pipe.Batches, len(plan))
		}
	}
}

// Stage-B impurity that only manifests mid-stream (beyond the profile
// slice) must cancel the pool without deadlock, fall back to exact
// sequential semantics, and leak no goroutines.
func TestPipelineMisspeculationMidStreamFallsBack(t *testing.T) {
	src := `
var leak = 0;
function fa(x, i) { return x + 1; }
function fb(x, i) { if (i >= 200) { leak = leak + 1; } return x * 3; }
`
	elems := ints(600)
	want := pipeSequential(t, src, elems, "fa", "fb")

	leakcheck.Check(t)
	in, fns := loadStages(t, src, "fa", "fb")
	done := make(chan struct{})
	var out []value.Value
	var oc Outcome
	go func() {
		defer close(done)
		out, oc = PipelineSpec(in, fns, elems, Options{Workers: 4})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("pipeline deadlocked on mid-stream misspeculation")
	}
	if oc.Pure || oc.Parallel {
		t.Fatalf("impure pipeline reported %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "stage 1") || !strings.Contains(oc.AbortReason, "leak") {
		t.Fatalf("abort reason does not name the stage-1 write: %q", oc.AbortReason)
	}
	if at := sameValues(want, out); at >= 0 {
		t.Fatalf("fallback diverged from sequential at %d: %v != %v", at, out[at], want[at])
	}
	// Exact sequential side effects: profile wrote nothing (< 200), the
	// fallback re-ran [base, n) once on the main interpreter.
	if got := in.Global("leak").ToNumber(); got != 400 {
		t.Fatalf("leak = %v after fallback, want 400 (one write per element >= 200)", got)
	}
}

// A stage-A JS throw beyond the profile slice must cancel the dispatch
// and re-raise on the main interpreter in exact element order.
func TestPipelineWorkerThrowFallsBackToSequentialThrow(t *testing.T) {
	src := `
var seen = 0;
function fa(x, i) { if (i >= 100) { throw "boom at " + i; } seen = seen + 0; return x; }
function fb(x, i) { return x + 1; }
`
	leakcheck.Check(t)
	in, fns := loadStages(t, src, "fa", "fb")
	elems := ints(400)
	// Route the call through SafeCall so the re-raised JS throw converts
	// to an error the same way any host boundary sees it.
	run := value.ObjectVal(value.NewNative("run",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			PipelineSpec(in, fns, elems, Options{Workers: 4})
			return value.Undefined(), nil
		}))
	_, err := in.SafeCall(run, value.Undefined(), nil)
	if err == nil {
		t.Fatal("expected the stage-A throw to propagate from the sequential fallback")
	}
	if !strings.Contains(err.Error(), "boom at 100") {
		t.Fatalf("throw = %q, want the first sequential element (boom at 100)", err)
	}
}

// The skewed variant: stage-0 cost is concentrated in the head (so idle
// workers claim the tail chunks) while stage 1 throws only deep in that
// tail. Whichever worker and chunk hit it first, the throw that
// surfaces is the sequential one — the lowest throwing index.
func TestPipelineStageThrowOnStolenChunkSurfacesSequentialThrow(t *testing.T) {
	src := `
function fa(x, i) {
  var spin = i < 64 ? 300 : 3;
  var acc = 0;
  for (var j = 0; j < spin; j++) { acc += (x * 31 + j) % 7; }
  return x + (acc - acc);
}
function fb(x, i) { if (i > 200) { throw "boom at " + i; } return x + 1; }
`
	in, fns := loadStages(t, src, "fa", "fb")
	elems := ints(256)
	run := value.ObjectVal(value.NewNative("run",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			PipelineSpec(in, fns, elems, Options{Workers: 4})
			return value.Undefined(), nil
		}))
	_, err := in.SafeCall(run, value.Undefined(), nil)
	if err == nil || !strings.Contains(err.Error(), "boom at 201") {
		t.Fatalf("throw = %v, want the first sequential element (boom at 201)", err)
	}
}

func TestPipelineSpecStaticElidesStageGuards(t *testing.T) {
	elems := ints(256)
	in, fns := loadStages(t, pureStages, "fa", "fb")
	out, oc := PipelineSpec(in, fns, elems, Options{Workers: 4, Static: StaticAssist})
	if !oc.GuardElided || oc.Profiled != 0 || !oc.Parallel {
		t.Fatalf("proven stages did not elide guards: %+v", oc)
	}
	if len(oc.StageStatic) != 2 || len(oc.StageElided) != 2 || !oc.StageElided[0] || !oc.StageElided[1] {
		t.Fatalf("per-stage verdicts missing: %+v %+v", oc.StageStatic, oc.StageElided)
	}
	want := pipeSequential(t, pureStages, elems, "fa", "fb")
	if at := sameValues(want, out); at >= 0 {
		t.Fatalf("elided run diverged at %d", at)
	}
}

func TestPipelineSpecStaticRefutedRefuses(t *testing.T) {
	src := `
var acc = 0;
function fa(x, i) { return x + 1; }
function fb(x, i) { acc = acc + x; return x; }
`
	elems := ints(64)
	in, fns := loadStages(t, src, "fa", "fb")
	out, oc := PipelineSpec(in, fns, elems, Options{
		Workers: 4, Static: StaticAssist,
	})
	if oc.Parallel || !strings.Contains(oc.AbortReason, "refused parallel plan: stage 1: static analysis refuted purity") {
		t.Fatalf("refuted stage did not refuse: %+v", oc)
	}
	if oc.Pure {
		t.Fatal("guarded sequential run must still flag the dynamic write")
	}
	want := pipeSequential(t, src, elems, "fa", "fb")
	if at := sameValues(want, out); at >= 0 {
		t.Fatalf("refused run diverged at %d", at)
	}
}

func TestPipelineSpecNonCrossableResultFallsBack(t *testing.T) {
	// Stage A returns an object mid-stream: it cannot cross into stage
	// B's interpreter, so the plan must fall back — and the
	// fallback composes the stages on one interpreter where the object
	// flows fine.
	src := `
function fa(x, i) { if (i >= 100) { return {v: x}; } return x; }
function fb(x, i) { return (typeof x === "object") ? x.v : x; }
`
	elems := ints(300)
	want := pipeSequential(t, src, elems, "fa", "fb")
	in, fns := loadStages(t, src, "fa", "fb")
	out, oc := PipelineSpec(in, fns, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatalf("non-crossable stream reported parallel: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "cannot cross share-nothing workers") {
		t.Fatalf("abort reason = %q", oc.AbortReason)
	}
	if at := sameValues(want, out); at >= 0 {
		t.Fatalf("fallback diverged at %d", at)
	}
	if !oc.Pure {
		t.Fatalf("crossability is not impurity: %+v", oc)
	}
}

// A dispatch honours the pool it was given: two workers, three stages
// report Workers == 2 and build at most 2×3 stage interpreters — and
// none in a slot that claimed no chunk (the one-chunk run clamps the
// pool to a single worker, so slot 1 must stay empty).
func TestPipelineBuildsStageInterpretersOnlyWhereChunksRan(t *testing.T) {
	elems := ints(512)
	in, fns := loadStages(t, pureStages, "fa", "fb", "fc")
	opts := Options{Workers: 2}
	if _, oc := PipelineSpec(in, fns, elems, opts); !oc.Parallel || oc.Workers != 2 || oc.Pipe.Workers != 2 {
		t.Fatalf("two-worker dispatch reported %d workers: %+v", oc.Workers, oc)
	}

	plans := make([]*plan, len(fns))
	for s, fn := range fns {
		pl, abort := newPlan(in, fn)
		if abort != "" {
			t.Fatal(abort)
		}
		plans[s] = pl
	}
	// oneChunk is the longest remainder the plan keeps in one chunk.
	oneChunk := 1
	for len(sched.Plan(oneChunk+1, opts.schedOptions())) == 1 {
		oneChunk++
	}
	for _, n := range []int{len(elems), oneChunk} {
		stats, pools := dispatchStages(plans, elems[:n], make([]value.Value, n), 0, identity, opts.schedOptions())
		if f := firstFault(pools...); f != nil {
			t.Fatalf("n=%d: %s", n, f.reason)
		}
		built := 0
		for s, pool := range pools {
			for w := range pool.slots {
				if pool.slots[w].in == nil {
					continue
				}
				built++
				if w >= len(stats.PerWorker) || stats.PerWorker[w] == 0 {
					t.Errorf("n=%d: stage %d built an interpreter in slot %d, which claimed no chunk", n, s, w)
				}
			}
		}
		if want := stats.Workers * len(fns); built > want || built < len(fns) {
			t.Errorf("n=%d: built %d stage interpreters on %d workers, want %d..%d", n, built, stats.Workers, len(fns), want)
		}
	}
}

// Every fault of a multi-stage dispatch — worker start-up and kernel
// lookup as much as the element loop — is reported under its stage; a
// single-stage operation has no stage to name.
func TestFirstFaultLabelsStage(t *testing.T) {
	pool := func(reason string) *workerPool {
		wp := newWorkerPool(nil, 2)
		if reason != "" {
			wp.slots[1].fault = &workerFault{reason: reason, impure: true}
		}
		return wp
	}
	if f := firstFault(pool(""), pool("worker 1 failed to start: boom")); f == nil || f.reason != "stage 1: worker 1 failed to start: boom" || !f.impure {
		t.Fatalf("two-stage fault = %+v", f)
	}
	if f := firstFault(pool("worker 1 failed to start: boom")); f == nil || f.reason != "worker 1 failed to start: boom" {
		t.Fatalf("one-stage fault = %+v", f)
	}
	if f := firstFault(pool(""), pool("")); f != nil {
		t.Fatalf("clean pools reported %+v", f)
	}
}
