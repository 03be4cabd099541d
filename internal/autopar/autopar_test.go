package autopar

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/effects"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// load runs src and returns the interpreter plus the global function f.
func load(t *testing.T, src string) (*interp.Interp, value.Value) {
	t.Helper()
	in := interp.New()
	if err := in.Run(parser.MustParse(src)); err != nil {
		t.Fatalf("load: %v", err)
	}
	fn := in.Global("f")
	if !fn.IsCallable() {
		t.Fatal("source does not define f")
	}
	return in, fn
}

func ints(n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.Int(i + 1)
	}
	return out
}

func nums(vs []value.Value) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v.ToNumber()
	}
	return out
}

func TestMapSpecPureKernelRunsParallel(t *testing.T) {
	in, fn := load(t, `function f(x, i) { return x * x + i; }`)
	elems := ints(64)

	seq, seqOC := MapSpec(in, fn, elems, Options{Workers: 1})
	if seqOC.Workers != 1 || seqOC.Parallel {
		t.Fatalf("sequential run reported %+v", seqOC)
	}

	par, oc := MapSpec(in, fn, elems, Options{Workers: 4, Verify: true})
	if !oc.Pure || !oc.Parallel || oc.AbortReason != "" {
		t.Fatalf("pure kernel did not speculate: %+v", oc)
	}
	if oc.Workers < 2 {
		t.Fatalf("expected >= 2 workers, got %d", oc.Workers)
	}
	if oc.Profiled == 0 || oc.Dispatched == 0 || oc.Profiled+oc.Dispatched != len(elems) {
		t.Fatalf("profile/dispatch split wrong: %+v", oc)
	}
	if oc.Misspeculated {
		t.Fatalf("pure kernel misspeculated: %+v", oc)
	}
	for i := range seq {
		if !value.StrictEquals(seq[i], par[i]) {
			t.Fatalf("parallel result diverged at %d: %v vs %v", i, par[i].Inspect(), seq[i].Inspect())
		}
	}
}

func TestMapSpecImpureKernelAbortsInProfile(t *testing.T) {
	in, fn := load(t, `var sum = 0; function f(x, i) { sum = sum + x; return x; }`)
	elems := ints(32)
	_, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Pure || oc.Parallel {
		t.Fatalf("impure kernel speculated: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "sum") {
		t.Errorf("abort reason %q does not name the variable", oc.AbortReason)
	}
	// The fallback still runs the full sequential semantics.
	if got := in.Global("sum").Num(); got != 32*33/2 {
		t.Errorf("fallback sum = %v, want %v", got, 32*33/2)
	}
}

// The profile slice can miss impurity that only manifests on later
// elements; the worker-side guard must catch it and the fallback must
// re-establish exact sequential semantics.
func TestMapSpecLateImpurityCaughtOnWorker(t *testing.T) {
	const src = `
var sum = 0;
function f(x, i) {
  if (i >= 20) { sum = sum + x; }
  return x * 2;
}`
	in, fn := load(t, src)
	elems := ints(64)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Pure {
		t.Fatalf("late impurity not detected: %+v", oc)
	}
	if oc.Parallel {
		t.Fatalf("plan not aborted: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "speculation aborted on worker") || !strings.Contains(oc.AbortReason, "sum") {
		t.Errorf("abort reason %q should name the worker-side violation", oc.AbortReason)
	}
	// Results match the sequential semantics...
	for i, v := range out {
		if v.ToNumber() != float64((i+1)*2) {
			t.Fatalf("out[%d] = %v", i, v.Inspect())
		}
	}
	// ... and the side effect applied exactly once per element >= 20.
	want := 0.0
	for i := 20; i < 64; i++ {
		want += float64(i + 1)
	}
	if got := in.Global("sum").Num(); got != want {
		t.Errorf("sum = %v, want %v (side effects must apply once each)", got, want)
	}
}

func TestMapSpecCapturedHelpersAndConstants(t *testing.T) {
	const src = `
var BIAS = 7;
var table = [3, 1, 4, 1, 5];
function helper(v) { return v * BIAS + table[v % 5]; }
function f(x, i) { return helper(x) + i; }`
	in, fn := load(t, src)
	elems := ints(48)
	seq, _ := MapSpec(in, fn, elems, Options{Workers: 1})
	par, oc := MapSpec(in, fn, elems, Options{Workers: 3, Verify: true})
	if !oc.Parallel || oc.Misspeculated {
		t.Fatalf("captured-helper kernel did not speculate cleanly: %+v", oc)
	}
	for i := range seq {
		if !value.StrictEquals(seq[i], par[i]) {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestMapSpecObjectCaptureAborts(t *testing.T) {
	in, fn := load(t, `var cfg = {k: 2}; function f(x, i) { return x * cfg.k; }`)
	elems := ints(32)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatal("object capture must not cross workers")
	}
	if !strings.Contains(oc.AbortReason, "cfg") {
		t.Errorf("abort reason %q should name the capture", oc.AbortReason)
	}
	// Reads of external objects are pure; sequential fallback computes.
	if !oc.Pure {
		t.Errorf("read-only object capture misreported as impure: %+v", oc)
	}
	for i, v := range out {
		if v.ToNumber() != float64((i+1)*2) {
			t.Fatalf("out[%d] = %v", i, v.Inspect())
		}
	}
}

func TestMapSpecObjectElementsAbort(t *testing.T) {
	in, fn := load(t, `function f(x, i) { return x.v; }`)
	elems := make([]value.Value, 16)
	for i := range elems {
		o := in.NewObject()
		o.Set("v", value.Int(i))
		elems[i] = value.ObjectVal(o)
	}
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatal("object elements must not cross workers")
	}
	if !strings.Contains(oc.AbortReason, "cannot cross share-nothing workers") {
		t.Errorf("abort reason %q", oc.AbortReason)
	}
	for i, v := range out {
		if v.ToNumber() != float64(i) {
			t.Fatalf("out[%d] = %v", i, v.Inspect())
		}
	}
}

func TestMapSpecObjectResultAborts(t *testing.T) {
	in, fn := load(t, `function f(x, i) { return {v: x}; }`)
	elems := ints(32)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatal("object results must not cross workers")
	}
	if !strings.Contains(oc.AbortReason, "cannot cross share-nothing workers") {
		t.Errorf("abort reason %q", oc.AbortReason)
	}
	for i, v := range out {
		if !v.IsObject() || v.Object().GetNumber("v") != float64(i+1) {
			t.Fatalf("out[%d] = %v", i, v.Inspect())
		}
	}
}

// A kernel reading Math.random, the clock or the console would silently
// diverge across worker interpreters; the plan must refuse to dispatch
// it, naming the same detail the static prover reports. Deterministic
// Math and a kernel-local shadow of Date still dispatch.
func TestMapSpecNondeterministicKernelAborts(t *testing.T) {
	cases := []struct {
		name, src string
		refused   bool
	}{
		{"Math.random", `function f(x, i) { return x + Math.floor(Math.random() * 1000); }`, true},
		{"computed Math[\"random\"]", `function f(x, i) { return x + Math["random"]() * 0; }`, true},
		{"computed Math[k]", `var k = "floor"; function f(x, i) { return Math[k](x); }`, true},
		{"Math alias", `function f(x, i) { var m = Math; return x + m.random() * 0; }`, true},
		{"performance.now", `function f(x, i) { return x + performance.now() * 0; }`, true},
		{"Date.now", `function f(x, i) { return x + Date.now() * 0; }`, true},
		{"console.log", `function f(x, i) { console.log(x); return x; }`, true},
		{"local Date shadow", `function f(x, i) { if (x > 0) { var Date = 10; return x + Date; } return x; }`, false},
		{"deterministic Math", `function f(x, i) { return Math.floor(Math.sqrt(x)); }`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in, fn := load(t, c.src)
			_, oc := MapSpec(in, fn, ints(64), Options{Workers: 4, Verify: true})
			if !c.refused {
				if !oc.Parallel || oc.Misspeculated {
					t.Fatalf("deterministic kernel did not dispatch cleanly: %+v", oc)
				}
				return
			}
			lit := fn.Object().Fn.Decl.(*ast.FuncLit)
			reason := effects.Nondeterminism(lit)
			if reason == "" {
				t.Fatal("effects.Nondeterminism found nothing")
			}
			if oc.Parallel || !strings.Contains(oc.AbortReason, reason) {
				t.Fatalf("abort reason %q (parallel %v), want one containing %q", oc.AbortReason, oc.Parallel, reason)
			}
			rep := effects.AnalyzeFunc(lit, nil)
			found := false
			for _, r := range rep.Reasons {
				found = found || r.Detail == reason
			}
			if !found {
				t.Errorf("prover reasons %+v lack the capture plan's %q", rep.Reasons, reason)
			}
		})
	}
}

// An implicit global (`leak = i`) first created beyond the profile
// slice would materialize only in a discarded worker interpreter; the
// worker guard must abort so the side effect lands on the main
// interpreter via the sequential fallback.
func TestMapSpecLateImplicitGlobalCaughtOnWorker(t *testing.T) {
	in, fn := load(t, `function f(x, i) { if (i > 50) { leak = i; } return x; }`)
	elems := ints(64)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatalf("implicit-global kernel dispatched cleanly: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "implicit global leak") {
		t.Errorf("abort reason %q should name the implicit global", oc.AbortReason)
	}
	if got := in.Global("leak").Num(); got != 63 {
		t.Fatalf("leak = %v on main interpreter, want 63 (sequential side effect)", got)
	}
	for i, v := range out {
		if v.ToNumber() != float64(i+1) {
			t.Fatalf("out[%d] = %v", i, v.Inspect())
		}
	}
}

// Expando properties on functions are not part of a function's source
// text, so a kernel (or helper) carrying them must not be serialized.
func TestMapSpecFunctionPropertiesAbort(t *testing.T) {
	in, fn := load(t, `
function helper(v) { return v + (helper.bias ? helper.bias : 0); }
helper.bias = 10;
function f(x, i) { return helper(x); }`)
	elems := ints(64)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatalf("expando-carrying helper dispatched: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "properties") {
		t.Errorf("abort reason %q should name the properties", oc.AbortReason)
	}
	for i, v := range out {
		if v.ToNumber() != float64(i+1+10) {
			t.Fatalf("out[%d] = %v; sequential semantics must see helper.bias", i, v.Inspect())
		}
	}

	// Same shallowness on builtin members: Math.floor.k mutates shared
	// state a worker's fresh Math would not have.
	in2, fn2 := load(t, `
Math.floor.k = 1;
function f(x, i) { return Math.floor(x) + (Math.floor.k ? Math.floor.k : 0); }`)
	_, oc2 := MapSpec(in2, fn2, ints(64), Options{Workers: 4})
	if oc2.Parallel {
		t.Fatalf("mutated builtin member dispatched: %+v", oc2)
	}
}

// A dispatch clamped to one worker is not parallel execution, whatever
// the options asked for: five elements profile one, and the 4-element
// remainder dispatches as a single chunk.
func TestMapSpecSingleElementDispatchNotParallel(t *testing.T) {
	in, fn := load(t, `function f(x, i) { return x + 1; }`)
	elems := ints(5)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Profiled != 1 || oc.Dispatched != 4 || oc.Chunks != 1 {
		t.Fatalf("want 1 profiled, then 4 dispatched as one chunk: %+v", oc)
	}
	if oc.Parallel {
		t.Fatalf("1-chunk dispatch reported parallel: %+v", oc)
	}
	if oc.Workers >= 2 {
		t.Fatalf("workers = %d for a 1-chunk remainder", oc.Workers)
	}
	for i, v := range out {
		if v.ToNumber() != float64(i+2) {
			t.Fatalf("out[%d] = %v, want %d", i, v.Inspect(), i+2)
		}
	}
}

// Worker interpreters have private console buffers that are discarded;
// a logging kernel must run sequentially so no output is lost.
func TestMapSpecConsoleKernelAborts(t *testing.T) {
	in, fn := load(t, `function f(x, i) { console.log(i); return x + 1; }`)
	elems := ints(64)
	_, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatalf("console-logging kernel dispatched: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "console") {
		t.Errorf("abort reason %q should name the console", oc.AbortReason)
	}
	if got := len(in.Console()); got != 64 {
		t.Fatalf("console lines = %d, want 64 (sequential fallback must log every element)", got)
	}
}

// A property write on a builtin (Math.K = 3) leaves the binding intact
// but desyncs it from every worker's fresh copy; the pristine check
// must catch the mutation, not just rebinding.
func TestMapSpecMutatedBuiltinAborts(t *testing.T) {
	in, fn := load(t, `
Math.K = 3;
function f(x, i) { return x * Math.K; }`)
	elems := ints(64)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatalf("mutated-Math kernel dispatched: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "Math") {
		t.Errorf("abort reason %q should name the mutated global", oc.AbortReason)
	}
	for i, v := range out {
		if v.ToNumber() != float64((i+1)*3) {
			t.Fatalf("out[%d] = %v; sequential semantics must see Math.K", i, v.Inspect())
		}
	}
}

// A rebound ambient global (user-defined Math) must abort the plan:
// workers would resolve the builtin while the sequential path resolves
// the user's value.
func TestMapSpecShadowedAmbientAborts(t *testing.T) {
	in, fn := load(t, `
var Math = {half: true};
function f(x, i) { return Math.half ? x / 2 : x * 1000; }`)
	elems := ints(64)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatalf("shadowed-Math kernel dispatched: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "Math") {
		t.Errorf("abort reason %q should name the rebound global", oc.AbortReason)
	}
	for i, v := range out {
		if v.ToNumber() != float64(i+1)/2 {
			t.Fatalf("out[%d] = %v; sequential semantics must use the user's Math", i, v.Inspect())
		}
	}
}

// Captures colliding with the worker program's own globals — anything
// __-prefixed — must abort instead of silently reading engine state. A
// capture named kernel is plain data: the worker program defines no
// such name.
func TestMapSpecReservedNameCaptureAborts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		reserved bool
	}{{"__input", true}, {"kernel", false}} {
		name := tc.name
		in, fn := load(t, `
var `+name+` = [100, 200, 300];
function f(x, i) { return x + `+name+`[i % 3]; }`)
		elems := ints(64)
		out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
		if tc.reserved {
			if oc.Parallel {
				t.Fatalf("capture of %s dispatched: %+v", name, oc)
			}
			if want := "captures reserved name " + name + ";"; !strings.Contains(oc.AbortReason, want) {
				t.Errorf("abort reason %q should carry %q", oc.AbortReason, want)
			}
		} else if !oc.Parallel || oc.Workers != 4 || oc.AbortReason != "" {
			t.Fatalf("capture of %s did not dispatch on 4 workers: %+v", name, oc)
		}
		for i, v := range out {
			want := float64(i+1) + []float64{100, 200, 300}[i%3]
			if v.ToNumber() != want {
				t.Fatalf("%s: out[%d] = %v, want %v", name, i, v.Inspect(), want)
			}
		}
	}
}

// NaN results are bit-identical across interpreters; Verify must not
// flag them as misspeculation (SameValue semantics, not ===).
func TestMapSpecVerifyNaNResultsNotMisspeculation(t *testing.T) {
	in, fn := load(t, `function f(x, i) { return i === 10 ? 0 / 0 : x; }`)
	elems := ints(64)
	_, oc := MapSpec(in, fn, elems, Options{Workers: 4, Verify: true})
	if oc.Misspeculated {
		t.Fatalf("NaN result flagged as misspeculation: %+v", oc)
	}
	if !oc.Parallel {
		t.Fatalf("NaN-producing pure kernel did not stay parallel: %+v", oc)
	}
}

// A truthy non-boolean predicate result is canonicalized, not a
// misspeculation: workers cross booleans, and the Verify shadow must
// compare in the same domain. An object result is coerced on the worker
// before the crossability check, so it crosses as true.
func TestFilterSpecVerifyTruthyNonBooleanPredicate(t *testing.T) {
	for _, body := range []string{"x % 2", "x % 2 ? {} : null"} {
		in, fn := load(t, `function f(x, i) { return `+body+`; }`)
		elems := ints(60)
		seq, _ := FilterSpec(in, fn, elems, Options{Workers: 1})
		par, oc := FilterSpec(in, fn, elems, Options{Workers: 4, Verify: true})
		if oc.Misspeculated {
			t.Fatalf("%s: predicate flagged as misspeculation: %+v", body, oc)
		}
		if !oc.Parallel {
			t.Fatalf("%s: predicate did not speculate: %+v", body, oc)
		}
		for i := range seq {
			if seq[i] != par[i] || seq[i] != (i%2 == 0) {
				t.Fatalf("%s: keep[%d] = %v sequential, %v parallel", body, i, seq[i], par[i])
			}
		}
	}
}

// A plan abort must not blind the purity signal: the guarded fallback
// still detects writes that first manifest beyond the profile slice.
func TestMapSpecFallbackStillReportsImpurity(t *testing.T) {
	in, fn := load(t, `
var sum = 0;
var cfg = {k: 2};
function f(x, i) {
  if (i >= 20) { sum += x; }
  return x * cfg.k;
}`)
	elems := ints(64)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Parallel {
		t.Fatalf("capture-aborted kernel dispatched: %+v", oc)
	}
	if oc.Pure {
		t.Fatalf("late impurity missed on guarded fallback: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "cfg") || !strings.Contains(oc.AbortReason, "sum") {
		t.Errorf("abort reason %q should name both the capture and the late write", oc.AbortReason)
	}
	for i, v := range out {
		if v.ToNumber() != float64((i+1)*2) {
			t.Fatalf("out[%d] = %v", i, v.Inspect())
		}
	}
	want := 0.0
	for i := 20; i < 64; i++ {
		want += float64(i + 1)
	}
	if got := in.Global("sum").Num(); got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestFilterSpecParallelMatchesSequential(t *testing.T) {
	in, fn := load(t, `function f(x, i) { return x % 3 === 0; }`)
	elems := ints(60)
	seq, _ := FilterSpec(in, fn, elems, Options{Workers: 1})
	par, oc := FilterSpec(in, fn, elems, Options{Workers: 4, Verify: true})
	if !oc.Parallel || oc.Misspeculated {
		t.Fatalf("pure predicate did not speculate: %+v", oc)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("keep[%d] diverged", i)
		}
	}
}

func TestReduceSpecParallelSum(t *testing.T) {
	in, fn := load(t, `function f(a, b, i) { return a + b; }`)
	elems := ints(100)
	seq, _ := ReduceSpec(in, fn, elems, value.Undefined(), false, Options{Workers: 1})
	par, oc := ReduceSpec(in, fn, elems, value.Undefined(), false, Options{Workers: 4, Verify: true})
	if !oc.Parallel || oc.Misspeculated {
		t.Fatalf("associative reduce did not speculate: %+v", oc)
	}
	if !value.StrictEquals(seq, par) {
		t.Fatalf("reduce diverged: %v vs %v", par.Inspect(), seq.Inspect())
	}
	if seq.ToNumber() != 100*101/2 {
		t.Fatalf("sum = %v", seq.Inspect())
	}

	withInit, oc2 := ReduceSpec(in, fn, elems, value.Int(1000), true, Options{Workers: 4, Verify: true})
	if !oc2.Parallel {
		t.Fatalf("seeded reduce did not speculate: %+v", oc2)
	}
	if withInit.ToNumber() != 1000+100*101/2 {
		t.Fatalf("seeded sum = %v", withInit.Inspect())
	}

	if v, _ := ReduceSpec(in, fn, nil, value.Undefined(), false, Options{Workers: 8}); !v.IsUndefined() {
		t.Errorf("reduce of no elements = %v, want undefined", v.Inspect())
	}
	if v, _ := ReduceSpec(in, fn, elems[:1], value.Undefined(), false, Options{Workers: 8}); v.ToNumber() != 1 {
		t.Errorf("reduce of one element = %v, want 1", v.Inspect())
	}
}

// A non-associative combiner makes the chunked fold diverge; Verify must
// catch the misspeculation and return the sequential fold.
func TestReduceSpecNonAssociativeMisspeculates(t *testing.T) {
	in, fn := load(t, `function f(a, b, i) { return a - b; }`)
	elems := ints(64)
	got, oc := ReduceSpec(in, fn, elems, value.Undefined(), false, Options{Workers: 4, Verify: true})
	if !oc.Misspeculated {
		t.Fatalf("non-associative reduce not flagged: %+v", oc)
	}
	if oc.Parallel {
		t.Fatal("misspeculated run must not report parallel")
	}
	if !strings.Contains(oc.AbortReason, "misspeculation") {
		t.Errorf("abort reason %q", oc.AbortReason)
	}
	want := 1.0
	for i := 2; i <= 64; i++ {
		want -= float64(i)
	}
	if got.ToNumber() != want {
		t.Fatalf("misspeculation fallback = %v, want %v", got.ToNumber(), want)
	}
}

// TestReduceSpecBracketingFixedAcrossWorkerCounts: with a deliberately
// non-associative combiner the chunked fold cannot match the sequential
// left fold — but, with Verify off, it must match *itself* at every
// worker count, because the chunk plan (and so the merge bracketing) is
// a pure function of the remainder size, never of the pool size or of
// steal timing.
func TestReduceSpecBracketingFixedAcrossWorkerCounts(t *testing.T) {
	in, fn := load(t, `function f(a, b, i) { return a * 0.999 + b; }`)
	elems := make([]value.Value, 512)
	for i := range elems {
		elems[i] = value.Number(float64(i) + 0.1)
	}
	var base value.Value
	for _, workers := range []int{2, 3, 4, 8} {
		v, oc := ReduceSpec(in, fn, elems, value.Undefined(), false, Options{Workers: workers})
		if !oc.Parallel {
			t.Fatalf("workers=%d: reduce did not run parallel: %+v", workers, oc)
		}
		if workers == 2 {
			base = v
		} else if !value.SameValue(base, v) {
			t.Errorf("workers=%d: %v != workers=2 %v (bracketing moved)", workers, v.Inspect(), base.Inspect())
		}
	}
}

// TestFoldSpecsSkewedMatchSequential: reduce and filter over a
// deliberately skewed elemental — indices below 256 spin ~100× longer
// than the rest, the shape of the imbalanced raytracer variant — agree
// exactly with the one-worker run at 1/2/4/8 workers under Verify, and
// never misspeculate: stealing moves chunks between workers, never
// values between slots or merge positions. (The values are integers, so
// the reduce is exactly associative.)
func TestFoldSpecsSkewedMatchSequential(t *testing.T) {
	const spin = `var spin = i < 256 ? 300 : 3;
  var acc = 0;
  for (var j = 0; j < spin; j++) { acc += (i * 31 + j * j) % 97; }`
	rows := []struct {
		op, src string
		run     func(in *interp.Interp, fn value.Value, opts Options) ([]value.Value, Outcome)
	}{
		{"reducePar", "function f(a, b, i) {\n  " + spin + "\n  return a + b + acc;\n}",
			func(in *interp.Interp, fn value.Value, opts Options) ([]value.Value, Outcome) {
				v, oc := ReduceSpec(in, fn, ints(1024), value.Undefined(), false, opts)
				return []value.Value{v}, oc
			}},
		{"filterPar", "function f(x, i) {\n  " + spin + "\n  return acc % 2 === 0;\n}",
			func(in *interp.Interp, fn value.Value, opts Options) ([]value.Value, Outcome) {
				keep, oc := FilterSpec(in, fn, ints(1024), opts)
				out := make([]value.Value, len(keep))
				for i, k := range keep {
					out[i] = value.Bool(k)
				}
				return out, oc
			}},
	}
	for _, row := range rows {
		t.Run(row.op, func(t *testing.T) {
			in, fn := load(t, row.src)
			var seq []value.Value
			for _, workers := range []int{1, 2, 4, 8} {
				got, oc := row.run(in, fn, Options{Workers: workers, Verify: true})
				if oc.Misspeculated || (workers >= 2 && !oc.Parallel) {
					t.Fatalf("workers=%d: did not speculate cleanly: %+v", workers, oc)
				}
				if workers == 1 {
					seq = got
				} else if d := sameValues(seq, got); d >= 0 {
					t.Errorf("workers=%d: element %d differs from workers=1", workers, d)
				}
			}
		})
	}
}

// An elemental that throws mid-operation must not leak an active guard:
// hooks are restored and later external writes are not flagged.
func TestGuardDeactivatesWhenElementalThrows(t *testing.T) {
	in, fn := load(t, `function f(x, i) { if (i === 3) { throw "boom"; } return x; }`)
	elems := ints(16)
	prev := in.HooksInstalled()

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("elemental throw did not propagate")
			}
		}()
		MapSpec(in, fn, elems, Options{Workers: 1})
	}()

	if !slices.Equal(in.HooksInstalled(), prev) {
		t.Fatal("guard leaked: hooks not restored after mid-operation throw")
	}
	// Unrelated later writes run outside any guard.
	if err := in.Run(parser.MustParse(`var later = 1; later = later + 1;`)); err != nil {
		t.Fatalf("post-throw execution failed: %v", err)
	}
	if got := in.Global("later").Num(); got != 2 {
		t.Fatalf("later = %v", got)
	}
}

// Same leak check on the speculative path: a worker-side throw falls
// back to the sequential remainder, which re-raises at the right index.
func TestWorkerThrowFallsBackAndRethrowsSequentially(t *testing.T) {
	in, fn := load(t, `function f(x, i) { if (i === 40) { throw "late"; } return x; }`)
	elems := ints(64)
	prev := in.HooksInstalled()

	threw := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				threw = true
			}
		}()
		MapSpec(in, fn, elems, Options{Workers: 4})
	}()
	if !threw {
		t.Fatal("late throw did not propagate through the fallback")
	}
	if !slices.Equal(in.HooksInstalled(), prev) {
		t.Fatal("guard leaked after speculative fallback throw")
	}
}

func TestFreeNames(t *testing.T) {
	prog := parser.MustParse(`
function f(a, b) {
  var local = a + glob1;
  function inner(c) { return c + local + glob2; }
  try { inner(b); } catch (e) { return e + glob3; }
  for (var k in lookup) { local += k; }
  return local;
}`)
	in := interp.New()
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	fnObj := in.Global("f").Object()
	names := effects.FreeNames(fnObj.Fn.Decl.(*ast.FuncLit))
	got := strings.Join(names, ",")
	for _, want := range []string{"glob1", "glob2", "glob3", "lookup"} {
		if !strings.Contains(got, want) {
			t.Errorf("free names %q missing %q", got, want)
		}
	}
	for _, bound := range []string{"a", "b", "c", "e", "local", "inner", "k"} {
		for _, n := range names {
			if n == bound {
				t.Errorf("bound name %q reported free", bound)
			}
		}
	}
}

// TestGuardAbortMidSteal is the work-stealing regression: per-element
// cost is concentrated in the head (so idle workers steal tail chunks)
// while an impurity manifests only deep in that stolen tail. The stolen
// chunk's guard must trip, cancellation must win over further stealing,
// and the fallback must deliver exact sequential semantics — values and
// the side effect landing on the main interpreter.
func TestGuardAbortMidSteal(t *testing.T) {
	const src = `
var poison = 0;
function f(x, i) {
  var spin = i < 64 ? 300 : 3;
  var acc = 0;
  for (var j = 0; j < spin; j++) { acc += (x * 31 + j) % 7; }
  if (i > 200) { poison = poison + 1; }
  return x * 2 + (acc - acc);
}`
	in, fn := load(t, src)
	elems := ints(256)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4})
	if oc.Pure {
		t.Errorf("late impurity not observed: %+v", oc)
	}
	if oc.Parallel || oc.Workers != 1 {
		t.Errorf("aborted plan still reports parallel execution: %+v", oc)
	}
	if !strings.Contains(oc.AbortReason, "poison") {
		t.Errorf("abort reason %q does not name the poisoned variable", oc.AbortReason)
	}
	if oc.Chunks < 2 {
		t.Errorf("skewed dispatch produced no plan to steal from: %+v", oc)
	}
	// Exact sequential semantics after the abort: every value, and the
	// write count of the impure tail, land as a sequential run would.
	for i, v := range out {
		if want := float64(2 * (i + 1)); v.ToNumber() != want {
			t.Fatalf("out[%d] = %v, want %v", i, v.ToNumber(), want)
		}
	}
	if got := in.Global("poison").Num(); got != 55 {
		t.Errorf("poison = %v, want 55 (one write per i in (200, 256))", got)
	}
}

// Regression: a kernel-local variable shadowing a nondeterministic
// global — even when declared inside a nested block, where the parser
// hoists it to function scope — is plain data, not the global. The old
// walk flagged any identifier named Date/console/Math and forced a
// needless sequential fallback; the free-use-aware walk must dispatch.
func TestMapSpecShadowedNondetNamesDispatch(t *testing.T) {
	cases := []struct{ name, src string }{
		{"nested-block var Date", `function f(x, i) {
			if (x > 0) { var Date = 10; return x + Date; }
			return x;
		}`},
		{"nested-block var console", `function f(x, i) {
			for (var j = 0; j < 1; j++) { var console = x * 2; x = console; }
			return x;
		}`},
		{"local Math shadow", `function f(x, i) {
			var Math = 3;
			return x * Math;
		}`},
		{"catch name performance", `function f(x, i) {
			try { return x + 1; } catch (performance) { return 0; }
		}`},
	}
	for _, c := range cases {
		in, fn := load(t, c.src)
		elems := ints(64)
		out, oc := MapSpec(in, fn, elems, Options{Workers: 4, Verify: true})
		if !oc.Parallel || oc.Misspeculated {
			t.Errorf("%s: did not dispatch cleanly: %+v", c.name, oc)
			continue
		}
		if len(out) != len(elems) {
			t.Errorf("%s: out len = %d, want %d", c.name, len(out), len(elems))
		}
	}
}
