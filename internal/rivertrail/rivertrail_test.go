package rivertrail

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/autopar"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
)

func run(t *testing.T, src string) (*autopar.State, *interp.Interp) {
	t.Helper()
	in := interp.New()
	st := autopar.Install(in)
	if err := in.Run(parser.MustParse(src)); err != nil {
		t.Fatalf("run: %v", err)
	}
	return st, in
}

func TestMapParPureKernel(t *testing.T) {
	st, in := run(t, `
var pa = ParallelArray([1, 2, 3, 4]);
var out = pa.mapPar(function (x) { return x * x; });
var r = out.toArray().join(",");
var rep = RiverTrailReport();
`)
	if got := in.Global("r").Str(); got != "1,4,9,16" {
		t.Errorf("result = %q", got)
	}
	if !st.Last().Pure {
		t.Errorf("pure kernel not parallel-eligible: %+v", st.Last())
	}
	rep := in.Global("rep").Object()
	if v, _ := rep.Get("pure"); !v.ToBool() {
		t.Errorf("JS-visible report not pure: %v", rep.SortedKeys())
	}
}

func TestMapParImpureKernelAborts(t *testing.T) {
	st, in := run(t, `
var sum = 0;
var pa = ParallelArray([1, 2, 3]);
var out = pa.mapPar(function (x) { sum += x; return x; });
var rep = RiverTrailReport();
`)
	last := st.Last()
	if last.Pure || last.Parallel {
		t.Fatal("impure kernel marked pure/parallel")
	}
	if !strings.Contains(last.AbortReason, "sum") {
		t.Errorf("abort reason %q does not name the variable (§5.3 requires actionable reports)", last.AbortReason)
	}
	// fallback still computes the sequential semantics
	if got := in.Global("sum").Num(); got != 6 {
		t.Errorf("fallback sum = %v, want 6", got)
	}
}

func TestMapParExternalObjectMutationAborts(t *testing.T) {
	st, _ := run(t, `
var stats = {count: 0};
var pa = ParallelArray([1, 2]);
pa.mapPar(function (x) { stats.count++; return x; });
`)
	last := st.Last()
	if last.Pure || last.Parallel {
		t.Fatal("object-mutating kernel marked pure/parallel")
	}
	if !strings.Contains(last.AbortReason, "count") {
		t.Errorf("abort reason %q does not name the property", last.AbortReason)
	}
}

func TestMapParLocalStateAllowed(t *testing.T) {
	st, in := run(t, `
var pa = ParallelArray([1, 2, 3]);
var out = pa.mapPar(function (x) {
  var acc = 0;             // local: fine
  var tmp = {v: x * 2};    // created inside the kernel: fine
  acc = tmp.v + 1;
  return acc;
});
var r = out.toArray().join(",");
`)
	if !st.Last().Pure {
		t.Errorf("kernel with local state aborted: %+v", st.Last())
	}
	if got := in.Global("r").Str(); got != "3,5,7" {
		t.Errorf("r = %q", got)
	}
}

func TestFilterPar(t *testing.T) {
	st, in := run(t, `
var pa = ParallelArray([1, 2, 3, 4, 5, 6]);
var even = pa.filterPar(function (x) { return x % 2 === 0; });
var r = even.toArray().join(",");
`)
	if got := in.Global("r").Str(); got != "2,4,6" {
		t.Errorf("r = %q", got)
	}
	if !st.Last().Pure {
		t.Errorf("pure filter aborted: %+v", st.Last())
	}
}

func TestReducePar(t *testing.T) {
	_, in := run(t, `
var pa = ParallelArray([1, 2, 3, 4]);
var total = pa.reducePar(function (a, b) { return a + b; });
var withInit = pa.reducePar(function (a, b) { return a + b; }, 100);
`)
	if got := in.Global("total").Num(); got != 10 {
		t.Errorf("total = %v", got)
	}
	if got := in.Global("withInit").Num(); got != 110 {
		t.Errorf("withInit = %v", got)
	}
}

func TestChainedOperations(t *testing.T) {
	st, in := run(t, `
var r = ParallelArray([1, 2, 3, 4, 5])
  .mapPar(function (x) { return x * 3; })
  .filterPar(function (x) { return x > 5; })
  .reducePar(function (a, b) { return a + b; }, 0);
`)
	if got := in.Global("r").Num(); got != 6+9+12+15 {
		t.Errorf("r = %v", got)
	}
	if !st.Last().Pure {
		t.Errorf("chain aborted: %+v", st.Last())
	}
}

func TestTypeError(t *testing.T) {
	in := interp.New()
	autopar.Install(in)
	err := in.Run(parser.MustParse(`ParallelArray(42);`))
	if err == nil || !strings.Contains(err.Error(), "array") {
		t.Errorf("err = %v", err)
	}
}

func TestKernelExceptionPropagates(t *testing.T) {
	in := interp.New()
	autopar.Install(in)
	err := in.Run(parser.MustParse(`
var caught = "";
try {
  ParallelArray([1]).mapPar(function (x) { throw "boom"; });
} catch (e) { caught = e; }
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Global("caught").Str(); got != "boom" {
		t.Errorf("caught = %q", got)
	}
}

func TestGuardRestoresPreviousHooks(t *testing.T) {
	in := interp.New()
	st := autopar.Install(in)
	marker := &countingHooks{}
	in.SetHooks(marker)
	if err := in.Run(parser.MustParse(`
var out = ParallelArray([1, 2]).mapPar(function (x) { return x + 1; });
`)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(in.HooksInstalled(), []any{marker}) {
		t.Error("previous hooks not restored after guarded run")
	}
	if !st.Last().Pure {
		t.Errorf("unexpected abort: %+v", st.Last())
	}
	if marker.calls == 0 {
		t.Error("previous hooks were not chained during the guarded run")
	}
}

type countingHooks struct{ calls int }

func (c *countingHooks) CallEnter(string) { c.calls++ }

// ---- regressions: value semantics, empty reduce, speculation ----

// Wrapping must copy the backing elements: mutating the source array
// afterwards used to desync length from get/mapPar.
func TestWrapCopiesBackingArray(t *testing.T) {
	_, in := run(t, `
var arr = [1, 2, 3];
var pa = ParallelArray(arr);
arr.push(99);
arr[0] = -1;
var len = pa.length;
var first = pa.get(0);
var r = pa.mapPar(function (x) { return x * 10; }).toArray().join(",");
var tail = pa.get(3);
`)
	if got := in.Global("len").Num(); got != 3 {
		t.Errorf("length = %v, want 3 (snapshot at wrap)", got)
	}
	if got := in.Global("first").Num(); got != 1 {
		t.Errorf("get(0) = %v, want 1 (value semantics)", got)
	}
	if got := in.Global("r").Str(); got != "10,20,30" {
		t.Errorf("mapPar over snapshot = %q", got)
	}
	if !in.Global("tail").IsUndefined() {
		t.Errorf("get(3) = %v, want undefined", in.Global("tail").Inspect())
	}
}

// reducePar on an empty ParallelArray must throw a TypeError without an
// initial value (like Array.prototype.reduce) and return the seed with
// one.
func TestReduceParEmpty(t *testing.T) {
	_, in := run(t, `
var pa = ParallelArray([]);
var seeded = pa.reducePar(function (a, b) { return a + b; }, 42);
var caught = "";
try {
  pa.reducePar(function (a, b) { return a + b; });
} catch (e) { caught = e.name; }
`)
	if got := in.Global("seeded").Num(); got != 42 {
		t.Errorf("seeded empty reduce = %v, want 42", got)
	}
	if got := in.Global("caught").Str(); got != "TypeError" {
		t.Errorf("empty reduce with no init threw %q, want TypeError", got)
	}
}

// With Workers >= 2 the speculative engine must actually dispatch a pure
// kernel across >= 2 workers, byte-identical to the sequential run.
func TestMapParSpeculatesAcrossWorkers(t *testing.T) {
	src := `
var out = ParallelArray(input).mapPar(function (x, i) { return x * x + i; });
var r = out.toArray().join(",");
`
	results := map[int]string{}
	var reports = map[int]autopar.Outcome{}
	for _, workers := range []int{1, 2, 4} {
		in := interp.New()
		st := autopar.Install(in)
		st.SetOptions(autopar.Options{Workers: workers})
		elems := `var input = [`
		for i := 0; i < 64; i++ {
			if i > 0 {
				elems += ","
			}
			elems += "0"
		}
		elems += `];for (var i = 0; i < 64; i++) { input[i] = i + 1; }`
		if err := in.Run(parser.MustParse(elems + src)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results[workers] = in.Global("r").Str()
		reports[workers] = st.Last()
	}
	for _, workers := range []int{2, 4} {
		if results[workers] != results[1] {
			t.Errorf("workers=%d output %q diverges from sequential %q", workers, results[workers], results[1])
		}
		rep := reports[workers]
		if !rep.Parallel || rep.Workers < 2 {
			t.Errorf("workers=%d: report %+v did not execute in parallel", workers, rep)
		}
		if rep.Dispatched == 0 || rep.Profiled == 0 {
			t.Errorf("workers=%d: report %+v missing profile/dispatch split", workers, rep)
		}
	}
	if rep := reports[1]; rep.Workers != 1 || rep.Dispatched != 0 || rep.Parallel {
		t.Errorf("sequential report %+v", rep)
	}
}

// An impure kernel on a worker pool must fall back sequentially with a
// populated abort reason and exact sequential side effects.
func TestMapParImpureFallsBackWithWorkers(t *testing.T) {
	in := interp.New()
	st := autopar.Install(in)
	st.SetOptions(autopar.Options{Workers: 4})
	if err := in.Run(parser.MustParse(`
var sum = 0;
var input = [];
for (var i = 0; i < 64; i++) { input.push(i + 1); }
var out = ParallelArray(input).mapPar(function (x) { sum += x; return x; });
`)); err != nil {
		t.Fatal(err)
	}
	rep := st.Last()
	if rep.Parallel {
		t.Fatalf("impure kernel reported parallel: %+v", rep)
	}
	if rep.AbortReason == "" || !strings.Contains(rep.AbortReason, "sum") {
		t.Errorf("abort reason %q must name the violation", rep.AbortReason)
	}
	if got := in.Global("sum").Num(); got != 64*65/2 {
		t.Errorf("fallback sum = %v, want %v", got, 64*65/2)
	}
}

// A kernel that throws mid-operation must not leak an active guard, even
// with speculation enabled; later operations still work and report.
func TestGuardUnwindsOnThrowThenNextOpWorks(t *testing.T) {
	in := interp.New()
	st := autopar.Install(in)
	st.SetOptions(autopar.Options{Workers: 4})
	if err := in.Run(parser.MustParse(`
var input = [];
for (var i = 0; i < 64; i++) { input.push(i); }
var caught = "";
try {
  ParallelArray(input).mapPar(function (x, i) { if (i === 50) { throw "late"; } return x; });
} catch (e) { caught = e; }
var unrelated = 0;
unrelated = unrelated + 1;
var r = ParallelArray([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
  .reducePar(function (a, b) { return a + b; }, 0);
`)); err != nil {
		t.Fatal(err)
	}
	if got := in.Global("caught").Str(); got != "late" {
		t.Errorf("caught = %q", got)
	}
	if got := in.Global("r").Num(); got != 78 {
		t.Errorf("post-throw reduce = %v, want 78", got)
	}
	if len(in.HooksInstalled()) != 0 {
		t.Error("guard leaked into interpreter hooks")
	}
	if rep := st.Last(); rep.Op != "reducePar" {
		t.Errorf("report not updated after recovery: %+v", rep)
	}
}

// RiverTrailReport's static fields: empty when the prover never ran,
// the single elemental's verdict and reasons otherwise, and for a
// multi-stage pipePar one verdict per stage beside the zero report's
// "unknown".
func TestRiverTrailReportStaticFields(t *testing.T) {
	const src = `
var input = [];
for (var i = 0; i < 64; i++) { input.push(i); }
var g = 0;
function sq(x, i) { return x * x; }
function inc(x, i) { return x + 1; }
function leak(x, i) { g = x; return x; }
var reps = [];
ParallelArray(input).mapPar(sq);
reps.push(RiverTrailReport());
ParallelArray(input).pipePar(sq, inc);
reps.push(RiverTrailReport());
ParallelArray(input).mapPar(leak);
reps.push(RiverTrailReport());
var json = reps.map(function (r) {
  return r.staticVerdict + "|" + r.stageVerdicts.join(",") + "|" + (r.staticReasons.length > 0);
}).join(" ");
`
	for _, tc := range []struct {
		static autopar.StaticMode
		want   string
	}{
		{autopar.StaticOff, "||false ||false ||false"},
		{autopar.StaticAssist, "proven|proven|false unknown|proven,proven|false refuted|refuted|true"},
	} {
		in := interp.New()
		st := autopar.Install(in)
		st.SetOptions(autopar.Options{Workers: 2, Static: tc.static})
		if err := in.Run(parser.MustParse(src)); err != nil {
			t.Fatal(err)
		}
		if got := in.Global("json").Str(); got != tc.want {
			t.Errorf("static=%s: reports %q, want %q", tc.static, got, tc.want)
		}
	}
}
