package instrument

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// Cross-validation: the paper's two measurement paths — source-to-source
// instrumentation injected by the proxy (this package) and the engine-side
// hook profiler (internal/core) — must agree on what they measure. This
// guards both implementations against each other.

const xvalSrc = `
var acc = 0;
function inner(n) {
  var s = 0;
  for (var j = 0; j < n; j++) {
    s += j % 5;
  }
  return s;
}
for (var i = 0; i < 40; i++) {
  acc += inner(10 + (i % 3));
}
var k = 0;
do {
  k++;
} while (k < 25);
`

// hookStats runs the raw source under the hook-based LoopProfiler.
func hookStats(t *testing.T, src string) map[int64][3]float64 {
	t.Helper()
	prog := parser.MustParse(src)
	in := interp.New()
	lp := core.NewLoopProfiler(in)
	in.SetHooks(lp)
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	out := make(map[int64][3]float64)
	for _, s := range lp.AllStats() {
		out[int64(s.ID)] = [3]float64{float64(s.Instances), s.Trips.Mean(), s.Trips.StdDev()}
	}
	return out
}

// sourceStats runs the rewritten source and reads the injected runtime's
// report.
func sourceStats(t *testing.T, src string) map[int64][3]float64 {
	t.Helper()
	res, err := Rewrite(src, ModeLoops)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(res.Source)
	if err != nil {
		t.Fatal(err)
	}
	in := interp.New()
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	rep, err := in.SafeCall(in.Global("__ceresReport"), value.Undefined(), nil)
	if err != nil {
		t.Fatal(err)
	}
	loopsV, _ := rep.Object().Get("loops")
	out := make(map[int64][3]float64)
	for _, lv := range loopsV.Object().Elems {
		o := lv.Object()
		id := int64(o.GetNumber("id"))
		out[id] = [3]float64{
			o.GetNumber("instances"),
			o.GetNumber("meanTrips"),
			o.GetNumber("tripStd"),
		}
	}
	return out
}

func TestSourceAndHookProfilersAgree(t *testing.T) {
	agree(t, xvalSrc, 3)
}

// xvalShapesSrc runs the shapes the splice has to get right by offset
// alone: brace-less bodies, a loop as another's whole body, loops as
// if/else arms, a do-while ended by a newline, loops in a returned
// closure and in the function literals of statement headers.
const xvalShapesSrc = `
var n = 0, o = {a: 1, b: 2, c: 3};
for (var i = 0; i < 4; i++) for (var j = 0; j < i; j++) n += j;
if (n) for (var k in o) n++; else while (n < 0) do n++; while (n < 0)
do n++; while (n < 20)
n += 1
function mk() { return function (m) { var t = 0; while (m-- > 0) t += m; return t; }; }
var f = mk(); f(4); f(2);
if ((function () { for (var q = 0; q < 2; q++) {} return q; })()) n++;
for (var a = (function () { var c = 0; do c++; while (c < 3); return c; })(); a > 0; a--) ;
switch ((function () { for (var z in o) {} return 1; })()) {
  case (function () { var w = 2; while (w--) {} return 1; })(): n++;
}
`

// TestSourceAndHookProfilersAgreeOnShapes: every loop of xvalShapesSrc
// that runs is seen by both profilers with the same instances and trips,
// under the same ID — including the four in statement headers, which the
// AST rewrite this package used to serve left unwrapped.
func TestSourceAndHookProfilersAgreeOnShapes(t *testing.T) {
	agree(t, xvalShapesSrc, 10) // 12 loops; the else arm's two never run
}

// agree checks that both profilers saw the same `loops` loops of src run.
func agree(t *testing.T, source string, loops int) {
	t.Helper()
	hooks := hookStats(t, source)
	src := sourceStats(t, source)
	if len(hooks) != loops || len(src) != loops {
		t.Fatalf("loop counts: hooks=%d source=%d, want %d", len(hooks), len(src), loops)
	}
	for id, h := range hooks {
		s, ok := src[id]
		if !ok {
			t.Errorf("loop %d missing from source-level profile", id)
			continue
		}
		if h[0] != s[0] {
			t.Errorf("loop %d instances: hooks=%v source=%v", id, h[0], s[0])
		}
		if math.Abs(h[1]-s[1]) > 1e-9 {
			t.Errorf("loop %d mean trips: hooks=%v source=%v", id, h[1], s[1])
		}
		if math.Abs(h[2]-s[2]) > 1e-6 {
			t.Errorf("loop %d trip stddev: hooks=%v source=%v", id, h[2], s[2])
		}
	}
}

// TestLightModeAgreesWithLightProfiler: the injected open-loop counter and
// the hook-based one measure the same quantity. Times differ (the injected
// runtime itself consumes virtual steps), so compare loop-share within
// a tolerance band rather than exact values.
func TestLightModeAgreesWithLightProfiler(t *testing.T) {
	// hook side
	prog := parser.MustParse(xvalSrc)
	in1 := interp.New()
	light := core.NewLightProfiler(in1)
	in1.SetHooks(light)
	if err := in1.Run(prog); err != nil {
		t.Fatal(err)
	}
	hookShare := float64(light.InLoopTime()) / float64(in1.ScriptTime())

	// source side
	res, err := Rewrite(xvalSrc, ModeLight)
	if err != nil {
		t.Fatal(err)
	}
	in2 := interp.New()
	if err := in2.Run(parser.MustParse(res.Source)); err != nil {
		t.Fatal(err)
	}
	rep, err := in2.SafeCall(in2.Global("__ceresReport"), value.Undefined(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srcShare := rep.Object().GetNumber("inLoopsMs") / rep.Object().GetNumber("totalMs")

	if math.Abs(hookShare-srcShare) > 0.15 {
		t.Errorf("loop-time share: hooks=%.3f source=%.3f — should agree within 15%%", hookShare, srcShare)
	}
	if hookShare <= 0.5 {
		t.Errorf("loop-dominated program measured at %.3f in loops", hookShare)
	}
}
