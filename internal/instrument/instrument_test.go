package instrument

import (
	"strings"
	"testing"

	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

const appSrc = `
var total = 0;
function work() {
  for (var i = 0; i < 50; i++) {
    var inner = 0;
    for (var j = 0; j < 20; j++) {
      inner += i * j;
    }
    total += inner;
  }
}
work();
work();
var k = 0;
while (k < 30) { k++; }
`

// runReport runs instrumented source and fetches __ceresReport().
func runReport(t *testing.T, src string, mode Mode) (value.Value, *interp.Interp) {
	t.Helper()
	res, err := Rewrite(src, mode)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	prog, err := parser.Parse(res.Source)
	if err != nil {
		t.Fatalf("instrumented source does not parse: %v\n%s", err, res.Source)
	}
	in := interp.New()
	if err := in.Run(prog); err != nil {
		t.Fatalf("instrumented source failed: %v", err)
	}
	rep, err := in.SafeCall(in.Global("__ceresReport"), value.Undefined(), nil)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	return rep, in
}

func TestLightModePreservesBehaviour(t *testing.T) {
	// Run the original and the instrumented version; `total` must agree.
	orig := interp.New()
	if err := orig.Run(parser.MustParse(appSrc)); err != nil {
		t.Fatal(err)
	}
	_, instr := runReport(t, appSrc, ModeLight)
	if a, b := orig.Global("total").Num(), instr.Global("total").Num(); a != b {
		t.Errorf("instrumentation changed behaviour: total %v vs %v", a, b)
	}
}

func TestLightModeMeasuresLoopTime(t *testing.T) {
	rep, _ := runReport(t, appSrc, ModeLight)
	if !rep.IsObject() {
		t.Fatalf("report = %s", rep.Inspect())
	}
	totalMs, _ := rep.Object().Get("totalMs")
	inLoopsMs, _ := rep.Object().Get("inLoopsMs")
	if totalMs.ToNumber() <= 0 {
		t.Errorf("totalMs = %v, want > 0", totalMs.ToNumber())
	}
	if inLoopsMs.ToNumber() <= 0 || inLoopsMs.ToNumber() > totalMs.ToNumber() {
		t.Errorf("inLoopsMs = %v of %v: must be in (0, total]", inLoopsMs.ToNumber(), totalMs.ToNumber())
	}
	// This app is loop-dominated: expect the majority of time in loops.
	if inLoopsMs.ToNumber() < 0.5*totalMs.ToNumber() {
		t.Errorf("loop share %v/%v below 50%% for a loop-dominated app", inLoopsMs.ToNumber(), totalMs.ToNumber())
	}
}

func TestLoopsModeStatistics(t *testing.T) {
	rep, _ := runReport(t, appSrc, ModeLoops)
	loopsV, _ := rep.Object().Get("loops")
	if !loopsV.IsObject() || !loopsV.Object().IsArray() {
		t.Fatalf("loops = %s", loopsV.Inspect())
	}
	loops := loopsV.Object().Elems
	if len(loops) != 3 {
		t.Fatalf("profiled %d loops, want 3", len(loops))
	}
	// Find the inner loop: 100 instances (50 per work() call × 2 calls),
	// 20 trips each, no variance.
	foundInner, foundOuter, foundWhile := false, false, false
	for _, lv := range loops {
		o := lv.Object()
		inst, _ := o.Get("instances")
		trips, _ := o.Get("meanTrips")
		std, _ := o.Get("tripStd")
		switch {
		case inst.ToNumber() == 100 && trips.ToNumber() == 20:
			foundInner = true
			if std.ToNumber() != 0 {
				t.Errorf("inner loop tripStd = %v, want 0", std.ToNumber())
			}
		case inst.ToNumber() == 2 && trips.ToNumber() == 50:
			foundOuter = true
		case inst.ToNumber() == 1 && trips.ToNumber() == 30:
			foundWhile = true
		}
	}
	if !foundInner || !foundOuter || !foundWhile {
		t.Errorf("loop stats missing: inner=%v outer=%v while=%v", foundInner, foundOuter, foundWhile)
	}
}

func TestRewriteHandlesBreakAndThrow(t *testing.T) {
	src := `
var mode = "";
function f() {
  for (var i = 0; i < 10; i++) {
    if (i === 3) { break; }
  }
  for (var j = 0; j < 10; j++) {
    if (j === 2) { return "early"; }
  }
  return "late";
}
mode = f();
var caught = "";
try {
  for (var k = 0; k < 5; k++) {
    if (k === 1) { throw "bang"; }
  }
} catch (e) { caught = e; }
`
	rep, in := runReport(t, src, ModeLight)
	if got := in.Global("mode").Str(); got != "early" {
		t.Errorf("mode = %q, want early", got)
	}
	if got := in.Global("caught").Str(); got != "bang" {
		t.Errorf("caught = %q, want bang", got)
	}
	// The open-loop counter must balance even with abrupt exits: the light
	// runtime's counter is only observable through a consistent report.
	inLoops, _ := rep.Object().Get("inLoopsMs")
	total, _ := rep.Object().Get("totalMs")
	if inLoops.ToNumber() > total.ToNumber() {
		t.Errorf("unbalanced loop counter: inLoops %v > total %v", inLoops.ToNumber(), total.ToNumber())
	}
}

func TestRewriteCountsLoops(t *testing.T) {
	res, err := Rewrite(appSrc, ModeLight)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLoops != 3 {
		t.Errorf("NumLoops = %d, want 3", res.NumLoops)
	}
	for _, fn := range []string{"__ceresEnter", "__ceresIter", "__ceresExit", "__ceresReport"} {
		if !strings.Contains(res.Source, fn) {
			t.Errorf("instrumented source lacks %s", fn)
		}
	}
}

func TestRewriteBadSource(t *testing.T) {
	if _, err := Rewrite("function ( {", ModeLight); err == nil {
		t.Error("want error for unparsable source")
	}
}

func TestRewriteFunctionExpressions(t *testing.T) {
	src := `
var f = function () {
  var n = 0;
  for (var i = 0; i < 4; i++) { n++; }
  return n;
};
var out = f();
`
	_, in := runReport(t, src, ModeLoops)
	if got := in.Global("out").Num(); got != 4 {
		t.Errorf("out = %v, want 4", got)
	}
}

func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{"light": ModeLight, "loops": ModeLoops} {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
		if got.String() != name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), name)
		}
	}
	// Unknown names (e.g. the "loop" typo) must error, never silently
	// default to ModeLight.
	for _, bad := range []string{"loop", "deep", ""} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) succeeded, want error", bad)
		}
	}
}

// TestStagedPipelineMatchesRewrite: the four exported stages composed
// by hand produce byte-identical output to the one-shot Rewrite — the
// contract that lets the proxy run them as separate scheduler jobs.
func TestStagedPipelineMatchesRewrite(t *testing.T) {
	src := "var s = 0;\nfor (var i = 0; i < 9; i++) { s += i; }\n"
	for _, mode := range []Mode{ModeLight, ModeLoops} {
		want, err := Rewrite(src, mode)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Parse(Decode([]byte(src)))
		if err != nil {
			t.Fatal(err)
		}
		Transform(prog)
		if got := string(Encode(prog, mode)); got != want.Source {
			t.Errorf("mode %v: staged output differs from Rewrite", mode)
		}
		if len(prog.Loops) != want.NumLoops {
			t.Errorf("mode %v: staged loops %d, Rewrite %d", mode, len(prog.Loops), want.NumLoops)
		}
	}
}

// TestDecodeStripsBOM: a UTF-8 BOM would otherwise reach the lexer as
// three illegal characters and force the script into passthrough.
func TestDecodeStripsBOM(t *testing.T) {
	src := Decode([]byte("\xef\xbb\xbfvar x = 1;"))
	if src != "var x = 1;" {
		t.Fatalf("Decode = %q, want BOM stripped", src)
	}
	if _, err := Rewrite(src, ModeLight); err != nil {
		t.Fatalf("decoded source fails to rewrite: %v", err)
	}
	// Without Decode, the BOM is a parse error — the behaviour Decode exists to fix.
	if _, err := Rewrite("\xef\xbb\xbfvar x = 1;", ModeLight); err == nil {
		t.Fatal("BOM-prefixed source parsed; Decode no longer needed?")
	}
}
