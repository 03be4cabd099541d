package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

func analyze(t *testing.T, src string, focus ast.LoopID) (*DepAnalyzer, *ast.Program) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := interp.New()
	d := NewDepAnalyzer(focus)
	in.SetHooks(d)
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return d, prog
}

func TestFocusModeFiltersWarnings(t *testing.T) {
	src := `
var a = 0, b = 0;
for (var i = 0; i < 5; i++) { a += i; }   // loop 1
for (var j = 0; j < 5; j++) { b += j; }   // loop 2
`
	// Focused on loop 2: warnings about `a` (loop 1 only) must not appear.
	d, _ := analyze(t, src, ast.LoopID(2))
	for _, w := range d.Warnings() {
		if w.Name == "a" {
			t.Errorf("focused analysis leaked loop-1 warning: %v", w)
		}
	}
	foundB := false
	for _, w := range d.Warnings() {
		if w.Name == "b" {
			foundB = true
		}
	}
	if !foundB {
		t.Error("focused analysis missed its own loop")
	}
}

func TestAccumulatorIsVarFlow(t *testing.T) {
	d, _ := analyze(t, `
var sum = 0;
for (var i = 0; i < 10; i++) { sum += i; }
`, ast.NoLoop)
	sum := d.Summary(1)
	if sum == nil {
		t.Fatal("no summary for loop 1")
	}
	if _, ok := sum.VarFlows["sum"]; !ok {
		t.Errorf("accumulator not in VarFlows: %v", sum.VarFlows)
	}
	if _, ok := sum.VarFlows["i"]; ok {
		t.Error("induction variable counted as loop-carried")
	}
}

func TestPrivatizableTemporaryIsNotVarFlow(t *testing.T) {
	d, _ := analyze(t, `
var out = [];
for (var i = 0; i < 10; i++) {
  var tmp = i * 2;    // function-scoped but written-then-read same iteration
  out.push(tmp + 1);
}
`, ast.NoLoop)
	sum := d.Summary(1)
	if sum == nil {
		t.Fatal("no summary")
	}
	if _, ok := sum.VarFlows["tmp"]; ok {
		t.Error("same-iteration temporary counted as loop-carried")
	}
	// ...but it IS reported as a (a)-style warning, like the paper's `var p`
	found := false
	for _, w := range d.Warnings() {
		if w.Kind == WarnVarWrite && w.Name == "tmp" {
			found = true
		}
	}
	if !found {
		t.Error("function-scoped temporary write not warned (paper reports these)")
	}
}

func TestOverlapVsDisjointWrites(t *testing.T) {
	// disjoint: each iteration writes its own element
	d1, _ := analyze(t, `
var a = [];
for (var i = 0; i < 8; i++) { a[i] = i; }
`, ast.NoLoop)
	if s := d1.Summary(1); s != nil && len(s.OverlapPropWrites) != 0 {
		t.Errorf("disjoint writes flagged as overlap: %v", s.OverlapPropWrites)
	}

	// overlapping: every iteration rewrites element 0
	d2, _ := analyze(t, `
var a = [0];
for (var i = 0; i < 8; i++) { a[0] = i; }
`, ast.NoLoop)
	s := d2.Summary(1)
	if s == nil || len(s.OverlapPropWrites) == 0 {
		t.Error("same-element rewrites not flagged as overlap")
	}
}

func TestCrossInstanceVsCrossIteration(t *testing.T) {
	// the inner loop writes the same elements once per OUTER iteration:
	// cross-instance at the inner loop, cross-iteration at the outer.
	d, _ := analyze(t, `
var a = [0, 0, 0];
for (var o = 0; o < 4; o++) {
  for (var i = 0; i < 3; i++) { a[i] = o; }
}
`, ast.NoLoop)
	outer, inner := d.Summary(1), d.Summary(2)
	if outer == nil || inner == nil {
		t.Fatal("missing summaries")
	}
	if len(outer.OverlapPropWrites) == 0 {
		t.Error("outer loop: same elements rewritten each iteration — overlap expected")
	}
	if len(inner.OverlapPropWrites) != 0 {
		t.Errorf("inner loop: writes are disjoint per iteration; got overlap %v", inner.OverlapPropWrites)
	}
	if len(inner.CrossInstance) == 0 {
		t.Error("inner loop: cross-instance sharing expected")
	}
}

func TestReadOnlySharedStateIsClean(t *testing.T) {
	d, _ := analyze(t, `
var table = [1, 2, 3, 4];
var out = [];
for (var i = 0; i < 4; i++) { out[i] = table[i] * 2; }
`, ast.NoLoop)
	s := d.Summary(1)
	if s == nil {
		t.Fatal("no summary")
	}
	for name := range s.FlowReads {
		if strings.HasPrefix(name, "table") {
			t.Errorf("read-only input flagged as flow dependence: %v", s.FlowReads)
		}
	}
}

func TestRecursionBailOutPoisonsNest(t *testing.T) {
	d, _ := analyze(t, `
function rec(n) {
  for (var i = 0; i < 2; i++) {
    if (n > 0) { rec(n - 1); } // re-enters loop 1 while open
  }
}
rec(3);
`, ast.NoLoop)
	s := d.Summary(1)
	if s == nil || !s.Recursion {
		t.Error("recursive loop re-entry not poisoned (§3.3 bail-out)")
	}
	found := false
	for _, w := range d.Warnings() {
		if w.Kind == WarnRecursion {
			found = true
		}
	}
	if !found {
		t.Error("no recursion warning raised")
	}
}

func TestPolymorphicVariableDetected(t *testing.T) {
	d, _ := analyze(t, `
var v = 1;
for (var i = 0; i < 3; i++) {
  if (i === 1) { v = "now a string"; } else { v = i; }
}
var nullish = null;
nullish = undefined;
nullish = null; // undefined/null transitions are exempt (§4.2)
`, ast.NoLoop)
	vars := d.PolymorphicVars()
	foundV := false
	for _, name := range vars {
		if name == "v" {
			foundV = true
		}
		if name == "nullish" {
			t.Error("null/undefined transitions counted as polymorphism")
		}
	}
	if !foundV {
		t.Errorf("polymorphic v not detected: %v", vars)
	}
}

func TestWarningDedupCounts(t *testing.T) {
	d, _ := analyze(t, `
var g = 0;
for (var i = 0; i < 50; i++) { g = i; }
`, ast.NoLoop)
	for _, w := range d.Warnings() {
		if w.Name == "g" && w.Kind == WarnVarWrite {
			if w.Count != 50 {
				t.Errorf("g warning count = %d, want 50 (deduped with counts)", w.Count)
			}
			return
		}
	}
	t.Error("no warning for g")
}

func TestWarningsForLoopFilter(t *testing.T) {
	d, _ := analyze(t, `
var a = 0, b = 0;
for (var i = 0; i < 3; i++) { a++; }
for (var j = 0; j < 3; j++) { b++; }
`, ast.NoLoop)
	for _, w := range d.WarningsFor(1) {
		for _, lvl := range w.Char {
			if lvl.Loop == 2 {
				t.Errorf("WarningsFor(1) returned loop-2 characterization: %v", w)
			}
		}
	}
	if len(d.WarningsFor(1)) == 0 {
		t.Error("no warnings for loop 1")
	}
}

func TestObjectStampFallbackForComplexBases(t *testing.T) {
	// Access through a non-identifier base (arr[i].x) characterizes
	// against the object's creation stamp.
	d, _ := analyze(t, `
var objs = [];
for (var s = 0; s < 3; s++) { objs.push({x: 0}); }
for (var i = 0; i < 3; i++) {
  objs[i].x = i; // base is an IndexExpr, not a simple reference
}
`, ast.NoLoop)
	// objects created in loop 1, written in loop 2 → warning at loop 2
	found := false
	for _, w := range d.Warnings() {
		if w.Kind == WarnPropWrite && strings.Contains(w.Name, ".x") {
			found = true
		}
	}
	if !found {
		t.Errorf("no prop-write warning through complex base; warnings: %v", warningNames(d))
	}
}

func TestStackBalancedAfterAnalysis(t *testing.T) {
	d, _ := analyze(t, `
for (var i = 0; i < 3; i++) {
  for (var j = 0; j < 2; j++) {
    if (j === 1) { break; }
  }
}
`, ast.NoLoop)
	if d.Stack().Depth() != 0 {
		t.Errorf("stack depth %d after run", d.Stack().Depth())
	}
}

// liveHeapAfter runs src under a DepAnalyzer and returns the live heap
// with the interpreter and the analyzer still reachable.
func liveHeapAfter(t *testing.T, src string) uint64 {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := interp.New()
	d := NewDepAnalyzer(ast.NoLoop)
	in.SetHooks(d)
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(in)
	runtime.KeepAlive(d)
	return ms.HeapAlloc
}

// The analyzer keeps per-binding state on the binding, never in a table
// of its own keyed by binding: a call's bindings share one backing
// array, so a retained key would keep the whole activation — arguments,
// stamps and all — for every call the program ever made. By count, not
// clock: a hundred times the calls must not grow the live heap.
func TestAnalyzerRetainsNoActivations(t *testing.T) {
	const src = `
function touch(x) { var local = x * 2; local = "s" + local; return local; }
for (var i = 0; i < %d; i++) { touch(i); }
`
	few := liveHeapAfter(t, fmt.Sprintf(src, 500))
	many := liveHeapAfter(t, fmt.Sprintf(src, 50_000))
	const bound = 2 << 20
	if many > few+bound {
		t.Fatalf("live heap after 50000 calls is %d KiB, after 500 calls %d KiB: the analyzer retains activations (bound %d KiB)",
			many>>10, few>>10, bound>>10)
	}
}

// analyzeCapped runs src under an analyzer whose caps are lowered first.
func analyzeCapped(t *testing.T, src string, warnings, summary int) *DepAnalyzer {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := interp.New()
	d := NewDepAnalyzer(ast.NoLoop)
	d.SetCaps(warnings, summary)
	in.SetHooks(d)
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return d
}

// Both caps keep one meaning: warnings and summaries are two views of one
// entry table, and every access a cap keeps out of either is counted in
// Dropped.
func TestCapsCountEveryRefusedAccess(t *testing.T) {
	// Four iterations write a, b and c; each write is a var-write at loop 1.
	const vars = `
var a = 0, b = 0, c = 0;
for (var i = 0; i < 4; i++) { a = i; b = i; c = i; }
`
	d := analyzeCapped(t, vars, 100, 100)
	if len(d.Warnings()) != 3 || d.Dropped() != 0 {
		t.Fatalf("uncapped: %d warnings, %d dropped; want 3, 0", len(d.Warnings()), d.Dropped())
	}

	// The table holds two entries: c's four writes are refused, and no
	// summary mentions c.
	d = analyzeCapped(t, vars, 2, 100)
	if got := warningNames(d); len(got) != 2 || got[0] != "var-write:a" || got[1] != "var-write:b" {
		t.Errorf("warning cap 2: warnings %v, want a and b", got)
	}
	if got := d.Summary(1).VarWrites; len(got) != 2 || got["a"] != 4 || got["b"] != 4 {
		t.Errorf("warning cap 2: VarWrites %v, want a=4 b=4", got)
	}
	if got := d.Dropped(); got != 4 {
		t.Errorf("warning cap 2: Dropped %d, want 4", got)
	}

	// Each summary map holds one name: b's and c's writes stay warnings
	// but are refused from VarWrites, first seen first kept.
	d = analyzeCapped(t, vars, 100, 1)
	if len(d.Warnings()) != 3 {
		t.Errorf("summary cap 1: %d warnings, want 3", len(d.Warnings()))
	}
	if got := d.Summary(1).VarWrites; len(got) != 1 || got["a"] != 4 {
		t.Errorf("summary cap 1: VarWrites %v, want a=4", got)
	}
	if got := d.Dropped(); got != 8 {
		t.Errorf("summary cap 1: Dropped %d, want 8", got)
	}
	if got := d.Dropped(); got != 8 {
		t.Errorf("summary cap 1: a second read of Dropped gives %d, want 8", got)
	}

	// Overlap counts obey the summary cap at the access: o.y's three
	// overlapping writes are refused, as are its four shared writes.
	d = analyzeCapped(t, `
var o = {x: 0, y: 0};
for (var i = 0; i < 4; i++) { o.x = i; o.y = i; }
`, 100, 1)
	s := d.Summary(1)
	if len(s.OverlapPropWrites) != 1 || s.OverlapPropWrites["o.x"] != 3 {
		t.Errorf("summary cap 1: OverlapPropWrites %v, want o.x=3", s.OverlapPropWrites)
	}
	if len(s.SharedPropWrites) != 1 || s.SharedPropWrites["o.x"] != 4 {
		t.Errorf("summary cap 1: SharedPropWrites %v, want o.x=4", s.SharedPropWrites)
	}
	if got := d.Dropped(); got != 7 {
		t.Errorf("summary cap 1: Dropped %d, want 7", got)
	}
}

// A warmed analyzer's access hooks allocate nothing: an access whose
// warning already exists is a lookup and a count, whatever it touches —
// the var-write, var-flow, prop-write, overlap and prop-flow paths.
func TestSteadyStateAccessesAllocateNothing(t *testing.T) {
	d := NewDepAnalyzer(ast.NoLoop)
	acc := &interp.Binding{Name: "acc"}
	flag := &interp.Binding{Name: "flag"}
	pts := &interp.Binding{Name: "pts"}
	d.VarDeclare("acc", acc)
	d.VarDeclare("flag", flag)
	d.VarDeclare("pts", pts)
	arr, cfg := value.NewArray(), value.NewObject()
	d.ObjectNew(arr)
	d.ObjectNew(cfg)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprint(i)
	}

	// Iteration 1 writes everything the measured accesses go back to.
	d.LoopEnter(1)
	d.LoopIter(1)
	d.LoopEnter(2)
	d.LoopIter(2)
	d.VarWrite("flag", flag)
	d.PropWrite(cfg, "scale", nil)
	for _, k := range keys {
		d.PropWrite(arr, k, pts)
	}
	d.LoopIter(2)

	next := 0
	access := func() {
		d.VarWrite("acc", acc)            // var-write: acc predates the loops
		d.VarRead("flag", flag)           // var-flow: written last iteration
		d.PropWrite(arr, keys[next], pts) // prop-write and an overlap
		d.PropRead(cfg, "scale", nil)     // prop-flow: written last iteration
		next++
	}
	access() // creates every entry
	if n := testing.AllocsPerRun(200, access); n != 0 {
		t.Errorf("steady-state accesses allocate %v times per round, want 0", n)
	}
	s := d.Summary(2)
	if s == nil || s.VarWrites["acc"] != int64(next) || s.VarFlows["flag"] != int64(next) ||
		s.OverlapPropWrites["pts[elem]"] != int64(next) || s.FlowReads["<Object>.scale"] != int64(next) {
		t.Errorf("summary of loop 2 after %d rounds: %+v", next, s)
	}
}
