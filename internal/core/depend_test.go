package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
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
