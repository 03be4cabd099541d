package core

import (
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
)

// classifyProgram runs src under profiler+analyzer and classifies nests.
func classifyProgram(t *testing.T, src string) []NestReport {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := interp.New()
	lp := NewLoopProfiler(in)
	dep := NewDepAnalyzer(ast.NoLoop)
	in.SetHooks(lp, dep)
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return ClassifyNests(prog, lp, dep)
}

func TestClassifyDisjointPixelLoop(t *testing.T) {
	nests := classifyProgram(t, `
var out = [];
for (var i = 0; i < 600; i++) {
  out[i] = (i * 7) % 255;
}
`)
	if len(nests) != 1 {
		t.Fatalf("nests = %d", len(nests))
	}
	n := nests[0]
	if n.DepDiff != VeryEasy {
		t.Errorf("disjoint writes: dep = %s, want very easy", n.DepDiff)
	}
	if n.Divergence != DivNone {
		t.Errorf("straight-line body: divergence = %s, want none", n.Divergence)
	}
	if !n.Parallelizable() {
		t.Error("pixel loop must be parallelizable")
	}
	if n.TripMean != 600 || n.Instanc != 1 {
		t.Errorf("profile: %d instances, %.0f trips", n.Instanc, n.TripMean)
	}
}

func TestClassifySequentialAccumulation(t *testing.T) {
	nests := classifyProgram(t, `
var chain = [1];
for (var i = 1; i < 400; i++) {
  chain[i] = chain[i - 1] * 1.01;   // flow dependence
}
`)
	n := nests[0]
	if n.FlowDeps == 0 {
		t.Error("recurrence not detected as flow dependence")
	}
	if n.DepDiff < Medium {
		t.Errorf("recurrence: dep = %s, want >= medium", n.DepDiff)
	}
}

func TestClassifyDegenerateTripCount(t *testing.T) {
	nests := classifyProgram(t, `
function render() {
  var changed = true;
  while (changed) { changed = false; }
}
for (var f = 0; f < 200; f++) { render(); }
`)
	// find the while nest (child of the for or its own)
	var while *NestReport
	for i := range nests {
		if nests[i].Kind == "while" {
			while = &nests[i]
		}
		for _, c := range nests[i].Children {
			_ = c
		}
	}
	if while == nil {
		// the while may be a child of the for; classify it directly via trips
		if nests[0].TripMean < 2 && nests[0].Divergence != DivYes {
			t.Errorf("degenerate loop divergence = %s, want yes", nests[0].Divergence)
		}
		return
	}
	if while.Divergence != DivYes {
		t.Errorf("~1-trip loop divergence = %s, want yes (Ace's shape)", while.Divergence)
	}
}

func TestClassifyRecursionPoisons(t *testing.T) {
	nests := classifyProgram(t, `
function f(n) {
  for (var i = 0; i < 3; i++) {
    if (n > 0) { f(n - 1); }
  }
}
for (var k = 0; k < 50; k++) { f(2); }
`)
	poisoned := false
	for _, n := range nests {
		if n.Recursion {
			poisoned = true
			if n.DepDiff != VeryHard {
				t.Errorf("recursive nest dep = %s, want very hard", n.DepDiff)
			}
			if n.Parallelizable() {
				t.Error("recursive nest marked parallelizable")
			}
		}
	}
	if !poisoned {
		t.Error("no nest carries the recursion bail-out")
	}
}

func TestClassifyDataDependentInnerBounds(t *testing.T) {
	nests := classifyProgram(t, `
var total = 0;
for (var i = 0; i < 120; i++) {
  var bound = (i * 37) % 50;        // 0..49: wildly varying inner trips
  for (var j = 0; j < bound; j++) {
    total += j;
  }
}
`)
	outer := nests[0]
	if outer.Divergence != DivYes {
		t.Errorf("varying inner bounds: divergence = %s, want yes", outer.Divergence)
	}
}

func TestMinNestTimeFracFiltersTrivia(t *testing.T) {
	nests := classifyProgram(t, `
var a = 0, b = 0;
for (var i = 0; i < 10000; i++) { a += i; }
for (var j = 0; j < 3; j++) { b += j; }   // <1% of loop time
`)
	if len(nests) != 1 {
		t.Fatalf("trivial nest not filtered: %d rows", len(nests))
	}
}

func TestPromotionRequiresCleanInner(t *testing.T) {
	// Outer sequential (reads its own previous writes), inner clean and
	// dominant → the inner row is promoted.
	nests := classifyProgram(t, `
var cur = [], next = [];
var energy = 0;
var residual = 1;
for (var i = 0; i < 64; i++) { cur.push(i); next.push(0); }
for (var k = 0; k < 30; k++) {
  for (var j = 0; j < 64; j++) {
    next[j] = cur[j] * 0.5 + 1;
  }
  var tmp = cur; cur = next; next = tmp;
  energy = energy * 0.5 + cur[0];   // loop-carried scalar chain
  residual = residual * 0.9 + energy; // and another
}
`)
	var promoted *NestReport
	for i := range nests {
		if nests[i].PromotedFrom != ast.NoLoop {
			promoted = &nests[i]
		}
	}
	if promoted == nil {
		t.Fatalf("no promotion happened; nests: %+v", nests)
	}
	if promoted.DepDiff > Easy {
		t.Errorf("promoted inner dep = %s", promoted.DepDiff)
	}
	if promoted.TripMean != 64 {
		t.Errorf("promoted trips = %.0f, want 64 (the j loop)", promoted.TripMean)
	}
}
