package core

import (
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
)

func detectPairs(t *testing.T, src string) *PipePairDetector {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := interp.New()
	d := NewPipePairDetector()
	in.SetHooks(d)
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return d
}

func pairSet(d *PipePairDetector) map[string]string {
	m := make(map[string]string)
	for _, p := range d.Pairs() {
		key := string(rune('0'+int(p.Producer))) + ">" + string(rune('0'+int(p.Consumer)))
		m[key] = strings.Join(p.Via, ",")
	}
	return m
}

// The image-pipeline shape: a setup loop packs bytes, then three sibling
// hot loops decode, filter and encode — each reading exactly the array
// its predecessor wrote. The detector must find every adjacent pair
// (and the setup→decode pair), despite all four loops sharing the
// top-level induction variables.
func TestPipePairDetectorFindsImagePipeline(t *testing.T) {
	d := detectPairs(t, `
var N = 32;
var packed = [];
for (var s = 0; s < N; s++) { packed.push((s * 7 + 3) % 256); }        // loop 1
var lum = [];
for (var i = 0; i < N; i++) { lum.push((packed[i] * 299) % 1000); }    // loop 2
var tone = [];
for (var i = 0; i < N; i++) { tone.push(lum[i] < 500 ? lum[i] * 2 : lum[i] - 100); } // loop 3
var pix = [];
for (var i = 0; i < N; i++) { pix.push((tone[i] + 128) % 256); }       // loop 4
`)
	got := pairSet(d)
	want := map[string]string{
		"1>2": "packed",
		"2>3": "lum",
		"3>4": "tone",
	}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	for k, via := range want {
		if got[k] != via {
			t.Fatalf("pair %s via = %q, want %q (all: %v)", k, got[k], via, got)
		}
	}
}

// A scalar the producer writes and the consumer reads is a genuine
// cross-dependence: streaming batches of B while A is still running
// would observe a partial accumulator.
func TestPipePairDetectorRejectsScalarFlow(t *testing.T) {
	d := detectPairs(t, `
var N = 16;
var a = [], b = [];
var sum = 0;
for (var i = 0; i < N; i++) { a.push(i * 2); sum = sum + i; }  // loop 1
for (var i = 0; i < N; i++) { b.push(a[i] + sum); }            // loop 2
`)
	if pairs := d.Pairs(); len(pairs) != 0 {
		t.Fatalf("scalar cross-flow must disqualify the pair, got %v", pairs)
	}
}

// The consumer writing back into the producer's array is a write
// conflict, not a stream.
func TestPipePairDetectorRejectsConsumerWriteBack(t *testing.T) {
	d := detectPairs(t, `
var N = 16;
var a = [];
for (var i = 0; i < N; i++) { a.push(i); }                     // loop 1
for (var i = 0; i < N; i++) { a[i] = a[i] * 2; }               // loop 2
`)
	if pairs := d.Pairs(); len(pairs) != 0 {
		t.Fatalf("write-back must disqualify the pair, got %v", pairs)
	}
}

// Structured (non-array) objects do not cross share-nothing stage
// workers, so flow through an object is not a pipeline pair even when
// the access pattern is produce -> consume.
func TestPipePairDetectorRejectsNonArrayFlow(t *testing.T) {
	d := detectPairs(t, `
var N = 8;
var state = {};
var out = [];
for (var i = 0; i < N; i++) { state["k" + i] = i * 3; }        // loop 1
for (var i = 0; i < N; i++) { out.push(state["k" + i]); }      // loop 2
`)
	if pairs := d.Pairs(); len(pairs) != 0 {
		t.Fatalf("object flow must disqualify the pair, got %v", pairs)
	}
}

// Accesses inside nested loops belong to the outermost hot loop; a
// nested writer still pairs with a later flat reader.
func TestPipePairDetectorAttributesNestedLoops(t *testing.T) {
	d := detectPairs(t, `
var N = 6;
var a = [], b = [];
for (var i = 0; i < N; i++) {                                   // loop 1 (outer)
  var acc = 0;
  for (var j = 0; j < 4; j++) { acc = acc + i * j; }            // loop 2 (inner)
  a.push(acc);
}
for (var i = 0; i < N; i++) { b.push(a[i] + 1); }               // loop 3
`)
	pairs := d.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("want exactly the outer->reader pair, got %v", pairs)
	}
	if pairs[0].Producer != ast.LoopID(1) || pairs[0].Consumer != ast.LoopID(3) {
		t.Fatalf("pair = %v, want 1 -> 3", pairs[0])
	}
	if len(pairs[0].Via) != 1 || pairs[0].Via[0] != "a" {
		t.Fatalf("via = %v, want [a]", pairs[0].Via)
	}
}

// The detector reads pairs off the hook stream of the pre-resolved
// executor: hooks fired from slot frames, not from a scope-chain walk.
func TestPipePairDetectorCompiledParity(t *testing.T) {
	src := `
var N = 24;
var a = [], b = [];
for (var i = 0; i < N; i++) { a.push(i * i); }
for (var i = 0; i < N; i++) { b.push(a[i] % 7); }
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := interp.New()
	d := NewPipePairDetector()
	in.SetHooks(d)
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	pairs := d.Pairs()
	if len(pairs) != 1 || pairs[0].Producer != ast.LoopID(1) || pairs[0].Consumer != ast.LoopID(2) {
		t.Fatalf("compiled run pairs = %v, want exactly 1 -> 2", pairs)
	}
}
