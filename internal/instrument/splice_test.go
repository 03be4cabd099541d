package instrument

import (
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/printer"
	"repro/internal/workloads"
)

// spliceShapes are the places where insertion offsets meet: a brace-less
// body that is itself a loop (body open and statement open at one byte),
// one loop ending where the next begins, loops as if/else arms, a
// do-while whose own `;` is missing, loops in returned closures and in
// statement headers, comments and a BOM beside loop keywords.
var spliceShapes = []string{
	`for(;;)for(;;)x;`,
	`for(;;)for(;;)for(;;){}`,
	`while(a)do for(k in o)x;while(b)`,
	`for(;;){}for(;;){}`,
	`function f(){for(;;){x}for(;;){y}}for(;;);`,
	`if (a) for (k in o) y(); else while(z) do q(); while(r)`,
	"do x++; while (x<3)\nfoo()",
	`do do x++; while (x<3); while (y<3);`,
	`function mk() { return function () { for (var i = 0; i < 3; i++) { n++; } return function () { while (n) n--; }; }; }`,
	"// for\nfor/*a*/(;;)/*b*/x/*c*/;// d\n/* while */while(a)// e\n{// f\n}",
	"\xef\xbb\xbffor(;;){}",
	`for(;;);`,
	`for(;;){}`,
	`for (var i = 0; i < 2; i++) var v = i`,
	`for (;;) if (a) b; else for (;;) c`,
	`for (;;) try { x } finally { for (;;) y }`,
	`switch (x) { case 1: for (;;) a; default: while (b) c }`,
	"var s = 'for(;;){}'; // while (x) {}\nfor (k in {for: 1}) s.for;",
	`x = {f: function () { do y; while (z) }, g: [function () { for (;;) ; }]};`,
}

// headerShapes put a loop inside a function literal in every statement
// header the rewrite has to reach.
var headerShapes = []string{
	`if ((function(){ for(;;){ break; } return 1; })()) x = 1;`,
	`while ((function(){ for (var i = 0; i < 2; i++) {} return false; })()) {}`,
	`do {} while ((function(){ while (false) {} return false; })());`,
	`for (var a = function(){ for(;;){ break; } }, i = 0; (function(){ do {} while (false); return i < 1; })(); (function(){ for (var k in {}) {} i++; })()) {}`,
	`for (x = function(){ for(;;) break; }; false; ) {}`,
	`for (var k in (function(){ for(;;){ break; } return {}; })()) {}`,
	`switch ((function(){ for(;;){ break; } return 1; })()) { case (function(){ while (false) {} return 1; })(): break; }`,
}

// nestingUnits open one level each of the brackets and chains the parser
// recurses on; enough of one in a row passes its nesting bound.
var nestingUnits = []string{"(", "[", "{", "x=function(){", "!", "new ", "a=", "a?b:"}

// checkSplice holds one input to the package's contract. If it parses:
// the output is the runtime, then the source byte for byte with only the
// planned insertions added; that text parses, to the tree astTransform
// makes of the source, with every loop on the line it was on; and the
// rewrite is deterministic.
func checkSplice(t testing.TB, data []byte) {
	t.Helper()
	src := Decode(data)
	for _, mode := range []Mode{ModeLight, ModeLoops} {
		res, err := Rewrite(src, mode)
		if err != nil {
			if res != nil {
				t.Fatalf("mode %v: Rewrite returned a result with error %v", mode, err)
			}
			return
		}
		body, ok := strings.CutPrefix(res.Source, Runtime(mode))
		if !ok {
			t.Fatalf("mode %v: output does not start with the runtime", mode)
		}

		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("mode %v: Rewrite parsed what Parse does not: %v", mode, err)
		}
		Transform(prog)
		if got := Encode(prog, mode); got != res.Source {
			t.Fatalf("mode %v: staged output differs from Rewrite (not deterministic?)", mode)
		}
		var plain strings.Builder
		at, out := 0, body
		for _, sp := range prog.Splices {
			n := sp.Off - at
			if n < 0 || n > len(out) || !strings.HasPrefix(out[n:], sp.Text) || strings.Contains(sp.Text, "\n") {
				t.Fatalf("mode %v: insertion %q at %d is not in the output in plan order", mode, sp.Text, sp.Off)
			}
			plain.WriteString(out[:n])
			at, out = sp.Off, out[n+len(sp.Text):]
		}
		plain.WriteString(out)
		if plain.String() != src {
			t.Fatalf("mode %v: output minus insertions is not the source\n%q\n%q", mode, plain.String(), src)
		}

		full, err := parser.Parse(res.Source)
		if err != nil {
			t.Fatalf("mode %v: output does not parse: %v\n%s", mode, err, body)
		}
		spliced, err := parser.Parse(body)
		if err != nil {
			t.Fatalf("mode %v: spliced text does not parse: %v\n%s", mode, err, body)
		}
		want := parser.MustParse(src)
		astTransform(want)
		if got, want := printer.Print(spliced), printer.Print(want); got != want {
			t.Fatalf("mode %v: spliced text is not the AST transform\n--- spliced ---\n%s\n--- re-parsed and printed ---\n%s--- AST transform ---\n%s",
				mode, body, got, want)
		}
		if got, want := ast.DumpProgram(spliced), ast.DumpProgram(want); got != want {
			t.Fatalf("mode %v: spliced tree differs from the AST transform's\n%s\n%s", mode, got, want)
		}
		if len(spliced.Loops) != res.NumLoops {
			t.Fatalf("mode %v: %d loops in, %d out", mode, res.NumLoops, len(spliced.Loops))
		}
		rtLines, rtLoops := strings.Count(Runtime(mode), "\n"), len(full.Loops)-res.NumLoops
		for i, orig := range prog.Loops {
			if li := full.Loops[rtLoops+i]; li.Line != orig.Line+rtLines || li.Kind != orig.Kind {
				t.Fatalf("mode %v: loop %d is %s in the output, was %s + %d runtime lines",
					mode, i+1, li.Label(), orig.Label(), rtLines)
			}
		}
	}
}

// TestSpliceMatchesAST runs the contract over the Table-1 sources, a
// bundle of them, and the shapes where offsets collide.
func TestSpliceMatchesAST(t *testing.T) {
	for _, wl := range workloads.All() {
		checkSplice(t, []byte(wl.Source))
	}
	checkSplice(t, []byte(workloads.Bundle(12)))
	for _, src := range spliceShapes {
		if _, err := Parse(Decode([]byte(src))); err != nil {
			t.Errorf("shape does not parse: %v\n%s", err, src)
		}
		checkSplice(t, []byte(src))
	}
	for _, src := range headerShapes {
		checkSplice(t, []byte(src))
	}
}

// TestSpliceText pins the served spelling of the two body forms and the
// tie-break at a shared offset.
func TestSpliceText(t *testing.T) {
	for src, want := range map[string]string{
		`while(a){b}`:       `{__ceresEnter(1);try{while(a){__ceresIter(1);b}}finally{__ceresExit(1);}}`,
		`do x; while(a); y`: `{__ceresEnter(1);try{do {__ceresIter(1);x;} while(a);}finally{__ceresExit(1);}} y`,
		`for(;;)for(;;)x;`:  `{__ceresEnter(1);try{for(;;){__ceresIter(1);{__ceresEnter(2);try{for(;;){__ceresIter(2);x;}}finally{__ceresExit(2);}}}}finally{__ceresExit(1);}}`,
		`for(;;){}for(;;){}`: `{__ceresEnter(1);try{for(;;){__ceresIter(1);}}finally{__ceresExit(1);}}` +
			`{__ceresEnter(2);try{for(;;){__ceresIter(2);}}finally{__ceresExit(2);}}`,
		"x // for(;;)\n": "x // for(;;)\n",
	} {
		res, err := Rewrite(src, ModeLight)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimPrefix(res.Source, lightRuntime); got != want {
			t.Errorf("%s\n got %s\nwant %s", src, got, want)
		}
	}
}

// TestEveryLoopIsWrapped: a loop counted in NumLoops is a loop wrapped,
// wherever it sits. The AST transformer this package used to serve never
// descended into statement headers, so `if ((function(){ for(;;){…} })())`
// counted a loop it did not instrument.
func TestEveryLoopIsWrapped(t *testing.T) {
	srcs := append([]string{}, headerShapes...)
	for _, wl := range workloads.All() {
		srcs = append(srcs, wl.Source)
	}
	for _, src := range srcs {
		res, err := Rewrite(src, ModeLoops)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		body := strings.TrimPrefix(res.Source, loopsRuntime)
		for _, hook := range []string{"__ceresEnter(", "__ceresIter(", "__ceresExit("} {
			if got := strings.Count(body, hook); got != res.NumLoops || got == 0 {
				t.Errorf("NumLoops = %d but %d %s…) calls in\n%s", res.NumLoops, got, hook, src)
			}
		}
	}
}

// TestRewriteRefusesDeepNesting: each over-deep fuzz seed is refused for
// being too deep (so the proxy passes it through), not rewritten and not
// a stack overflow.
func TestRewriteRefusesDeepNesting(t *testing.T) {
	for _, unit := range nestingUnits {
		res, err := Rewrite(strings.Repeat(unit, 8000/len(unit)), ModeLoops)
		if res != nil || err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%q chain: result %v, error %.100v", unit, res != nil, err)
		}
	}
}

// FuzzSpliceMatchesAST feeds the rewrite untrusted bytes, as an origin
// does: nothing panics, and whatever parses satisfies checkSplice. CI
// runs a 30 s smoke:
//
//	go test -fuzz FuzzSpliceMatchesAST -fuzztime 30s -fuzzminimizetime 1s -run '^$' ./internal/instrument
//
// -fuzzminimizetime matters: the engine minimises every input that adds
// coverage, for up to 60 s by default, and the seeds are whole programs,
// so without it a short run mutates nothing.
func FuzzSpliceMatchesAST(f *testing.F) {
	for _, wl := range workloads.All() {
		f.Add([]byte(wl.Source))
	}
	f.Add([]byte(workloads.Bundle(2)))
	for _, src := range spliceShapes {
		f.Add([]byte(src))
	}
	for _, src := range headerShapes {
		f.Add([]byte(src))
	}
	for _, unit := range nestingUnits {
		f.Add([]byte(strings.Repeat(unit, 8000/len(unit)))) // refused: too deep
		f.Add([]byte("for(;;)x=" + strings.Repeat(unit, 40) + "1"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8192 {
			t.Skip("oversized input") // TestSpliceMatchesAST covers a full page
		}
		checkSplice(t, data)
	})
}
