package effects_test

// Corpus cross-check: every micro-kernel gets a static verdict from the
// prover AND a dynamic verdict from the runtime Guard (a full guarded
// sequential run through autopar), and the two must relate soundly:
//
//   - Proven  ⇒ the Guard observes no violation. This is the hard
//     soundness invariant behind guard elision; any counterexample is a
//     prover bug.
//   - Refuted ⇒ the Guard observes a violation, unless the refutation
//     is outside the Guard's vocabulary (guardExempt: nondeterministic
//     natives are reads, console is output, a flow-insensitive
//     refutation of a never-executed write).
//   - Unknown ⇒ no constraint; both dynamically-pure and -impure
//     kernels legitimately land here. Where the dynamic outcome is
//     deterministic the case pins it anyway (dynPure) so a future
//     precision change is a conscious one.
//
// The suite runs under -race in CI.

import (
	"strings"
	"testing"

	"repro/internal/autopar"
	"repro/internal/effects"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

type corpusCase struct {
	name     string
	prelude  string
	elem     string
	want     effects.Verdict
	wantCode string // must appear in the reason-code chain ("" = no check)
	// guardExempt marks Refuted cases the runtime Guard cannot see.
	guardExempt bool
	// dynPure pins the dynamic verdict for Unknown cases ("" = don't
	// check, "pure", "impure").
	dynPure string
}

var corpus = []corpusCase{
	// ---- Proven: pure arithmetic and control flow ----
	{name: "arith", elem: `function (x, i) { return x * 2 + 1; }`, want: effects.Proven},
	{name: "branching", elem: `function (x, i) { if (x > 3) { return x - 1; } return x + 1; }`, want: effects.Proven},
	{name: "local-accum-loop", elem: `function (x, i) { var s = 0; for (var j = 0; j < 8; j++) { s += j * x; } return s; }`, want: effects.Proven},
	{name: "string-concat", elem: `function (x, i) { return "v" + x; }`, want: effects.Proven},
	{name: "ternary", elem: `function (x, i) { return x % 2 ? -x : x; }`, want: effects.Proven},
	{name: "typeof-unary", elem: `function (x, i) { return typeof x === "number" ? -x : 0; }`, want: effects.Proven},
	{name: "do-while", elem: `function (x, i) { var s = x; do { s -= 1; } while (s > 0); return s; }`, want: effects.Proven},
	{name: "switch", elem: `function (x, i) { switch (i % 3) { case 0: return x; case 1: return x * 2; default: return 0; } }`, want: effects.Proven},
	{name: "try-catch-pure", elem: `function (x, i) { try { return x + 1; } catch (e) { return 0; } }`, want: effects.Proven},

	// ---- Proven: fresh allocations ----
	{name: "fresh-array-fill", elem: `function (x, i) { var a = []; for (var j = 0; j < 4; j++) { a[j] = x + j; } return a[0]; }`, want: effects.Proven},
	{name: "fresh-object-build", elem: `function (x, i) { var o = {}; o.v = x; o.w = x * 2; return o.v + o.w; }`, want: effects.Proven},
	{name: "fresh-array-literal-init", elem: `function (x, i) { var a = [x, x + 1]; a[0] = a[1]; return a[0]; }`, want: effects.Proven},

	// ---- Proven: ambient builtins used deterministically ----
	{name: "math-members", elem: `function (x, i) { return Math.floor(Math.sqrt(x)) + Math.PI; }`, want: effects.Proven},
	{name: "math-computed-literal-call", elem: `function (x, i) { return Math["sqrt"](x); }`, want: effects.Proven},
	{name: "ambient-pure-calls", elem: `function (x, i) { return parseInt("4", 10) + Number(x) + (isNaN(x) ? 1 : 0); }`, want: effects.Proven},

	// ---- Proven: captured reads and interpreted callees ----
	{name: "read-captured-primitive", prelude: `var scale = 3;`, elem: `function (x, i) { return x * scale; }`, want: effects.Proven},
	{name: "read-captured-array", prelude: `var lut = [1, 2, 3, 4];`, elem: `function (x, i) { return lut[i % 4] + x; }`, want: effects.Proven},
	{name: "pure-helper", prelude: `function sq(v) { return v * v; }`, elem: `function (x, i) { return sq(x) + sq(i); }`, want: effects.Proven},
	{name: "helper-chain", prelude: `function a1(v) { return b1(v) + 1; } function b1(v) { return v * 2; }`, elem: `function (x, i) { return a1(x); }`, want: effects.Proven},
	{name: "recursive-helper", prelude: `function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }`, elem: `function (x, i) { return fib(x % 8); }`, want: effects.Proven},
	{name: "mutual-recursion", prelude: `function even(n) { if (n <= 0) { return 1; } return odd(n - 1); } function odd(n) { if (n <= 0) { return 0; } return even(n - 1); }`, elem: `function (x, i) { return even(x % 6); }`, want: effects.Proven},
	{name: "helper-with-fresh-state", prelude: `function sum3(v) { var t = [v, v + 1, v + 2]; return t[0] + t[1] + t[2]; }`, elem: `function (x, i) { return sum3(x); }`, want: effects.Proven},

	// ---- Proven: shadowing and closures ----
	{name: "shadow-date-nested-block", elem: `function (x, i) { if (x > 0) { var Date = 10; return x + Date; } return x; }`, want: effects.Proven},
	{name: "shadow-math-local", elem: `function (x, i) { var Math = 3; return x * Math; }`, want: effects.Proven},
	{name: "closure-own-local", elem: `function (x, i) { var s = 0; var add = function (v) { s += v; }; add(x); add(i); return s; }`, want: effects.Proven},
	{name: "iife", elem: `function (x, i) { return (function (y) { return y * y; })(x); }`, want: effects.Proven},
	{name: "local-funclit-recursion", elem: `function (x, i) { var f = function (n) { return n <= 0 ? 0 : n + f(n - 1); }; return f(x % 5); }`, want: effects.Proven},

	// ---- Refuted: provable writes to captured/global state ----
	{name: "global-write", prelude: `var g1 = 0;`, elem: `function (x, i) { g1 = x; return x; }`, want: effects.Refuted, wantCode: "writes-free-var"},
	{name: "global-compound", prelude: `var g2 = 0;`, elem: `function (x, i) { g2 += x; return g2; }`, want: effects.Refuted, wantCode: "writes-free-var"},
	{name: "global-increment", prelude: `var g3 = 0;`, elem: `function (x, i) { g3++; return g3; }`, want: effects.Refuted, wantCode: "writes-free-var"},
	{name: "noop-self-assign", prelude: `var g4 = 7;`, elem: `function (x, i) { g4 = g4; return x; }`, want: effects.Refuted, wantCode: "writes-free-var"},
	{name: "captured-array-write", prelude: `var buf = [0, 0, 0, 0];`, elem: `function (x, i) { buf[i % 4] = x; return x; }`, want: effects.Refuted, wantCode: "mutates-free-object"},
	{name: "captured-object-write", prelude: `var st = { hits: 0 };`, elem: `function (x, i) { st.hits = x; return x; }`, want: effects.Refuted, wantCode: "mutates-free-object"},
	{name: "write-in-nested-closure", prelude: `var g5 = 0;`, elem: `function (x, i) { (function () { g5 = x; })(); return x; }`, want: effects.Refuted, wantCode: "writes-free-var"},
	{name: "forin-undeclared-write", prelude: `var k = 0; var src = { a: 1, b: 2 };`, elem: `function (x, i) { var s = 0; for (k in src) { s += src[k]; } return s + x; }`, want: effects.Refuted, wantCode: "writes-free-var"},
	{name: "impure-helper", prelude: `var n1 = 0; function bump(v) { n1 += v; return n1; }`, elem: `function (x, i) { return bump(x); }`, want: effects.Refuted, wantCode: "writes-free-var"},
	{name: "impure-recursive-helper", prelude: `var n2 = 0; function rec2(n) { if (n <= 0) { return 0; } n2 += 1; return rec2(n - 1); }`, elem: `function (x, i) { return rec2(x % 4); }`, want: effects.Refuted, wantCode: "writes-free-var"},
	// Flow-insensitive: the write never executes, so the Guard stays
	// clean — the prover refutes anyway (it proves absence, not paths).
	{name: "dead-global-write", prelude: `var g6 = 0;`, elem: `function (x, i) { if (false) { g6 = x; } return x; }`, want: effects.Refuted, wantCode: "writes-free-var", guardExempt: true},
	// delete of a captured property: a mutation the hook vocabulary may
	// not carry; exempt from the dynamic cross-check either way.
	{name: "delete-captured-prop", prelude: `var st2 = { f: 1 };`, elem: `function (x, i) { delete st2.f; return x; }`, want: effects.Refuted, wantCode: "mutates-free-object", guardExempt: true},

	// ---- Refuted: nondeterministic natives (reads, not writes — the
	// Guard never sees them, which is exactly why the static column
	// exists alongside the dynamic one) ----
	{name: "math-random", elem: `function (x, i) { return x + Math.random(); }`, want: effects.Refuted, wantCode: "nondet-native", guardExempt: true},
	{name: "math-random-computed", elem: `function (x, i) { return x + Math["random"](); }`, want: effects.Refuted, wantCode: "nondet-native", guardExempt: true},
	{name: "date-now", elem: `function (x, i) { return x + Date.now() * 0; }`, want: effects.Refuted, wantCode: "nondet-native", guardExempt: true},
	{name: "new-date", elem: `function (x, i) { if (x < 0) { var d = new Date(); } return x; }`, want: effects.Refuted, wantCode: "nondet-native", guardExempt: true},
	{name: "performance-now", elem: `function (x, i) { return x + performance.now() * 0; }`, want: effects.Refuted, wantCode: "nondet-native", guardExempt: true},
	{name: "console-log", elem: `function (x, i) { console.log(x); return x; }`, want: effects.Refuted, wantCode: "nondet-native", guardExempt: true},

	// ---- Unknown: computed and aliased writes. The analyzer is
	// flow-insensitive, so kernels below hide their dubious operation
	// behind a never-true branch where it would throw at runtime (kernel
	// exceptions propagate as panics outside a JS try/catch) — the
	// verdict is identical either way. ----
	{name: "param-member-write", elem: `function (x, i) { if (x < 0) { x.f = 1; } return i; }`, want: effects.Unknown, wantCode: "unproven-member-write", dynPure: "pure"},
	{name: "aliased-capture-write", prelude: `var shared = [9, 9];`, elem: `function (x, i) { var a = shared; a[0] = x; return x; }`, want: effects.Unknown, wantCode: "unproven-member-write", dynPure: "impure"},
	{name: "sometimes-fresh", prelude: `var ext = [1];`, elem: `function (x, i) { var a = []; if (x > 2) { a = ext; } a[0] = x; return x; }`, want: effects.Unknown, wantCode: "unproven-member-write"},
	{name: "deep-chain-write", elem: `function (x, i) { var a = []; a[0] = []; a[0][0] = x; return a[0][0]; }`, want: effects.Unknown, wantCode: "deep-member-write", dynPure: "pure"},

	// ---- Unknown: unresolvable and dynamic callees ----
	{name: "unresolved-callee", elem: `function (x, i) { return x < 0 ? mystery(x) : x; }`, want: effects.Unknown, wantCode: "unresolved-callee", dynPure: "pure"},
	// A named function expression does NOT bind its own name at runtime
	// (FuncLit.Name is display only), so `rec` is a genuinely free name
	// the prover must refuse to resolve.
	{name: "named-funcexpr-self-call", elem: `function (x, i) { var f = function rec(n) { return n <= 0 ? 0 : rec(n - 1); }; return x < 0 ? f(x) : x; }`, want: effects.Unknown, wantCode: "unresolved-callee", dynPure: "pure"},
	{name: "param-callee", elem: `function (x, i) { return x < 0 ? x(i) : i; }`, want: effects.Unknown, wantCode: "unresolved-local-callee", dynPure: "pure"},
	{name: "reassigned-local-fn", prelude: `function p1(v) { return v; } function p2(v) { return -v; }`, elem: `function (x, i) { var h = p1; if (x > 2) { h = p2; } return h(x); }`, want: effects.Unknown, wantCode: "unresolved-local-callee", dynPure: "pure"},
	{name: "callee-is-data", prelude: `var tbl = [1, 2];`, elem: `function (x, i) { return x < 0 ? tbl(x) : x; }`, want: effects.Unknown, wantCode: "calls-non-function", dynPure: "pure"},
	{name: "computed-callee", prelude: `var fns = [0];`, elem: `function (x, i) { return x < 0 ? fns[0](x) : x; }`, want: effects.Unknown, wantCode: "computed-callee", dynPure: "pure"},
	{name: "method-call", prelude: `var obj = { m: 0 };`, elem: `function (x, i) { return x < 0 ? obj.m(x) : x; }`, want: effects.Unknown, wantCode: "method-call", dynPure: "pure"},
	{name: "constructor-call", elem: `function (x, i) { if (x < 0) { var o = new Object(); } return x; }`, want: effects.Unknown, wantCode: "constructor-call", dynPure: "pure"},
	{name: "ambient-call-offlist", elem: `function (x, i) { if (x < 0) { var e = Error("boom"); } return x; }`, want: effects.Unknown, wantCode: "ambient-call", dynPure: "pure"},

	// ---- Unknown: dynamic scope and Math aliasing ----
	{name: "this-escape", elem: `function (x, i) { if (x < 0) { return this.v; } return x; }`, want: effects.Unknown, wantCode: "this-scope", dynPure: "pure"},
	{name: "math-alias", elem: `function (x, i) { var m = Math; return m.floor(x); }`, want: effects.Unknown, wantCode: "aliases-math", dynPure: "pure"},
	{name: "math-computed-key", prelude: `var key = "floor";`, elem: `function (x, i) { return Math[key](x); }`, want: effects.Unknown, wantCode: "computed-math-access", dynPure: "pure"},
}

// loadCorpusKernel runs the case's prelude and elemental on a fresh
// interpreter and returns it with the loaded __f.
func loadCorpusKernel(t *testing.T, c corpusCase) (*interp.Interp, value.Value) {
	t.Helper()
	in := interp.New()
	prog, err := parser.Parse(c.prelude + "\nvar __f = (" + c.elem + ");\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := in.Run(prog); err != nil {
		t.Fatalf("run prelude: %v", err)
	}
	return in, in.Global("__f")
}

// runCorpusKernel runs the kernel through a full guarded sequential
// pass (Workers: 1 — everything profiles under the Guard on the main
// interpreter) and returns the dynamic outcome.
func runCorpusKernel(in *interp.Interp, fn value.Value) autopar.Outcome {
	elems := make([]value.Value, 16)
	for i := range elems {
		elems[i] = value.Int(i + 1)
	}
	_, oc := autopar.MapSpec(in, fn, elems, autopar.Options{Workers: 1})
	return oc
}

// TestCorpusStaticVsGuard proves each kernel with autopar.AnalyzeStatic,
// the closure-environment resolver the engine's gate uses, then runs it
// under the Guard on the same interpreter.
func TestCorpusStaticVsGuard(t *testing.T) {
	if len(corpus) < 40 {
		t.Fatalf("corpus has %d cases, want >= 40", len(corpus))
	}
	for _, c := range corpus {
		c := c
		t.Run(c.name, func(t *testing.T) {
			in, fn := loadCorpusKernel(t, c)
			rep := autopar.AnalyzeStatic(in, fn)
			if rep.Verdict != c.want {
				t.Fatalf("static verdict = %s, want %s (reasons: %v)", rep.Verdict, c.want, rep.Reasons)
			}
			if c.wantCode != "" {
				found := false
				for _, code := range rep.ReasonCodes() {
					if strings.Contains(code, c.wantCode) {
						found = true
					}
				}
				if !found {
					t.Errorf("reason chain %v missing code %q", rep.ReasonCodes(), c.wantCode)
				}
			}
			if c.want == effects.Proven && len(rep.Reasons) != 0 {
				t.Errorf("Proven verdict carries reasons: %v", rep.Reasons)
			}

			oc := runCorpusKernel(in, fn)
			dynPure := oc.Pure
			switch {
			case c.want == effects.Proven:
				// Soundness: a Proven kernel must never trip the Guard.
				if !dynPure {
					t.Fatalf("SOUNDNESS: statically Proven but Guard observed: %s", oc.AbortReason)
				}
			case c.want == effects.Refuted && !c.guardExempt:
				// Completeness spot-check: the refuted write really
				// happens and the Guard sees it too.
				if dynPure {
					t.Errorf("statically Refuted (%v) but Guard observed nothing", rep.ReasonCodes())
				}
			}
			switch c.dynPure {
			case "pure":
				if !dynPure {
					t.Errorf("expected dynamically pure, Guard observed: %s", oc.AbortReason)
				}
			case "impure":
				if dynPure {
					t.Errorf("expected dynamically impure, Guard observed nothing")
				}
			}
		})
	}
}

// sourceResolver resolves names from a parsed program's top-level
// declarations alone, with no interpreter: function declarations and
// function-literal vars are inspectable callees, other vars are data,
// ambient names are pristine builtins, anything else is Unknown. It
// returns the program's __f literal too.
func sourceResolver(t *testing.T, c corpusCase) (*ast.FuncLit, effects.Resolver) {
	t.Helper()
	prog, err := parser.Parse(c.prelude + "\nvar __f = (" + c.elem + ");\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var kernel *ast.FuncLit
	decls := map[string]effects.Callee{}
	for _, s := range prog.Body {
		switch d := s.(type) {
		case *ast.FuncDecl:
			decls[d.Name] = effects.Callee{Kind: effects.CalleeFunc, Fn: d.Fn}
		case *ast.VarDecl:
			for i, name := range d.Names {
				lit, ok := d.Inits[i].(*ast.FuncLit)
				switch {
				case name == "__f" && ok:
					kernel = lit
				case ok:
					decls[name] = effects.Callee{Kind: effects.CalleeFunc, Fn: lit}
				default:
					decls[name] = effects.Callee{Kind: effects.CalleeData}
				}
			}
		}
	}
	if kernel == nil {
		t.Fatalf("no __f function literal")
	}
	return kernel, func(name string) effects.Callee {
		if c, ok := decls[name]; ok {
			return c
		}
		if effects.Ambient[name] {
			return effects.Callee{Kind: effects.CalleeAmbient}
		}
		return effects.Callee{Kind: effects.CalleeUnknown}
	}
}

// TestCorpusEnvVsSourceAgreement: the engine's closure-environment
// resolver (autopar.AnalyzeStatic on the loaded __f) must agree with a
// resolver read off the source text alone — two roads into the same
// prover, so a resolver bug shows as a disagreement.
func TestCorpusEnvVsSourceAgreement(t *testing.T) {
	for _, c := range corpus {
		c := c
		t.Run(c.name, func(t *testing.T) {
			lit, res := sourceResolver(t, c)
			srcRep := effects.AnalyzeFunc(lit, res)
			in, fn := loadCorpusKernel(t, c)
			envRep := autopar.AnalyzeStatic(in, fn)
			if envRep.Verdict != srcRep.Verdict {
				t.Errorf("env verdict %s != source verdict %s (env: %v, src: %v)",
					envRep.Verdict, srcRep.Verdict, envRep.Reasons, srcRep.Reasons)
			}
			if env, src := strings.Join(envRep.ReasonCodes(), ","), strings.Join(srcRep.ReasonCodes(), ","); env != src {
				t.Errorf("env reason codes %q != source reason codes %q", env, src)
			}
		})
	}
}
