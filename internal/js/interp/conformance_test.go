package interp

// conformance_test.go is the differential suite that lets us trust the
// engine (compile.go/slots.go/exec.go): every program runs through both
// the reference tree walk (treewalk_test.go) and Run and must produce
// byte-identical console output, identical thrown-error messages,
// identical step counts (the virtual clock is observable) and an
// identical instrumentation event stream (autopar's guards ride on it).
// FuzzInterpDifferential (fuzz_test.go) extends the same oracle to
// arbitrary parseable inputs.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/printer"
	"repro/internal/js/value"
)

// traceHooks records every instrumentation event as a comparable string.
// Bindings and objects are identified by name/class, not pointer, so
// traces from two interpreters can be compared directly.
type traceHooks struct {
	ev []string
}

func (h *traceHooks) add(format string, args ...any) {
	h.ev = append(h.ev, fmt.Sprintf(format, args...))
}

func bindName(b *Binding) string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}

func (h *traceHooks) LoopEnter(id ast.LoopID) { h.add("loop-enter %d", id) }
func (h *traceHooks) LoopIter(id ast.LoopID)  { h.add("loop-iter %d", id) }
func (h *traceHooks) LoopExit(id ast.LoopID)  { h.add("loop-exit %d", id) }
func (h *traceHooks) LoopHeader(id ast.LoopID, active bool) {
	h.add("loop-header %d %v", id, active)
}
func (h *traceHooks) BranchTaken(branchID int, taken bool) {
	h.add("branch %d %v", branchID, taken)
}
func (h *traceHooks) CallEnter(name string) { h.add("call-enter %s", name) }
func (h *traceHooks) CallExit(name string)  { h.add("call-exit %s", name) }
func (h *traceHooks) VarDeclare(name string, b *Binding) {
	h.add("var-decl %s %s", name, bindName(b))
}
func (h *traceHooks) VarRead(name string, b *Binding)  { h.add("var-read %s", name) }
func (h *traceHooks) VarWrite(name string, b *Binding) { h.add("var-write %s", name) }
func (h *traceHooks) ObjectNew(o *value.Object)        { h.add("obj-new %s", o.Class) }
func (h *traceHooks) PropRead(o *value.Object, key string, via *Binding) {
	h.add("prop-read %s %s via=%s", o.Class, key, bindName(via))
}
func (h *traceHooks) PropWrite(o *value.Object, key string, via *Binding) {
	h.add("prop-write %s %s via=%s", o.Class, key, bindName(via))
}

// diffResult is everything observable from one run.
type diffResult struct {
	parseErr    string
	runErr      string
	console     []string
	steps       int64
	trace       []string
	stepLimited bool
}

const diffMaxSteps = 200_000

// runEngine executes src on a fresh interpreter: through Run when
// compiled, on the reference tree walk otherwise.
func runEngine(src string, compiled bool) diffResult {
	return runEngineBudget(src, compiled, diffMaxSteps)
}

func runEngineBudget(src string, compiled bool, maxSteps int64) diffResult {
	var res diffResult
	prog, err := parser.Parse(src)
	if err != nil {
		res.parseErr = err.Error()
		return res
	}
	in := New(WithSeed(7), WithMaxSteps(maxSteps))
	rec := &traceHooks{}
	in.SetHooks(rec)
	if err := in.RunEngine(prog, compiled); err != nil {
		res.runErr = err.Error()
		res.stepLimited = strings.Contains(err.Error(), "step limit exceeded")
	}
	res.console = in.Console()
	res.steps = in.Steps()
	res.trace = rec.ev
	return res
}

// diffEngines runs src through both evaluators and reports the first
// divergence, "" if they agree.
func diffEngines(src string) string {
	tw := runEngine(src, false)
	cp := runEngine(src, true)
	if tw.parseErr != cp.parseErr {
		return fmt.Sprintf("parse error mismatch: tree-walk %q vs compiled %q", tw.parseErr, cp.parseErr)
	}
	if tw.parseErr != "" {
		return ""
	}
	if tw.runErr != cp.runErr {
		return fmt.Sprintf("run error mismatch:\n  tree-walk: %q\n  compiled:  %q", tw.runErr, cp.runErr)
	}
	if a, b := strings.Join(tw.console, "\n"), strings.Join(cp.console, "\n"); a != b {
		return fmt.Sprintf("console mismatch:\n--- tree-walk ---\n%s\n--- compiled ---\n%s", a, b)
	}
	// Steps are observable virtual time. The one tolerated difference:
	// at the step-limit fatal, folded constants may overshoot the limit
	// by a few pre-counted steps.
	if !tw.stepLimited && tw.steps != cp.steps {
		return fmt.Sprintf("step mismatch: tree-walk %d vs compiled %d", tw.steps, cp.steps)
	}
	if len(tw.trace) != len(cp.trace) {
		return fmt.Sprintf("trace length mismatch: tree-walk %d vs compiled %d\n%s",
			len(tw.trace), len(cp.trace), firstTraceDiff(tw.trace, cp.trace))
	}
	for i := range tw.trace {
		if tw.trace[i] != cp.trace[i] {
			return fmt.Sprintf("trace mismatch at event %d: tree-walk %q vs compiled %q", i, tw.trace[i], cp.trace[i])
		}
	}
	return ""
}

func firstTraceDiff(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first divergence at event %d: tree-walk %q vs compiled %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("traces agree for the first %d events; lengths differ", n)
}

// conformanceCorpus is the differential program table. Every entry must
// behave identically on both evaluators; the fuzzer seeds from it.
var conformanceCorpus = []struct {
	name string
	src  string
}{
	// --- literals, folding, numerics ---
	{"const-arith", `console.log(1 + 2 * 3 - 4 / 2);`},
	{"const-fold-nested", `console.log(((1 + 2) * (3 + 4)) % 5, -(2 + 3), !(1 < 2));`},
	{"string-concat", `console.log("a" + 1 + 2, 1 + 2 + "a", "x" + true + null + undefined);`},
	{"nan-propagation", `var x = 0 / 0; console.log(x, x === x, x !== x, x == x);`},
	{"nan-compare", `console.log(NaN < 1, NaN > 1, NaN <= NaN, 1 >= NaN);`},
	{"signed-zero", `var nz = -0; console.log(nz === 0, 1 / nz, 1 / 0, -1 / 0);`},
	{"int32-ops", `console.log(5 & 3, 5 | 3, 5 ^ 3, ~5, 1 << 31, (1 << 31) >> 31, -1 >>> 0);`},
	{"shift-masking", `console.log(1 << 33, 256 >> 33, 256 >>> 33);`},
	{"float-precision", `console.log(0.1 + 0.2, 0.1 + 0.2 === 0.3, 9007199254740993);`},
	{"number-to-string-keys", `var o = {}; o[1] = "a"; o["1.0"] = "b"; o[1.0] = "c"; console.log(o[1], o["1"], o["1.0"]);`},
	{"loose-vs-strict", `console.log(1 == "1", 1 === "1", null == undefined, null === undefined, "" == 0);`},
	{"modulo", `console.log(7 % 3, -7 % 3, 7 % -3, 7.5 % 2, 0 % 5, 5 % 0);`},
	{"parse-numbers", `console.log(parseInt("42px"), parseFloat("3.14x"), isNaN("abc"), isFinite("10"));`},
	{"infinity-arith", `console.log(Infinity - Infinity, Infinity * 0, 1e308 * 10, -Infinity + 5);`},
	{"string-escapes", `var s = "\u0041\x42\b\v\f|\u00e9|\uD83D\uDE00"; console.log(s.charCodeAt(0), s.charCodeAt(1), s.charCodeAt(2), s.charCodeAt(3), s.charCodeAt(4), s === "AB" + String.fromCharCode(8, 11, 12) + "|é|😀", "\q\/\0".length);`},
	{"string-compare", `console.log("a" < "b", "abc" < "abd", "Z" < "a", "10" < "9", 10 < 9);`},

	// --- variables, scoping, closures ---
	{"var-hoisting", `console.log(x); var x = 5; console.log(x);`},
	{"func-hoisting", `console.log(f()); function f() { return 42; }`},
	{"closure-counter", `function mk() { var n = 0; return function () { n = n + 1; return n; }; } var c = mk(); console.log(c(), c(), c()); var d = mk(); console.log(d(), c());`},
	{"closure-shared-env", `function mk() { var x = 0; return [function () { x = x + 1; }, function () { return x; }]; } var p = mk(); p[0](); p[0](); console.log(p[1]());`},
	{"shadowing-param", `var x = "outer"; function f(x) { x = x + "!"; return x; } console.log(f("inner"), x);`},
	{"shadowing-var", `var x = 1; function f() { var x = 2; function g() { var x = 3; return x; } return g() + x; } console.log(f(), x);`},
	{"closure-in-loop", `var fns = []; for (var i = 0; i < 3; i = i + 1) { fns.push(function () { return i; }); } console.log(fns[0](), fns[1](), fns[2]());`},
	{"closure-in-loop-iife", `var fns = []; for (var i = 0; i < 3; i = i + 1) { fns.push((function (j) { return function () { return j; }; })(i)); } console.log(fns[0](), fns[1](), fns[2]());`},
	{"implicit-global", `function f() { leaked = 99; } f(); console.log(leaked);`},
	{"typeof-unbound", `console.log(typeof nosuch, typeof undefined, typeof null, typeof 1, typeof "s", typeof {}, typeof f); function f() {}`},
	{"nested-closure-depth", `function a() { var va = 1; function b() { var vb = 2; function c() { var vc = 3; return va + vb + vc; } return c(); } return b(); } console.log(a());`},
	{"arguments-object", `function f() { var s = 0; for (var i = 0; i < arguments.length; i = i + 1) { s = s + arguments[i]; } return s; } console.log(f(1, 2, 3), f(), f(10));`},
	{"param-default-undefined", `function f(a, b) { return "" + a + "," + b; } console.log(f(1), f(1, 2), f());`},
	{"this-global", `function f() { return typeof this; } console.log(f());`},
	{"this-method", `var o = { n: 7, get: function () { return this.n; } }; console.log(o.get());`},
	{"var-redeclare", `var x = 1; var x; console.log(x); var x = 2; console.log(x);`},
	{"write-outer-from-inner", `var total = 0; function add(n) { total = total + n; } add(3); add(4); console.log(total);`},
	{"self-reference-recursion", `function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } console.log(fib(10));`},
	{"mutual-recursion", `function even(n) { if (n === 0) { return true; } return odd(n - 1); } function odd(n) { if (n === 0) { return false; } return even(n - 1); } console.log(even(10), odd(7));`},
	{"func-expr-name", `var f = function named(n) { if (n <= 0) { return 0; } return n + f(n - 1); }; console.log(f(4), f.name, f.length);`},

	// --- control flow ---
	{"early-return-loop", `function find(a, x) { for (var i = 0; i < a.length; i = i + 1) { if (a[i] === x) { return i; } } return -1; } console.log(find([5, 6, 7], 6), find([5], 9));`},
	{"break-continue", `var s = ""; for (var i = 0; i < 10; i = i + 1) { if (i % 2 === 0) { continue; } if (i > 6) { break; } s = s + i; } console.log(s);`},
	{"nested-loop-break", `var c = 0; for (var i = 0; i < 3; i = i + 1) { for (var j = 0; j < 3; j = j + 1) { if (j === 1) { break; } c = c + 1; } } console.log(c);`},
	{"while-loop", `var n = 1; while (n < 100) { n = n * 2; } console.log(n);`},
	{"do-while", `var n = 100; do { n = n + 1; } while (n < 5); console.log(n);`},
	{"for-no-init", `var i = 0; for (; i < 3;) { i = i + 1; } console.log(i);`},
	{"for-in-object", `var o = { a: 1, b: 2, c: 3 }; var ks = ""; for (var k in o) { ks = ks + k; } console.log(ks);`},
	{"for-in-array", `var a = [10, 20, 30]; var s = 0; for (var i in a) { s = s + a[i]; } console.log(s, typeof i);`},
	{"for-in-primitive", `var hit = false; for (var k in 42) { hit = true; } console.log(hit);`},
	{"for-in-early-return", `function first(o) { for (var k in o) { return k; } return "none"; } console.log(first({ z: 1, y: 2 }), first({}));`},
	{"switch-fallthrough", `function f(x) { var s = ""; switch (x) { case 1: s = s + "a"; case 2: s = s + "b"; break; case 3: s = s + "c"; default: s = s + "d"; } return s; } console.log(f(1), f(2), f(3), f(4));`},
	{"switch-return", `function f(x) { switch (x) { case "a": return 1; default: return 0; } } console.log(f("a"), f("b"));`},
	{"cond-expr", `var x = 5; console.log(x > 3 ? "big" : "small", x > 9 ? "b" : x > 4 ? "m" : "s");`},
	{"short-circuit", `var log = ""; function t(x) { log = log + x; return x; } var r = t("a") && t("b") || t("c"); console.log(r, log); log = ""; var q = false && t("x") || t("y"); console.log(q, log);`},
	{"logical-values", `console.log(0 || "dflt", "" || null || 7, 1 && 2 && 3, null && 1, undefined || false);`},
	{"empty-statements", `var x = 1;;; if (x) {;} ; console.log(x);`},
	{"seq-expr", `var a = (1, 2, 3); var b = 0; var c = (b = 5, b + 1); console.log(a, b, c);`},

	// --- errors ---
	{"throw-string", `try { throw "boom"; } catch (e) { console.log("caught", e); }`},
	{"throw-uncaught", `function f() { throw new Error("kaput"); } f();`},
	{"reference-error", `console.log(nope);`},
	{"type-error-call", `var o = {}; o.m();`},
	{"type-error-nullish", `var o = null; console.log(o.x);`},
	{"error-object", `try { null.x; } catch (e) { console.log(e.name, e.message); }`},
	{"catch-shadowing", `var e = "outer"; try { throw "inner"; } catch (e) { console.log(e); } console.log(e);`},
	{"catch-writes-outer", `var x = 1; try { throw 2; } catch (e) { x = e; } console.log(x);`},
	{"catch-closure", `var get; try { throw 42; } catch (e) { get = function () { return e; }; } console.log(get());`},
	{"nested-try", `var s = ""; try { try { throw "a"; } catch (e) { s = s + "c1:" + e; throw "b"; } finally { s = s + ",f1"; } } catch (e) { s = s + ",c2:" + e; } finally { s = s + ",f2"; } console.log(s);`},
	{"finally-runs-on-return", `var s = ""; function f() { try { return "r"; } finally { s = s + "fin"; } } console.log(f(), s);`},
	{"finally-overrides", `function f() { try { return 1; } finally { return 2; } } console.log(f());`},
	{"rethrow", `function f() { try { throw new Error("orig"); } catch (e) { throw e; } } try { f(); } catch (e) { console.log(e.message); }`},
	{"throw-in-loop", `var s = ""; for (var i = 0; i < 5; i = i + 1) { try { if (i === 2) { throw i; } s = s + i; } catch (e) { s = s + "!" + e; } } console.log(s);`},
	{"try-in-catch-fn", `try { throw 1; } catch (e) { function g() { return e + 1; } console.log(g()); }`},
	{"stack-overflow", `function f() { return f(); } f();`},
	{"throw-from-callee", `function inner() { throw new Error("deep"); } function outer() { inner(); } try { outer(); } catch (e) { console.log("got", e.message); }`},

	// --- objects, arrays, properties ---
	{"object-literal", `var o = { a: 1, b: "two", c: { d: 3 } }; console.log(o.a, o.b, o.c.d, o.missing);`},
	{"property-write-chain", `var o = {}; o.a = {}; o.a.b = {}; o.a.b.c = 9; console.log(o.a.b.c);`},
	{"index-vs-member", `var o = { x: 1 }; var k = "x"; console.log(o["x"], o[k], o.x); o[k] = 2; console.log(o.x);`},
	{"delete-prop", `var o = { a: 1, b: 2 }; console.log(delete o.a, o.a, delete o.nosuch, delete 5); var k = "b"; console.log(delete o[k], o.b);`},
	{"in-operator", `var o = { a: undefined }; console.log("a" in o, "b" in o, 0 in [9], 3 in [9]);`},
	{"array-basics", `var a = [1, 2, 3]; a.push(4); console.log(a.length, a[0], a[3], a.pop(), a.length);`},
	{"array-methods", `var a = [3, 1, 2]; console.log(a.join("-"), a.indexOf(2), a.slice(1).join(","), a.concat([4]).join(","));`},
	{"array-holes-growth", `var a = []; a[3] = "x"; console.log(a.length, a[0], a[3]);`},
	{"array-method-identity", `var a = []; console.log(typeof a.push, a.push === a.push);`},
	{"prototype-new", `function P(x) { this.x = x; } P.prototype.getX = function () { return this.x; }; var p = new P(5); console.log(p.getX(), p instanceof P);`},
	{"prototype-shared", `function C() {} C.prototype.n = 1; var a = new C(); var b = new C(); console.log(a.n, b.n); a.n = 5; console.log(a.n, b.n, C.prototype.n);`},
	{"new-returns-object", `function F() { this.a = 1; return { b: 2 }; } function G() { this.a = 1; return 5; } console.log(new F().b, new F().a, new G().a);`},
	{"new-builtin", `var a = new Array(1, 2, 3); var e = new Error("msg"); console.log(a.length, e.message, e instanceof Error);`},
	{"call-apply", `function f(a, b) { return this.n + a + b; } console.log(f.call({ n: 1 }, 2, 3), f.apply({ n: 10 }, [2, 3]));`},
	{"update-exprs", `var i = 5; console.log(i++, i, ++i, i, i--, --i); var a = [1]; console.log(a[0]++, a[0]);`},
	{"compound-assign", `var x = 10; x += 5; x -= 3; x *= 2; x /= 4; x %= 4; console.log(x); var s = "a"; s += "b"; console.log(s); var o = { n: 1 }; o.n += 9; console.log(o.n);`},
	{"string-methods", `var s = "Hello World"; console.log(s.length, s.charAt(1), s.indexOf("o"), s.slice(6), s.toUpperCase(), s.split(" ").length);`},
	{"number-methods", `var n = 3.14159; console.log(n.toFixed(2), (255).toString(16), Math.floor(n), Math.round(n));`},
	{"math-builtins", `console.log(Math.max(1, 9, 4), Math.min(-1, 2), Math.abs(-7), Math.pow(2, 10), Math.sqrt(144));`},
	{"seeded-random", `var a = Math.random(); var b = Math.random(); console.log(a === b, a > 0 && a < 1, b > 0 && b < 1);`},
	{"object-keys-order", `var o = {}; o.z = 1; o.a = 2; o.m = 3; delete o.a; o.a = 4; var ks = ""; for (var k in o) { ks = ks + k; } console.log(ks);`},
	{"nested-data", `var db = { users: [{ name: "ann", tags: ["x", "y"] }, { name: "bob", tags: [] }] }; console.log(db.users[0].tags[1], db.users[1].name, db.users.length);`},
	{"prop-via-this", `function T() { this.v = 1; this.bump = function () { this.v = this.v + 1; return this.v; }; } var t = new T(); console.log(t.bump(), t.bump());`},

	// --- workloads: compiled/tree-walk interplay ---
	{"nbody-ish-kernel", `var pos = []; for (var i = 0; i < 8; i = i + 1) { pos.push({ x: i, y: i * 2 }); } var fsum = 0; for (var i = 0; i < pos.length; i = i + 1) { for (var j = 0; j < pos.length; j = j + 1) { if (i !== j) { var dx = pos[i].x - pos[j].x; var dy = pos[i].y - pos[j].y; fsum = fsum + dx * dx + dy * dy; } } } console.log(fsum);`},
	{"string-builder", `var parts = []; for (var i = 0; i < 5; i = i + 1) { parts.push("p" + i); } console.log(parts.join("|"));`},
	{"memoize", `var cache = {}; function sq(n) { var k = "" + n; if (k in cache) { return cache[k]; } var v = n * n; cache[k] = v; return v; } console.log(sq(4), sq(4), sq(5), cache["4"]);`},
	{"higher-order", `function map(a, f) { var out = []; for (var i = 0; i < a.length; i = i + 1) { out.push(f(a[i], i)); } return out; } console.log(map([1, 2, 3], function (x, i) { return x * 10 + i; }).join(","));`},
	{"step-limit-parity", `var i = 0; while (true) { i = i + 1; }`},
}

// TestConformanceDifferential runs every corpus program through both
// evaluators and requires full observable agreement.
func TestConformanceDifferential(t *testing.T) {
	if len(conformanceCorpus) < 60 {
		t.Fatalf("conformance corpus has %d programs, want >= 60", len(conformanceCorpus))
	}
	for _, tc := range conformanceCorpus {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if d := diffEngines(tc.src); d != "" {
				t.Fatalf("engines diverge:\n%s\nprogram:\n%s", d, tc.src)
			}
		})
	}
}

// TestConformancePrintRoundTrip holds the printer to the corpus: what it
// prints of a program parses, prints to the same text again, and runs to
// the same console output and error — autopar's workers run printed
// closures, so a paren or escape the printer drops is a wrong answer
// there. (Steps differ: the printer braces every branch and loop body.)
func TestConformancePrintRoundTrip(t *testing.T) {
	for _, tc := range conformanceCorpus {
		once := printer.Print(parser.MustParse(tc.src))
		p2, err := parser.Parse(once)
		if err != nil {
			t.Errorf("%s: printed text does not parse: %v\n%s", tc.name, err, once)
			continue
		}
		if twice := printer.Print(p2); twice != once {
			t.Errorf("%s: print is not a fixpoint:\n--- once ---\n%s--- twice ---\n%s", tc.name, once, twice)
		}
		want, got := runEngine(tc.src, true), runEngine(once, true)
		if want.stepLimited {
			continue
		}
		if a, b := strings.Join(want.console, "\n"), strings.Join(got.console, "\n"); a != b || want.runErr != got.runErr {
			t.Errorf("%s: printed program behaves differently:\n--- source: %q\n%s\n--- printed: %q\n%s",
				tc.name, want.runErr, a, got.runErr, b)
		}
	}
}

// TestConformanceCorpusNontrivial guards against silently-dead corpus
// entries: every program must parse.
func TestConformanceCorpusNontrivial(t *testing.T) {
	for _, tc := range conformanceCorpus {
		if _, err := parser.Parse(tc.src); err != nil {
			t.Errorf("%s: does not parse: %v", tc.name, err)
		}
	}
}
