package interp

// conformance_test.go is the differential suite that lets us trust the
// engine (compile.go/slots.go/exec.go): every program runs through both
// the reference tree walk (treewalk_test.go) and Run and must produce
// byte-identical console output, identical thrown-error messages,
// identical step counts (the virtual clock is observable) and an
// identical instrumentation event stream (autopar's guards ride on it).
// Run goes a third time with no hooks attached and must match its hooked
// run in output, error and steps, and a fourth time with a recorder that
// has only the loop and call methods (the light job's events), whose trace
// must be the full one with every other event left out.
// FuzzInterpDifferential (fuzz_test.go) extends the same oracle to
// arbitrary parseable inputs.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// eventLog is a trace of instrumentation events as comparable strings.
// Bindings and objects are identified by name/class, not pointer, so
// traces from two interpreters can be compared directly.
type eventLog struct{ ev []string }

func (l *eventLog) add(format string, args ...any) {
	l.ev = append(l.ev, fmt.Sprintf(format, args...))
}

func (l *eventLog) events() []string { return l.ev }

func bindName(b *Binding) string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}

// loopCallHooks records the loop and call events only: it has no other
// event method, so SetHooks sends it nothing else.
type loopCallHooks struct{ eventLog }

func (h *loopCallHooks) LoopEnter(id ast.LoopID) { h.add("loop-enter %d", id) }
func (h *loopCallHooks) LoopIter(id ast.LoopID)  { h.add("loop-iter %d", id) }
func (h *loopCallHooks) LoopExit(id ast.LoopID)  { h.add("loop-exit %d", id) }
func (h *loopCallHooks) LoopHeader(id ast.LoopID, active bool) {
	h.add("loop-header %d %v", id, active)
}
func (h *loopCallHooks) CallEnter(name string) { h.add("call-enter %s", name) }
func (h *loopCallHooks) CallExit(name string)  { h.add("call-exit %s", name) }

// traceHooks records every instrumentation event.
type traceHooks struct{ loopCallHooks }

func (h *traceHooks) BranchTaken(branchID int, taken bool) {
	h.add("branch %d %v", branchID, taken)
}
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

// runEngine executes src on a fresh hooked interpreter: through Run when
// compiled, on the reference tree walk otherwise.
func runEngine(src string, compiled bool) diffResult {
	return runEngineBudget(src, compiled, &traceHooks{}, diffMaxSteps)
}

// recorder is a hook that keeps a trace of what it was sent.
type recorder interface{ events() []string }

// runEngineBudget is runEngine with a step budget and the recorder rec;
// with rec nil no hooks are attached and the trace stays empty.
func runEngineBudget(src string, compiled bool, rec recorder, maxSteps int64) diffResult {
	return runEngineOn(New(WithSeed(7), WithMaxSteps(maxSteps)), src, compiled, rec)
}

// runEngineOn is runEngineBudget on the fresh interpreter in.
func runEngineOn(in *Interp, src string, compiled bool, rec recorder) diffResult {
	var res diffResult
	prog, err := parser.Parse(src)
	if err != nil {
		res.parseErr = err.Error()
		return res
	}
	in.SetHooks(rec)
	if err := in.RunEngine(prog, compiled); err != nil {
		res.runErr = err.Error()
		res.stepLimited = strings.Contains(err.Error(), "step limit exceeded")
	}
	res.console = in.Console()
	res.steps = in.Steps()
	if rec != nil {
		res.trace = rec.events()
	}
	return res
}

// diffEngines runs src through both evaluators and reports the first
// divergence, "" if they agree.
func diffEngines(src string) string { return diffEnginesBudget(src, diffMaxSteps) }

// diffEnginesBudget compares the tree walk and Run, both hooked, and then
// against the hooked Run: Run with no hooks — the path unhooked callers
// such as autopar's workers take — and Run with a recorder of the light
// job's classes, which keeps the unhooked fast paths. A fast path that
// behaves differently, or drops a loop or call event, shows up here.
func diffEnginesBudget(src string, maxSteps int64) string {
	tw := runEngineBudget(src, false, &traceHooks{}, maxSteps)
	cp := runEngineBudget(src, true, &traceHooks{}, maxSteps)
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
	bare := runEngineBudget(src, true, nil, maxSteps)
	if d := diffOutcome(cp, bare, "unhooked"); d != "" {
		return d
	}
	light := runEngineBudget(src, true, &loopCallHooks{}, maxSteps)
	if d := diffOutcome(cp, light, "loop-and-call-hooked"); d != "" {
		return d
	}
	var want []string
	for _, e := range cp.trace {
		if strings.HasPrefix(e, "loop-") || strings.HasPrefix(e, "call-") {
			want = append(want, e)
		}
	}
	if a, b := strings.Join(want, "\n"), strings.Join(light.trace, "\n"); a != b {
		return fmt.Sprintf("loop-and-call trace differs from the full trace's loop and call events (%d vs %d events)\n%s",
			len(want), len(light.trace), firstTraceDiff(want, light.trace))
	}
	return ""
}

// diffOutcome compares the console, error and steps of another run of the
// compiled engine with its fully hooked run cp.
func diffOutcome(cp, other diffResult, leg string) string {
	if a, b := strings.Join(cp.console, "\n"), strings.Join(other.console, "\n"); a != b || cp.runErr != other.runErr || cp.steps != other.steps {
		return fmt.Sprintf("%s run differs from hooked: error %q vs %q, %d vs %d steps\n--- hooked ---\n%s\n--- %s ---\n%s",
			leg, cp.runErr, other.runErr, cp.steps, other.steps, a, leg, b)
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
	{"negative-zero-keys", `var a = [7, 8]; var o = {}; o[0] = "zero"; o[-0] = "negzero"; a[-0] = 9; console.log(a[-0], a[0], o[0], o[-0], String(-0), (-0) + "", 1 / -0, -0 === 0, a.length);`},
	{"leading-zero-keys", `var o = {}; o[1] = "num"; o["01"] = "str"; var a = [10, 20]; a["01"] = 30; console.log(o[1], o["1"], o["01"], o[0 + 1], a[1], a["01"], a.length);`},
	{"large-index-keys", `var a = []; a[5000] = "far"; a[4095] = "edge"; var o = {}; o[123456] = 1; console.log(a.length, a[5000], a["4095"], o["123456"], a[-1], a[2.5]);`},
	{"loose-vs-strict", `console.log(1 == "1", 1 === "1", null == undefined, null === undefined, "" == 0);`},
	{"modulo", `console.log(7 % 3, -7 % 3, 7 % -3, 7.5 % 2, 0 % 5, 5 % 0);`},
	{"parse-numbers", `console.log(parseInt("42px"), parseFloat("3.14x"), isNaN("abc"), isFinite("10"));`},
	{"numeric-strings-es5", `console.log(Number("inf"), Number("1_000"), Number("1e1000"), Number("0x10000000000000000"), parseFloat("1e1000"), parseFloat("inf"), parseFloat("1_000")); console.log(parseInt("  -0x10"), parseInt("-0x10", 16), parseInt("123456789012345678901234567890"), 1e1000, 0x10000000000000000, parseInt("0x10", 10), 1e-400);`},
	{"infinity-arith", `console.log(Infinity - Infinity, Infinity * 0, 1e308 * 10, -Infinity + 5);`},
	{"string-escapes", `var s = "\u0041\x42\b\v\f|\u00e9|\uD83D\uDE00"; console.log(s.charCodeAt(0), s.charCodeAt(1), s.charCodeAt(2), s.charCodeAt(3), s.charCodeAt(4), s === "AB" + String.fromCharCode(8, 11, 12) + "|é|😀", "\q\/\0".length);`},
	{"string-compare", `console.log("a" < "b", "abc" < "abd", "Z" < "a", "10" < "9", 10 < 9);`},
	{"string-index-canonical", `var s = "abc"; var k = ["01", "+1", "-0", "+0", "1", "0", "2", "3", "-1", " 1", "1.0", "1e0"]; var out = []; for (var i = 0; i < k.length; i = i + 1) { out.push(k[i] + "=" + s[k[i]]); } console.log(out.join(" ")); console.log(s[1], s[-0], s[0 + 2], s[3], s["length"]);`},

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
	{"arguments-shadowing", `function f(arguments) { return typeof arguments; } function g() { function arguments() { return 1; } return typeof arguments; } function h(a, b) { var arguments; return arguments.length; } function k(a) { for (arguments in { p: 1 }) {} return arguments + a; } console.log(f(5), g(), h(5, 6), k(1), f());`},
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
	{"array-length-invalid", `var bad = [-1, NaN, Infinity, -Infinity, 1.5, 4294967296]; var out = []; for (var i = 0; i < bad.length; i++) { try { Array(bad[i]); out.push("ok"); } catch (e) { out.push(e.name); } } console.log(out.join(" "));`},
	{"new-array-negative", `try { new Array(-5); console.log("ok"); } catch (e) { console.log(e.name, e.message); }`},
	{"array-length-valid", `console.log(Array(0).length, new Array(3).length, Array(-0).length, Array("3").length, Array(2.0).length);`},
	{"array-length-uncaught", "var n = -1;\nvar a = Array(n);\nconsole.log(a.length);"},
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

	// --- leaf calls: with no hooks, a function that holds no function
	// literal and never names arguments runs in an activation pooled per
	// call depth; these hold the pool's edges to the tree walk ---
	{"leaf-recursion", `function fib(n) { var a, b; if (n < 2) { return n; } a = fib(n - 1); b = fib(n - 2); return a + b; } function even(n, tag) { var m = n - 1; if (n === 0) { return tag + "even"; } return odd(m, tag + m); } function odd(n, tag) { var m = n - 1; if (n === 0) { return tag + "odd"; } return even(m, tag + m); } console.log(fib(12), even(6, ""), odd(5, "<"), fib(1));`},
	{"leaf-own-argument", `function f(a, b) { var t = a * 100; if (b !== undefined) { t = t + b; } return t; } console.log(f(f(1), f(2)), f(f(f(3), 4), f(5, f(6))), f(1, f(1, f(1, 1))));`},
	{"leaf-throw-two-frames", `function thrower(n) { var x = n * 2; if (n > 2) { throw new Error("big " + x); } return x; } function mid(n) { var r = thrower(n); return r + 1; } function top(n) { var s = "t"; try { s = s + mid(n); } catch (e) { s = s + e.message; } return s + thrower(1) + mid(0); } console.log(top(1), top(5), top(2)); var after = []; for (var i = 0; i < 3; i = i + 1) { after.push(mid(i)); } console.log(after.join(","));`},
	{"leaf-native-callback", `function dbl(x, i) { var y = x * 2; return y + i; } function byValue(a, b) { var d = a - b; return d; } var sum = 0; function add(x) { sum = sum + x; } function rows(r) { var s = 0; r.forEach(add); return r.map(dbl).join("/"); } var a = [5, 3, 9, 1]; console.log(a.map(dbl).join(","), a.slice().sort(byValue).join(",")); a.forEach(add); console.log(sum, [[1, 2], [3]].map(rows).join(" "), sum);`},
	{"leaf-overflow-recovers", `function deep(n) { var k = n + 1; return deep(k); } function probe(n) { var k = n + 1; return k; } var r = "none"; try { deep(0); } catch (e) { r = e.message; } console.log(r, probe(1), probe(2)); try { deep(0); } catch (e) { r = e.name; } console.log(r, probe(41), [probe(1), probe(2)].join(","));`},
	{"leaf-arg-counts", `function nine(a, b, c, d, e, f, g, h, i) { return [a, b, c, d, e, f, g, h, i].join(""); } function eight(a, b, c, d, e, f, g, h) { return a + h; } function two(a, b) { return "" + a + "," + b; } console.log(nine(1, 2, 3, 4, 5, 6, 7, 8, 9), nine(1, 2), eight(1, 2, 3, 4, 5, 6, 7, 8), two(1), two(), two(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), two(two(1), nine(9, 8, 7, 6, 5, 4, 3, 2, 1, 0)));`},
	{"leaf-method-this", `function who() { return typeof this; } var o = { n: 7, who: who, get: function () { return this.n; }, add: function (k) { var t = this.n + k; return t; } }; var p = { n: 100, get: o.get }; console.log(o.get(), o.add(3), p.get(), o["add"](1), o.who(), who(), p.get() + o.get());`},
	// --- native calls take their arguments in a window of the
	// interpreter's argument stack; what a native keeps or forwards must
	// not see a later call's arguments (outputs are Node.js's) ---
	{"native-apply-copies", `function f() { arguments[0] = 9; return arguments[0]; } var a = [1, 2]; console.log(a[0], f.apply(null, a), a[0], a.join(","));`},
	{"native-call-forwards", `function g() { return arguments; } var r = g.call(null, 5, 6); var m = Math.max(1, 2, 3); console.log(r[0], r[1], r.length, m);`},
	{"native-array-ctor-keeps", `var a = Array(3, 4); var b = new Array(5, 6); var m = Math.min(7, 8); console.log(a.join(" "), b.join(" "), a.length, m);`},

	// --- mixed operand types through the numeric fast paths: operands
	// come from variables so nothing folds, in every condition position
	// and in plain expressions, on locals and on globals ---
	{"mixed-compare-values", mixedPairs + `function cmp(a, b) { var r = ""; if (a < b) { r = r + "<"; } if (a > b) { r = r + ">"; } if (a <= b) { r = r + "<="; } if (a >= b) { r = r + ">="; } if (a == b) { r = r + "=="; } if (a != b) { r = r + "!="; } if (a === b) { r = r + "==="; } if (a !== b) { r = r + "!=="; } return r + "|" + [a < b, a > b, a <= b, a >= b, a == b, a != b, a === b, a !== b].join(","); } for (var i = 0; i < pairs.length; i = i + 1) { console.log(i, cmp(pairs[i][0], pairs[i][1])); }`},
	{"mixed-compare-positions", mixedPairs + `function pos(a, b) { var s = ""; if (a < b) { s = s + "if<"; } else if (a >= b) { s = s + "if>="; } else { s = s + "if-neither"; } for (; a <= b;) { s = s + " for<="; break; } while (a > b) { s = s + " while>"; break; } var t = 0; do { t = t + 1; if (t > 2) { break; } } while (a != b); s = s + " do!=" + t; s = s + (a === b ? " ?===" : " ?!==") + (a == b ? "T" : "F") + (a !== b ? "T" : "F"); if (a < b || a >= b) { s = s + " ordered"; } return s; } for (var i = 0; i < pairs.length; i = i + 1) { console.log(i, pos(pairs[i][0], pairs[i][1])); }`},
	{"mixed-compare-globals", mixedPairs + `var out = []; for (var i = 0; i < pairs.length; i = i + 1) { var a = pairs[i][0]; var b = pairs[i][1]; var s = ""; if (a > b) { s = s + ">"; } for (var n = 0; a === b; n = n + 1) { s = s + "==="; break; } while (a <= b) { s = s + "<="; break; } var t = 0; do { t = t + 1; } while (t < 2 && a == b); s = s + t + (a !== b ? "!" : "=") + (a < b ? "<" : "") + (a >= b ? ">=" : ""); out.push(s); } console.log(out.join(" "));`},
	{"mixed-arith", mixedPairs + `function ar(a, b) { return [a + b, a - b, a * b, a / b, a % b].join(","); } for (var i = 0; i < pairs.length; i = i + 1) { console.log(i, ar(pairs[i][0], pairs[i][1]), ar(pairs[i][1], pairs[i][0])); } var s = "a", one = 1, yes = true, arr = [2], three = 3, five = 5, m3 = -3; console.log(s + one, yes + one, arr * three, five % m3, five % three, one - arr, s * one);`},
	// --- numeric trees: - * / % and the bitwise operators lower to
	// float64 closures; a left operand that is not a number is coerced
	// only after the right one has run, which may change it ---
	{"numtree-coercion-order", `var ga, gx, gs, o; function mk() { return ga; } function one() { return 1; } var ops = [];` +
		forOps(`(function () { var a = [3], x = 2, s = "7"; ops.push([a @ (a[0] = 5), x @ (x = 5), s @ (s = "1"), (a @ (a[0] = 4)) @ 2, -a @ (a[0] = 9), x * 3 @ (x = 1)].join(",")); })(); `+
			`ga = [3]; gx = 2; gs = "7"; o = { a: [3], x: 2, s: "7" }; ops.push([ga @ (ga[0] = 5), gx @ (gx = 5), gs @ (gs = "1"), o.a @ (o.a[0] = 5), o.x @ (o.x = 5), o.s @ (o.s = "1"), mk() @ (ga[0] = 6), one() @ (ga = 3), ga @ gx @ (gx = ga = 4)].join(",")); `,
			"-", "*", "/", "%", "|", "<<", ">>>") +
		`console.log(ops.join(" | ")); var a = [1]; console.log(a + (a[0] = 2), [1] + (1 - 1), (a[0] = 3) - a * (a = 4) + a);`},
	{"numtree-mixed-leaves", `var L = ["3", "", " 12 ", "0x1f", "abc", true, false, null, undefined, [4], [], [1, 2], NaN, -0, 0, 7, -2.5, 1 / 0]; ` +
		`function deep(a, b, c) { return [((a - b) * (c - a)) / ((b % 3) - (c * a)), ((a * 2 + b * 3) % 5) - ((c / 2 - a) * (b - 1)), -((a - -b) * -(c % a)), 1 / (a * -0 - b * 0), ` +
		`((a | b) ^ (c & 7)) << ((a >> 1) >>> (b - c)), ~(a * b) + ~(c - 1) - (a ^ ~b), (a * 1 + "s") + (b - c) + (c * 2 + a), (b - c) + (a + "x") + -(c * 1), +a + +b * +c, a + b * c - (a + "x" + b), "p" + (a - b) * 2 + (c - 1 + 1)].join(";"); } ` +
		`var n = L.length; for (var i = 0; i < n; i = i + 1) { var b = L[(i * 7 + 3) % n], c = L[(i * 5 + 1) % n]; console.log(i, deep(L[i], b, c), deep(c, L[i], b)); } ` +
		`var ga = "4", gb = [2], gc = null; console.log(((ga - gb) * (gc - ga)) / ((gb % 3) - (gc * ga)), (ga * 1 + "s") + (gb - gc) + (gc * 2 + ga), -(ga * -gb) | 0, ~~ga + (gb << 2), ga * gb + gc, 1 / (gc * -1));`},
	{"numtree-compound", `var vals = ["3", 2, true, null, undefined, [5], "x", -0, NaN, " 4 ", 0.5]; var gv; var o = {}; var arr = [0]; ` +
		`function loc(v, w) { var t = v; t += w; var u = v; u -= w * 2; var m = v; m *= w; var d = v; d /= (w - 1) * 3; var r = v; r %= w; var p = v; p += w * 2 + 1; return [t, u, m, d, r, p].join(","); } ` +
		`for (var i = 0; i < vals.length; i = i + 1) { var v = vals[i], w = vals[(i * 3 + 1) % vals.length]; var g = []; ` +
		`gv = v; gv += w; g.push(gv); gv = v; gv -= w; g.push(gv); gv = v; gv *= w; g.push(gv); gv = v; gv /= w; g.push(gv); gv = v; gv %= w; g.push(gv); ` +
		`o.p = v; o.p += w; g.push(o.p); o.p = v; o.p -= w; g.push(o.p); o.p = v; o.p *= w - 1; g.push(o.p); o.p = v; o.p /= w; g.push(o.p); o.p = v; o.p %= w; g.push(o.p); ` +
		`arr[0] = v; arr[0] += w; g.push(arr[0]); arr[0] = v; arr[0] *= (arr[0] = 3); g.push(arr[0]); arr[0] = v; arr[0] -= arr[0] * 2; g.push(arr[0]); ` +
		`console.log(i, loc(v, w), "|", g.join(",")); }`},
	{"numtree-step-limit", `function f(x, y) { var s = 0; for (var i = 0; ; i++) { s = (s + ((x * 211 + y * 17) % 256) * 0.299 - ((i * 31 + y * 97) % 256) / 3 + -(x - i) * (y | 1)) % 1e6; x = x + s * 0 + 1; } } var g = 2; function h() { return g * (g + 1) - -g / 3 + g % 7; } console.log(h()); f(1.5, 2);`},
	{"nan-zero-conditions", `function f(n, one, z, nz) { var s = ""; if (n !== n) { s = s + "a"; } if (n < one || n >= one) { s = s + "b"; } else { s = s + "c"; } if (nz === z) { s = s + "d"; } if (one / nz < z) { s = s + "e"; } for (; n === n;) { s = s + "f"; break; } while (one / z > z) { s = s + "g"; break; } var k = 0; do { k = k + 1; } while (k < 3 && n != n); s = s + k + (nz == z ? "h" : "i") + (n <= n ? "j" : "k"); return s; } console.log(f(NaN, 1, 0, -0)); var N = 0 / 0, Z = 0, NZ = -Z; console.log(N !== N, N < 1 || N >= 1, NZ === Z, 1 / NZ < 0, N == N, NZ <= Z && NZ >= Z);`},
}

// mixedPairs binds pairs to operand pairs of mixed types: numeric
// strings, string against number, null and undefined, NaN, signed
// zeros, booleans, an array, a negative modulus.
const mixedPairs = `var pairs = [["10", "9"], ["3", 10], [null, 0], [undefined, null], [1, "1"], [NaN, NaN], [NaN, 1], [-0, 0], [1 / -0, 0], ["a", 1], [true, 1], [[2], 3], [5, -3], [2, 7], ["b", "a"]]; `

// forOps repeats tmpl once per operator, with @ standing for it.
func forOps(tmpl string, ops ...string) string {
	var b strings.Builder
	for _, op := range ops {
		b.WriteString(strings.ReplaceAll(tmpl, "@", op))
	}
	return b.String()
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

// TestNumericTreeStepLimitParity moves the step limit across a few
// hundred consecutive steps of a loop of numeric trees, so the fatal
// lands on every kind of node in them — a local left operand charges its
// step together with its operator's — and the hook streams must still
// agree event for event.
func TestNumericTreeStepLimitParity(t *testing.T) {
	const src = `function f(x, y) { var s = 0; for (var i = 0; ; i++) { s = (s + ((x * 211 + y * 17) % 256) * 0.299 - -y / (i | 1) + (s * 2 + i) % 7) % 1e6; } } f(1.5, 2);`
	for limit := int64(500); limit < 800; limit++ {
		if d := diffEnginesBudget(src, limit); d != "" {
			t.Fatalf("step limit %d: %s", limit, d)
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
