package interp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// ---- coercion corners ----

func TestStringNumberCoercionCorners(t *testing.T) {
	wantStr(t, `var result = "" + null;`, "null")
	wantStr(t, `var result = "" + undefined;`, "undefined")
	wantStr(t, `var result = "" + [1, 2];`, "1,2")
	wantStr(t, `var result = "" + {};`, "[object Object]")
	wantNum(t, `var result = +"";`, 0)
	wantNum(t, `var result = +" 42 ";`, 42)
	wantNum(t, `var result = +"x";`, math.NaN())
	wantNum(t, `var result = null + 1;`, 1)
	wantNum(t, `var result = true + true;`, 2)
	wantNum(t, `var result = undefined + 1;`, math.NaN())
	wantStr(t, `var result = 1 + "2";`, "12")
	wantNum(t, `var result = "3" * "4";`, 12)
	wantNum(t, `var result = "10" - 1;`, 9)
	wantBool(t, `var result = "" == 0;`, true)
	wantBool(t, `var result = " " == 0;`, true)
	wantBool(t, `var result = [] == 0;`, true) // "" -> 0
}

func TestNegativeZeroAndPrecision(t *testing.T) {
	wantBool(t, `var result = -0 === 0;`, true)
	// -0 stringifies as "0", so it names the same property as 0.
	wantNum(t, `var a = [7]; var result = a[-0];`, 7)
	wantNum(t, `var o = {}; o[0] = 5; var result = o[-0];`, 5)
	wantStr(t, `var result = String(-0);`, "0")
	wantStr(t, `var result = (-0) + "";`, "0")
	wantNum(t, `var result = 1 / -0;`, math.Inf(-1))
	// "01" is not the canonical spelling of 1, so it is a different key.
	wantStr(t, `var o = {}; o[1] = "n"; o["01"] = "s"; var result = o[1] + o["1"] + o["01"];`, "nns")
	wantNum(t, `var result = 0.1 + 0.2;`, 0.30000000000000004)
	wantBool(t, `var result = 0.1 + 0.2 === 0.3;`, false)
	wantNum(t, `var result = 9007199254740992 + 1;`, 9007199254740992) // 2^53
}

// numericStringRows are JavaScript expressions over numeric strings and
// literals, each with the String() of its value as Node.js (v8) prints
// it. Go's strconv grammar differs on every one: it takes "inf" and
// "1_000", and refuses 1e1000 and hex past 2^64 instead of rounding.
var numericStringRows = []struct{ expr, node string }{
	{`Number("inf")`, "NaN"},
	{`Number("1_000")`, "NaN"},
	{`Number("1e1000")`, "Infinity"},
	{`Number("0x10000000000000000")`, "18446744073709552000"},
	{`parseFloat("1e1000")`, "Infinity"},
	{`parseFloat("inf")`, "NaN"},
	{`parseFloat("1_000")`, "1"},
	{`parseInt("  -0x10")`, "-16"},
	{`parseInt("-0x10", 16)`, "-16"},
	{`parseInt("123456789012345678901234567890")`, "1.2345678901234568e+29"},
	{`1e1000`, "Infinity"},
	{`0x10000000000000000`, "18446744073709552000"},
	{`Number("-0x10")`, "NaN"},
	{`Number("0x1p3")`, "NaN"},
	{`Number("-Infinity")`, "-Infinity"},
	{`Number("+Infinity")`, "Infinity"},
	{`Number("infinity")`, "NaN"},
	{`Number("1e-400")`, "0"},
	{`Number("\uFEFF 12\u3000")`, "12"},
	{`Number("\u0085 12")`, "NaN"},
	{`Number(" 1.e5 ")`, "100000"},
	{`Number(".")`, "NaN"},
	{`Number("0x")`, "NaN"},
	{`+"1_0"`, "NaN"},
	{`"0x10" * 1`, "16"},
	{`parseFloat("-.5e1x")`, "-5"},
	{`parseFloat("1e")`, "1"},
	{`parseFloat("Infinityx")`, "Infinity"},
	{`parseFloat("0x10")`, "0"},
	{`parseFloat(".e1")`, "NaN"},
	{`parseInt("0x10", 10)`, "0"},
	{`parseInt("10", 37)`, "NaN"},
	{`parseInt("10", 1)`, "NaN"},
	{`parseInt("11", 2.9)`, "3"},
	{`parseInt("z", 36)`, "35"},
	{`1 / parseInt("-0")`, "-Infinity"},
	{`parseInt("0xffffffffffffffffff")`, "4.722366482869645e+21"},
	{`1e-400`, "0"},
}

func TestNumericStringsMatchNode(t *testing.T) {
	for _, r := range numericStringRows {
		t.Run(r.expr, func(t *testing.T) {
			wantStr(t, "var result = String("+r.expr+");", r.node)
		})
	}
}

// Array(len) and new Array(len) throw what Node throws unless len is a
// uint32 (ES5 §15.4.2.2); before, a negative length panicked out of Run.
func TestArrayLengthMatchesNode(t *testing.T) {
	for _, r := range []struct{ call, node string }{
		{"Array(-1)", "RangeError"},
		{"Array(NaN)", "RangeError"},
		{"Array(Infinity)", "RangeError"},
		{"Array(-Infinity)", "RangeError"},
		{"Array(1.5)", "RangeError"},
		{"Array(4294967296)", "RangeError"},
		{"new Array(-5)", "RangeError"},
		{"Array(-0)", "0"},
		{"new Array(3)", "3"},
	} {
		t.Run(r.call, func(t *testing.T) {
			wantStr(t, "var result; try { result = String("+r.call+".length); } catch (e) { result = e.name; }", r.node)
		})
	}
}

// An integral index is keyed by its canonical decimal, and one below
// len(indexKeys) — every a[i] of a small array — without allocating.
func TestPropertyKeyOfIndex(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 9, 10, 4095, 4096, 123456, 1e14, -1, -4096, 2.5, -0.5, 1e15, 1e21, math.Inf(1), math.NaN()} {
		if got, want := propertyKey(value.Number(f)), value.FormatNumber(f); got != want {
			t.Errorf("propertyKey(%v) = %q, want %q", f, got, want)
		}
	}
	in := []value.Value{value.Int(0), value.Number(math.Copysign(0, -1)), value.Int(17), value.Int(len(indexKeys) - 1)}
	var key string
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range in {
			key = propertyKey(v)
		}
	}); n != 0 {
		t.Errorf("propertyKey of an in-table index allocates %v times per call set, want 0", n)
	}
	_ = key
}

// ---- scoping corners ----

func TestShadowing(t *testing.T) {
	wantNum(t, `
		var x = 1;
		function f() { var x = 2; return x; }
		var result = f() + x;`, 3)
	wantNum(t, `
		var x = 1;
		function f(x) { x = 99; return x; }
		f(x);
		var result = x;`, 1) // params are copies
}

func TestClosureSharedMutation(t *testing.T) {
	wantNum(t, `
		function mk() {
			var n = 0;
			return {
				inc: function () { n++; },
				get: function () { return n; }
			};
		}
		var c = mk();
		c.inc(); c.inc(); c.inc();
		var result = c.get();`, 3)
}

func TestHoistedFunctionCallableBeforeDefinition(t *testing.T) {
	wantNum(t, `
		var result = early();
		function early() { return 5; }`, 5)
}

func TestCatchScopeIsolation(t *testing.T) {
	wantStr(t, `
		var e = "outer";
		try { throw "inner"; } catch (e) { /* shadows */ }
		var result = e;`, "outer")
}

// ---- control flow corners ----

func TestNestedTryFinallyOrder(t *testing.T) {
	wantStr(t, `
		var log = "";
		function f() {
			try {
				try {
					throw "x";
				} finally { log += "inner;"; }
			} catch (e) {
				log += "caught;";
			} finally {
				log += "outer;";
			}
			return log;
		}
		var result = f();`, "inner;caught;outer;")
}

func TestContinueInsideNestedSwitch(t *testing.T) {
	wantNum(t, `
		var s = 0;
		for (var i = 0; i < 6; i++) {
			switch (i % 2) {
			case 0:
				continue;
			}
			s += i;
		}
		var result = s;`, 1+3+5)
}

func TestDoWhileRunsBodyOnce(t *testing.T) {
	wantNum(t, `
		var n = 0;
		do { n++; } while (false);
		var result = n;`, 1)
}

func TestForInSkipsDeleted(t *testing.T) {
	wantStr(t, `
		var o = {a: 1, b: 2, c: 3};
		delete o.b;
		var ks = "";
		for (var k in o) { ks += k; }
		var result = ks;`, "ac")
}

// ---- object corners ----

func TestPrototypeMethodOverride(t *testing.T) {
	wantStr(t, `
		function A() {}
		A.prototype.who = function () { return "proto"; };
		var a = new A();
		var before = a.who();
		a.who = function () { return "own"; };
		var result = before + "/" + a.who();`, "proto/own")
}

func TestConstructorReturningObject(t *testing.T) {
	wantNum(t, `
		function F() { this.x = 1; return {x: 42}; }
		var result = new F().x;`, 42)
	wantNum(t, `
		function G() { this.x = 1; return 99; } // primitive return ignored
		var result = new G().x;`, 1)
}

func TestInstanceofThroughChain(t *testing.T) {
	wantBool(t, `
		function Base() {}
		function Derived() {}
		Derived.prototype = new Base();
		var d = new Derived();
		var result = d instanceof Base;`, true)
}

func TestMethodExtractionLosesThis(t *testing.T) {
	wantBool(t, `
		var o = {v: 7, get: function () { return this; }};
		var f = o.get;
		var result = f() === undefined;`, true)
}

// ---- failure injection ----

func TestDeepProgramRecursionSurfacesRangeError(t *testing.T) {
	prog := parser.MustParse(`
function down(n) { return n === 0 ? 0 : down(n - 1); }
down(100000);`)
	in := New()
	err := in.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "RangeError") {
		t.Fatalf("err = %v, want RangeError", err)
	}
}

func TestStepLimitInsideCallback(t *testing.T) {
	prog := parser.MustParse(`
[1].forEach(function f(x) { while (true) {} });`)
	in := New(WithMaxSteps(50_000))
	err := in.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestNullDerefInLoopIsCatchable(t *testing.T) {
	wantNum(t, `
		var hits = 0;
		var xs = [1, null, 3];
		for (var i = 0; i < xs.length; i++) {
			try { hits += xs[i].valueOfMissing === undefined ? 1 : 0; }
			catch (e) { hits += 100; }
		}
		var result = hits;`, 102)
}

func TestHooksSurviveThrowingProgram(t *testing.T) {
	// loop hooks must stay balanced even when a throw unwinds mid-loop
	in := New()
	bal := &balanceHooks{}
	in.SetHooks(bal)
	err := in.Run(parser.MustParse(`
try {
  for (var i = 0; i < 10; i++) {
    if (i === 3) { throw "stop"; }
  }
} catch (e) {}
for (var j = 0; j < 2; j++) {}
`))
	if err != nil {
		t.Fatal(err)
	}
	if bal.depth != 0 {
		t.Errorf("loop enter/exit unbalanced after throw: depth %d", bal.depth)
	}
	if bal.maxDepth == 0 {
		t.Error("hooks never fired")
	}
}

type balanceHooks struct {
	depth    int
	maxDepth int
}

func (b *balanceHooks) LoopEnter(ast.LoopID) {
	b.depth++
	if b.depth > b.maxDepth {
		b.maxDepth = b.depth
	}
}
func (b *balanceHooks) LoopExit(ast.LoopID) { b.depth-- }

// ---- interpreter arithmetic vs Go float64 (property) ----

func TestArithmeticMatchesGoSemantics(t *testing.T) {
	in := New()
	prog := parser.MustParse(`function add(a,b){return a+b;} function mul(a,b){return a*b;} function div(a,b){return a/b;} function mod(a,b){return a%b;}`)
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	call := func(name string, a, b float64) float64 {
		v, err := in.SafeCall(in.Global(name), value.Undefined(),
			[]value.Value{value.Number(a), value.Number(b)})
		if err != nil {
			t.Fatal(err)
		}
		return v.Num()
	}
	f := func(a, b float64) bool {
		if eq := call("add", a, b); eq != a+b && !(math.IsNaN(eq) && math.IsNaN(a+b)) {
			return false
		}
		if eq := call("mul", a, b); eq != a*b && !(math.IsNaN(eq) && math.IsNaN(a*b)) {
			return false
		}
		if eq := call("div", a, b); eq != a/b && !(math.IsNaN(eq) && math.IsNaN(a/b)) {
			return false
		}
		want := math.Mod(a, b)
		if eq := call("mod", a, b); eq != want && !(math.IsNaN(eq) && math.IsNaN(want)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// ---- virtual clock invariants ----

func TestClockMonotonicAcrossHostOps(t *testing.T) {
	in := New()
	t0 := in.Now()
	in.EmitHostOp("dom", "x", 1000)
	t1 := in.Now()
	in.AdvanceTime(500)
	t2 := in.Now()
	if !(t0 < t1 && t1 < t2) {
		t.Errorf("clock not monotonic: %d %d %d", t0, t1, t2)
	}
	if in.ScriptTime() != t1 {
		t.Errorf("idle counted as script time")
	}
}
