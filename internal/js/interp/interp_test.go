package interp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// TestValueLayout pins the size of a value.Value and of the two engine
// structs every statement and binding copies it in, and that == on a
// Value does not compile: it would compare a string's data pointer, not
// its contents.
func TestValueLayout(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want uintptr
	}{
		{reflect.TypeOf(value.Value{}), 24},
		{reflect.TypeOf(ctrl{}), 32},
		{reflect.TypeOf(Binding{}), 56},
	} {
		if got := c.typ.Size(); got != c.want {
			t.Errorf("%v is %d bytes, want %d", c.typ, got, c.want)
		}
	}
	if reflect.TypeOf(value.Value{}).Comparable() {
		t.Error("value.Value is comparable")
	}
}

// evalProgram runs src and returns the value of the global `result`.
func evalProgram(t *testing.T, src string) value.Value {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := New()
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return in.Global("result")
}

func wantNum(t *testing.T, src string, want float64) {
	t.Helper()
	got := evalProgram(t, src)
	if !got.IsNumber() {
		t.Fatalf("result = %s (%s), want number %v", got.Inspect(), got.Kind(), want)
	}
	if math.IsNaN(want) {
		if !math.IsNaN(got.Num()) {
			t.Fatalf("result = %v, want NaN", got.Num())
		}
		return
	}
	if math.Abs(got.Num()-want) > 1e-9 {
		t.Fatalf("result = %v, want %v", got.Num(), want)
	}
}

func wantStr(t *testing.T, src string, want string) {
	t.Helper()
	got := evalProgram(t, src)
	if !got.IsString() || got.Str() != want {
		t.Fatalf("result = %s, want %q", got.Inspect(), want)
	}
}

func wantBool(t *testing.T, src string, want bool) {
	t.Helper()
	got := evalProgram(t, src)
	if got.Kind() != value.KindBool || got.BoolVal() != want {
		t.Fatalf("result = %s, want %v", got.Inspect(), want)
	}
}

func TestArithmetic(t *testing.T) {
	wantNum(t, "var result = 1 + 2 * 3;", 7)
	wantNum(t, "var result = (1 + 2) * 3;", 9)
	wantNum(t, "var result = 10 / 4;", 2.5)
	wantNum(t, "var result = 10 % 3;", 1)
	wantNum(t, "var result = -5 + +3;", -2)
	wantNum(t, "var result = 2 * 3 + 4 * 5;", 26)
	wantNum(t, "var result = 1e3 + 0.5;", 1000.5)
	wantNum(t, "var result = 0xFF;", 255)
	wantNum(t, "var result = 1 / 0;", math.Inf(1))
	wantNum(t, "var result = 0 / 0;", math.NaN())
}

func TestBitwiseOps(t *testing.T) {
	wantNum(t, "var result = 5 & 3;", 1)
	wantNum(t, "var result = 5 | 3;", 7)
	wantNum(t, "var result = 5 ^ 3;", 6)
	wantNum(t, "var result = 1 << 4;", 16)
	wantNum(t, "var result = -8 >> 1;", -4)
	wantNum(t, "var result = -1 >>> 28;", 15)
	wantNum(t, "var result = ~5;", -6)
	wantNum(t, "var result = 2.9 | 0;", 2) // common truncation idiom
	wantNum(t, "var result = -2.9 | 0;", -2)
}

func TestStringOps(t *testing.T) {
	wantStr(t, `var result = "a" + "b";`, "ab")
	wantStr(t, `var result = "n=" + 5;`, "n=5")
	wantStr(t, `var result = 5 + "x";`, "5x")
	wantNum(t, `var result = "abc".length;`, 3)
	wantStr(t, `var result = "hello".toUpperCase();`, "HELLO")
	wantNum(t, `var result = "hello".charCodeAt(1);`, 101)
	wantStr(t, `var result = "hello".substring(1, 3);`, "el")
	wantStr(t, `var result = "a,b,c".split(",")[1];`, "b")
	wantNum(t, `var result = "hello".indexOf("ll");`, 2)
	wantStr(t, `var result = String.fromCharCode(72, 105);`, "Hi")
}

func TestComparisons(t *testing.T) {
	wantBool(t, "var result = 1 < 2;", true)
	wantBool(t, "var result = 2 <= 2;", true)
	wantBool(t, `var result = "a" < "b";`, true)
	wantBool(t, `var result = 1 == "1";`, true)
	wantBool(t, `var result = 1 === "1";`, false)
	wantBool(t, "var result = null == undefined;", true)
	wantBool(t, "var result = null === undefined;", false)
	wantBool(t, "var result = NaN === NaN;", false)
	wantBool(t, "var result = 1 != 2;", true)
	wantBool(t, "var result = 1 !== 1;", false)
}

func TestVarHoistingAndFunctionScope(t *testing.T) {
	// `var` inside a block is function-scoped: the paper's §3.3 example
	// depends on all for-loop iterations sharing one binding.
	wantNum(t, `
		function f() {
			var out = 0;
			for (var i = 0; i < 3; i++) { var x = i; out = x; }
			return x + out; // x visible after the loop
		}
		var result = f();`, 4)
	wantBool(t, `var result = typeof notDeclared === "undefined";`, true)
}

func TestClosures(t *testing.T) {
	wantNum(t, `
		function counter() {
			var n = 0;
			return function () { n++; return n; };
		}
		var c = counter();
		c(); c();
		var result = c();`, 3)
	wantNum(t, `
		var fns = [];
		function mk(i) { return function () { return i; }; }
		for (var i = 0; i < 3; i++) { fns.push(mk(i)); }
		var result = fns[0]() + fns[1]() + fns[2]();`, 3)
}

func TestLoops(t *testing.T) {
	wantNum(t, `
		var s = 0;
		for (var i = 0; i < 10; i++) { s += i; }
		var result = s;`, 45)
	wantNum(t, `
		var s = 0, i = 0;
		while (i < 5) { s += i; i++; }
		var result = s;`, 10)
	wantNum(t, `
		var s = 0, i = 0;
		do { s += i; i++; } while (i < 5);
		var result = s;`, 10)
	wantNum(t, `
		var s = 0;
		for (var i = 0; i < 10; i++) {
			if (i === 3) { continue; }
			if (i === 6) { break; }
			s += i;
		}
		var result = s;`, 0+1+2+4+5)
	wantNum(t, `
		var o = {a: 1, b: 2, c: 3};
		var s = 0;
		for (var k in o) { s += o[k]; }
		var result = s;`, 6)
	wantStr(t, `
		var keys = "";
		var arr = [10, 20];
		arr.x = 99;
		for (var k in arr) { keys += k + ";"; }
		var result = keys;`, "0;1;x;")
}

func TestNestedLoopsAndLabelsFree(t *testing.T) {
	wantNum(t, `
		var s = 0;
		for (var i = 0; i < 4; i++) {
			for (var j = 0; j < 4; j++) {
				if (j > i) { break; }
				s++;
			}
		}
		var result = s;`, 1+2+3+4)
}

func TestObjectsAndPrototypes(t *testing.T) {
	wantNum(t, `
		var o = {x: 1, y: 2};
		o.z = o.x + o.y;
		var result = o.z;`, 3)
	wantNum(t, `
		function Point(x, y) { this.x = x; this.y = y; }
		Point.prototype.norm2 = function () { return this.x * this.x + this.y * this.y; };
		var p = new Point(3, 4);
		var result = p.norm2();`, 25)
	wantBool(t, `
		function A() {}
		var a = new A();
		var result = a instanceof A;`, true)
	wantNum(t, `
		var o = {a: 1};
		delete o.a;
		var result = o.a === undefined ? 1 : 0;`, 1)
	wantBool(t, `var o = {a: 1}; var result = "a" in o;`, true)
}

func TestArrays(t *testing.T) {
	wantNum(t, `var a = [1, 2, 3]; var result = a.length;`, 3)
	wantNum(t, `var a = []; a[5] = 7; var result = a.length;`, 6)
	wantNum(t, `var a = [1, 2]; a.push(3); var result = a[2];`, 3)
	wantNum(t, `var a = [1, 2, 3]; var result = a.pop() + a.length;`, 5)
	wantStr(t, `var result = [1, 2, 3].join("-");`, "1-2-3")
	wantNum(t, `var result = [3, 1, 2].sort()[0];`, 1)
	wantNum(t, `var result = [3, 1, 2].sort(function (a, b) { return b - a; })[0];`, 3)
	wantNum(t, `var result = [1, 2, 3].map(function (x) { return x * x; })[2];`, 9)
	wantNum(t, `var result = [1, 2, 3, 4].filter(function (x) { return x % 2 === 0; }).length;`, 2)
	wantNum(t, `var result = [1, 2, 3, 4].reduce(function (a, b) { return a + b; }, 0);`, 10)
	wantNum(t, `var result = [1, 2, 3, 4].reduce(function (a, b) { return a + b; });`, 10)
	wantNum(t, `
		var s = 0;
		[5, 6, 7].forEach(function (x, i) { s += x * i; });
		var result = s;`, 6+14)
	wantNum(t, `var result = [1, 2, 3].indexOf(2);`, 1)
	wantNum(t, `var result = [1, 2].concat([3, 4]).length;`, 4)
	wantNum(t, `var result = [1, 2, 3, 4].slice(1, 3).length;`, 2)
	wantNum(t, `var a = [1, 2, 3, 4]; a.splice(1, 2); var result = a.length;`, 2)
	wantBool(t, `var result = [1, 2].every(function (x) { return x > 0; });`, true)
	wantBool(t, `var result = [1, 2].some(function (x) { return x > 1; });`, true)
	wantNum(t, `var a = new Array(4); var result = a.length;`, 4)
	wantBool(t, `var result = Array.isArray([]);`, true)
	wantNum(t, `var a = [1,2,3]; a.reverse(); var result = a[0];`, 3)
	wantNum(t, `var a = [1,2,3]; a.length = 1; var result = a.length;`, 1)
}

func TestConditionalsAndLogical(t *testing.T) {
	wantNum(t, "var result = true ? 1 : 2;", 1)
	wantNum(t, "var result = 0 ? 1 : 2;", 2)
	wantNum(t, "var result = 0 || 5;", 5)
	wantNum(t, "var result = 3 && 5;", 5)
	wantNum(t, "var result = 0 && 5;", 0)
	wantNum(t, `var o = null; var result = (o && o.x) || 7;`, 7)
	wantNum(t, `
		var calls = 0;
		function f() { calls++; return true; }
		var x = true || f();
		var result = calls;`, 0)
}

func TestSwitch(t *testing.T) {
	wantStr(t, `
		function f(x) {
			switch (x) {
			case 1: return "one";
			case 2: return "two";
			default: return "many";
			}
		}
		var result = f(1) + f(2) + f(9);`, "onetwomany")
	wantNum(t, `
		var s = 0;
		switch (2) {
		case 1: s += 1;
		case 2: s += 2;
		case 3: s += 4; break;
		case 4: s += 8;
		}
		var result = s;`, 6)
}

func TestExceptions(t *testing.T) {
	wantStr(t, `
		var result = "";
		try { throw "boom"; } catch (e) { result = "caught:" + e; }`, "caught:boom")
	wantStr(t, `
		var result = "";
		try {
			var o = null;
			o.x = 1;
		} catch (e) { result = e.name; }`, "TypeError")
	wantStr(t, `
		var result = "";
		try { nope(); } catch (e) { result = e.name; }`, "ReferenceError")
	wantNum(t, `
		var result = 0;
		try { result = 1; } finally { result += 10; }`, 11)
	wantNum(t, `
		function f() {
			try { throw 1; } catch (e) { return 2; } finally { return 3; }
		}
		var result = f();`, 3)
	wantStr(t, `
		function boom() { throw new Error("oops"); }
		var result = "";
		try { boom(); } catch (e) { result = e.message; }`, "oops")
}

func TestUncaughtExceptionSurfaces(t *testing.T) {
	prog := parser.MustParse(`throw "top";`)
	in := New()
	err := in.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "top") {
		t.Fatalf("err = %v, want uncaught 'top'", err)
	}
}

func TestStackOverflowIsCatchable(t *testing.T) {
	wantStr(t, `
		function f() { return f(); }
		var result = "";
		try { f(); } catch (e) { result = e.name; }`, "RangeError")
}

func TestStepLimit(t *testing.T) {
	prog := parser.MustParse(`while (true) {}`)
	in := New(WithMaxSteps(10_000))
	err := in.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestUpdateExpressions(t *testing.T) {
	wantNum(t, "var x = 5; var result = x++;", 5)
	wantNum(t, "var x = 5; var result = ++x;", 6)
	wantNum(t, "var x = 5; x--; var result = x;", 4)
	wantNum(t, "var a = [1]; a[0]++; var result = a[0];", 2)
	wantNum(t, "var o = {n: 1}; ++o.n; var result = o.n;", 2)
}

func TestCompoundAssignment(t *testing.T) {
	wantNum(t, "var x = 10; x += 5; var result = x;", 15)
	wantNum(t, "var x = 10; x -= 5; var result = x;", 5)
	wantNum(t, "var x = 10; x *= 5; var result = x;", 50)
	wantNum(t, "var x = 10; x /= 4; var result = x;", 2.5)
	wantNum(t, "var x = 10; x %= 3; var result = x;", 1)
	wantNum(t, "var x = 5; x <<= 1; var result = x;", 10)
	wantNum(t, "var x = 5; x &= 3; var result = x;", 1)
	wantNum(t, "var x = 5; x |= 2; var result = x;", 7)
	wantNum(t, "var x = 5; x ^= 1; var result = x;", 4)
	wantStr(t, `var s = "a"; s += "b"; var result = s;`, "ab")
	wantNum(t, `var o = {n: 1}; o.n += 2; var result = o.n;`, 3)
}

func TestTypeof(t *testing.T) {
	wantStr(t, "var result = typeof 1;", "number")
	wantStr(t, `var result = typeof "s";`, "string")
	wantStr(t, "var result = typeof true;", "boolean")
	wantStr(t, "var result = typeof undefined;", "undefined")
	wantStr(t, "var result = typeof null;", "object")
	wantStr(t, "var result = typeof {};", "object")
	wantStr(t, "var result = typeof [];", "object")
	wantStr(t, "var result = typeof function () {};", "function")
}

func TestThisBinding(t *testing.T) {
	wantNum(t, `
		var o = {
			x: 42,
			get: function () { return this.x; }
		};
		var result = o.get();`, 42)
	wantNum(t, `
		function getX() { return this.x; }
		var o = {x: 7};
		var result = getX.call(o);`, 7)
	wantNum(t, `
		function add(a, b) { return this.base + a + b; }
		var result = add.apply({base: 100}, [1, 2]);`, 103)
}

func TestImplicitGlobal(t *testing.T) {
	wantNum(t, `
		function f() { leaked = 9; }
		f();
		var result = leaked;`, 9)
}

func TestMathBuiltins(t *testing.T) {
	wantNum(t, "var result = Math.abs(-3);", 3)
	wantNum(t, "var result = Math.floor(2.7);", 2)
	wantNum(t, "var result = Math.ceil(2.1);", 3)
	wantNum(t, "var result = Math.round(2.5);", 3)
	wantNum(t, "var result = Math.sqrt(16);", 4)
	wantNum(t, "var result = Math.pow(2, 10);", 1024)
	wantNum(t, "var result = Math.max(1, 9, 4);", 9)
	wantNum(t, "var result = Math.min(1, 9, 4);", 1)
	wantNum(t, "var result = Math.atan2(0, 1);", 0)
	wantNum(t, "var result = Math.sin(0);", 0)
	wantNum(t, "var result = Math.cos(0);", 1)
	wantBool(t, "var r = Math.random(); var result = r >= 0 && r < 1;", true)
}

func TestMathRandomDeterministic(t *testing.T) {
	run := func(seed uint64) []float64 {
		in := New(WithSeed(seed))
		prog := parser.MustParse(`var a = Math.random(), b = Math.random(), c = Math.random();`)
		if err := in.Run(prog); err != nil {
			t.Fatal(err)
		}
		return []float64{in.Global("a").Num(), in.Global("b").Num(), in.Global("c").Num()}
	}
	a := run(42)
	b := run(42)
	c := run(43)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestConversions(t *testing.T) {
	wantNum(t, `var result = parseInt("42");`, 42)
	wantNum(t, `var result = parseInt("42px");`, 42)
	wantNum(t, `var result = parseInt("ff", 16);`, 255)
	wantNum(t, `var result = parseInt("0x10");`, 16)
	wantNum(t, `var result = parseFloat("2.5e1");`, 25)
	wantNum(t, `var result = Number("3.5");`, 3.5)
	wantBool(t, `var result = isNaN(parseInt("zz"));`, true)
	wantBool(t, `var result = isFinite(1 / 0);`, false)
	wantStr(t, `var result = (255).toString(16);`, "ff")
	wantStr(t, `var result = (3.14159).toFixed(2);`, "3.14")
}

func TestConsoleCapture(t *testing.T) {
	in := New()
	prog := parser.MustParse(`console.log("a", 1); console.log("b");`)
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	out := in.Console()
	if len(out) != 2 || out[0] != "a 1" || out[1] != "b" {
		t.Fatalf("console = %q", out)
	}
}

func TestRecursion(t *testing.T) {
	wantNum(t, `
		function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
		var result = fib(15);`, 610)
	wantNum(t, `
		function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
		var result = fact(10);`, 3628800)
}

func TestArgumentsObject(t *testing.T) {
	wantNum(t, `
		function sum() {
			var s = 0;
			for (var i = 0; i < arguments.length; i++) { s += arguments[i]; }
			return s;
		}
		var result = sum(1, 2, 3, 4);`, 10)
	// A parameter or a body-level function declaration named arguments
	// binds the name first, so no object is made (ES5 §10.5 step 7); a
	// var of the name keeps the object. Node.js prints the same.
	wantStr(t, `
		function f(arguments) { return typeof arguments; }
		function g() { function arguments() { return 1; } return typeof arguments; }
		function h(a, b) { var arguments; return arguments.length; }
		var result = [f(5), g(), h(5, 6), f()].join(" ");`, "number function 2 undefined")
	// The arguments object owns its elements: it neither writes through
	// to the array apply spread nor reads a native call's argument window
	// after a later native call reused it. Node.js prints the same.
	wantNum(t, `
		function f() { arguments[0] = 9; }
		var a = [1];
		f.apply(null, a);
		var result = a[0];`, 1)
	wantStr(t, `
		function g() { return arguments; }
		var r = g.call(null, 5, 6);
		Math.max(1, 2, 3);
		var result = [r[0], r[1], r.length].join(" ");`, "5 6 2")
	wantStr(t, `
		var a = Array(3, 4);
		Math.min(7, 8);
		var result = a.join(" ");`, "3 4")
}

func TestSeqExpr(t *testing.T) {
	wantNum(t, `
		var s = 0;
		for (var i = 0, j = 10; i < j; i++, j--) { s++; }
		var result = s;`, 5)
}

func TestVirtualClockAdvances(t *testing.T) {
	in := New()
	prog := parser.MustParse(`var s = 0; for (var i = 0; i < 1000; i++) { s += i; }`)
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	if in.Now() <= 0 {
		t.Fatalf("virtual clock did not advance: %d", in.Now())
	}
	if in.Steps() < 1000 {
		t.Fatalf("steps = %d, want >= 1000", in.Steps())
	}
}

func TestPerformanceNow(t *testing.T) {
	wantBool(t, `
		var t0 = performance.now();
		var s = 0;
		for (var i = 0; i < 100; i++) { s += i; }
		var t1 = performance.now();
		var result = t1 > t0;`, true)
}

func TestFunctionScopingSharedBindingAcrossIterations(t *testing.T) {
	// The exact shape of the paper's Fig. 6 pitfall: `var p` declared in
	// the loop body is one shared binding, so closures created per
	// iteration all see the final value.
	wantNum(t, `
		var fns = [];
		for (var i = 0; i < 3; i++) {
			var p = i;
			fns.push(function () { return p; });
		}
		var result = fns[0]() + fns[1]() + fns[2]();`, 6)
}
