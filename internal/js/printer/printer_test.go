package printer

import (
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/workloads"
)

// canonStmt normalizes away the one representation difference the printer
// introduces: single statements vs singleton blocks as if/loop bodies.
func canonStmt(s ast.Stmt) ast.Stmt {
	switch x := s.(type) {
	case *ast.BlockStmt:
		for i := range x.Body {
			x.Body[i] = canonStmt(x.Body[i])
		}
		if len(x.Body) == 1 {
			return x.Body[0]
		}
		return x
	case *ast.IfStmt:
		x.Cons = canonStmt(x.Cons)
		if x.Alt != nil {
			x.Alt = canonStmt(x.Alt)
		}
		return x
	case *ast.ForStmt:
		x.Body = canonStmt(x.Body)
		return x
	case *ast.WhileStmt:
		x.Body = canonStmt(x.Body)
		return x
	case *ast.DoWhileStmt:
		x.Body = canonStmt(x.Body)
		return x
	case *ast.ForInStmt:
		x.Body = canonStmt(x.Body)
		return x
	}
	return s
}

func canonDump(p *ast.Program) string {
	for i := range p.Body {
		p.Body[i] = canonStmt(p.Body[i])
	}
	return ast.DumpProgram(p)
}

// roundTrip parses src, prints it, re-parses, and compares canonical AST
// dumps.
func roundTrip(t *testing.T, src string) {
	t.Helper()
	p1, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse original: %v", err)
	}
	printed := Print(p1)
	p2, err := parser.Parse(printed)
	if err != nil {
		t.Fatalf("parse printed: %v\nprinted:\n%s", err, printed)
	}
	d1, d2 := canonDump(p1), canonDump(p2)
	if d1 != d2 {
		t.Fatalf("round trip changed the AST\noriginal: %s\nreparsed: %s\nprinted:\n%s", d1, d2, printed)
	}
}

func TestRoundTripBasics(t *testing.T) {
	cases := []string{
		`var x = 1 + 2 * 3;`,
		`var y = (1 + 2) * 3;`,
		`var s = "he\"llo" + 'wo\nrld';`,
		`var a = [1, 2, [3, 4]];`,
		`var o = {a: 1, "b c": 2, nested: {x: null}};`,
		`function f(a, b) { return a + b; }`,
		`var g = function (x) { return x * x; };`,
		`if (a > 1) { b = 2; } else { b = 3; }`,
		`if (a) b = 1; else if (c) b = 2; else b = 3;`,
		`for (var i = 0; i < 10; i++) { s += i; }`,
		`for (;;) { break; }`,
		`for (var k in obj) { n++; }`,
		`for (k in obj) { n++; }`,
		`while (x < 5) { x++; }`,
		`do { x--; } while (x > 0);`,
		`switch (x) { case 1: a(); break; default: b(); }`,
		`try { f(); } catch (e) { g(e); } finally { h(); }`,
		`throw new Error("boom");`,
		`var t = a ? b : c;`,
		`x = y = z = 0;`,
		`a += 1; b -= 2; c *= 3; d /= 4; e %= 5;`,
		`f <<= 1; g >>= 2; h >>>= 3; i &= 4; j |= 5; k ^= 6;`,
		`var n = -x + +y - -z;`,
		`var m = !a && ~b || c;`,
		`var p = typeof q === "undefined";`,
		`delete obj.prop; delete arr[0];`,
		`obj.method(1, 2).chained[3].deep;`,
		`new Foo(1, 2).bar;`,
		`var u = new ns.Klass();`,
		`x++; ++x; y--; --y;`,
		`a[i], b[j] = 1;`,
		`for (var i = 0, j = 10; i < j; i++, j--) { s++; }`,
		`var big = 1e21; var tiny = 0.0001; var hex = 0xFF;`,
		`fn.call(self, 1); fn.apply(self, [1, 2]);`,
		`var r = a in b;`,
		`var q2 = a instanceof B;`,
		`var shift = 1 << 4 >> 2 >>> 1;`,
		`var bits = a & b | c ^ d;`,
	}
	for _, src := range cases {
		roundTrip(t, src)
	}
}

func TestRoundTripNestedFunctions(t *testing.T) {
	roundTrip(t, `
function outer() {
  var fns = [];
  for (var i = 0; i < 3; i++) {
    fns.push(function inner(x) {
      while (x > 0) { x -= 1; }
      return function () { return x; };
    });
  }
  return fns;
}`)
}

func TestRoundTripUnaryChains(t *testing.T) {
	roundTrip(t, `var a = -(-x); var b = - -1; var c = !(!y); var d = ~~z;`)
	roundTrip(t, `var e = -(x++); var f = -(++x);`)
}

// TestPrintedProgramsExecuteIdentically: semantic equivalence, not just
// syntactic: the printed program must compute the same values.
func TestPrintedProgramsExecuteIdentically(t *testing.T) {
	srcs := []string{
		`var result = 0;
		 for (var i = 0; i < 20; i++) { if (i % 3 === 0) { continue; } result += i; }`,
		`function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
		 var result = fib(12);`,
		`var o = {count: 0, bump: function () { this.count++; return this.count; }};
		 o.bump(); o.bump();
		 var result = o.count;`,
		`var a = [5, 3, 8, 1];
		 a.sort(function (x, y) { return x - y; });
		 var result = a.join("-");`,
		`var result = "";
		 try { throw {name: "E", message: "m"}; } catch (e) { result = e.name + ":" + e.message; }`,
	}
	for _, src := range srcs {
		p1 := parser.MustParse(src)
		printed := Print(p1)
		p2, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, printed)
		}

		in1 := interp.New()
		if err := in1.Run(p1); err != nil {
			t.Fatalf("run original: %v", err)
		}
		in2 := interp.New()
		if err := in2.Run(p2); err != nil {
			t.Fatalf("run printed: %v\n%s", err, printed)
		}
		v1, v2 := in1.Global("result"), in2.Global("result")
		if v1.ToString() != v2.ToString() {
			t.Errorf("results differ: %q vs %q for\n%s", v1.ToString(), v2.ToString(), src)
		}
	}
}

// TestRoundTripNeedsParens: shapes whose printed text used to parse as
// something else, or not at all, because the printer dropped parentheses
// or escapes the source had.
func TestRoundTripNeedsParens(t *testing.T) {
	for _, src := range []string{
		`(function () { return 1; })();`,
		`(function named() {}).call(this);`,
		`({a: 1}).a;`,
		`({}).x = 1;`,
		`({a: 1}).a++, b;`,
		`var x = (1, 2), y = (f(), g());`,
		`f((1, 2), 3);`,
		`new (foo())();`,
		`new (a.b().c[0])(1);`,
		`new (new F())();`,
		`(1).toFixed(2);`,
		`var s = "\u0041\x41\b\v\f\0\u2028\u00e9\x7f", t = 'q"\'\\';`,
		`var o = {"a b": 1, "\u2029": 2, "\n": 3};`,
		`var functional = 1; functional;`,
	} {
		roundTrip(t, src)
		fixpoint(t, src)
	}
}

// fixpoint checks Print(parse(Print(p))) == Print(p).
func fixpoint(t *testing.T, src string) {
	t.Helper()
	once := Print(parser.MustParse(src))
	p2, err := parser.Parse(once)
	if err != nil {
		t.Fatalf("printed text does not parse: %v\n%s", err, once)
	}
	if twice := Print(p2); once != twice {
		t.Errorf("print is not a fixpoint after one round:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
	}
}

// TestRoundTripWorkloads: the property over the 12 Table-1 sources, the
// programs whose closures autopar prints for its workers.
// (internal/js/interp's TestConformancePrintRoundTrip runs it, and the
// printed text, over the conformance corpus.)
func TestRoundTripWorkloads(t *testing.T) {
	for _, wl := range workloads.All() {
		roundTrip(t, wl.Source)
		fixpoint(t, wl.Source)
	}
}

func TestRoundTripFixpoint(t *testing.T) {
	src := `
var acc = 0;
function step(n) {
  for (var i = 0; i < n; i++) {
    acc += i * (i & 1 ? -1 : 1);
  }
  return acc;
}
step(100);`
	fixpoint(t, src)
}
