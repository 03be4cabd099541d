package interp

// FuzzInterpDifferential is the fuzzing half of the compiled-evaluator
// proof (conformance_test.go has the curated half): any input that
// parses must behave identically — output, errors, steps, hook stream —
// on the tree walk and the compiled path, and the compiled path must
// give the same output, error and steps with no hooks attached. CI runs
// a 30s -fuzz smoke; longer local runs just work:
//
//	go test -fuzz=FuzzInterpDifferential -fuzztime=5m ./internal/js/interp

import "testing"

// fuzzMaxSteps keeps pathological loops cheap; step-limit fatals are
// still compared for parity.
const fuzzMaxSteps = 50_000

func FuzzInterpDifferential(f *testing.F) {
	for _, tc := range conformanceCorpus {
		f.Add(tc.src)
	}
	// Hand-picked slivers that exercise compiler decision points the
	// corpus hits only incidentally.
	f.Add(`var x = 1 + "2"; x[0];`)
	f.Add(`try { x } catch (x) { x } finally { x = 1 }`)
	f.Add(`for (var k in { a: 1 }) { delete k; }`)
	f.Add(`(function () { return arguments; })(1, 2)[1];`)
	f.Add(`function f(arguments) { return arguments; } function g() { return function () { return arguments; }; } f(1) + g()(2)[0];`)
	f.Add(`x = typeof -""`)
	// Numeric trees: a left operand coerced after the right one mutates
	// it, mixed leaves under a + of string and number subtrees, and a
	// compound assignment over a numeric right side.
	f.Add(`function f() { var a = [3], x = 2; return [a * (a[0] = 5), x % (x = 5), a - a[0] / (a = "4")]; } var g = [1]; f().concat(g | (g[0] = 6), -g << (g = 2));`)
	f.Add(`var n = null, s = " 7", b = [2]; (n * 2 + s) + (b - -n) * ~s + (s - n) % (b / 0);`)
	f.Add(`var o = { p: "3" }; var x = [2]; x *= o.p - 1; o.p += x * 2 + 1; o.p %= (o.p = 4) - 1; x /= -x;`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		if d := diffEnginesBudget(src, fuzzMaxSteps); d != "" {
			t.Fatalf("engines diverge:\n%s\nprogram:\n%s", d, src)
		}
	})
}
