package interp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// retentionPrograms are the TestArgumentsObject rows that a native
// keeping its argument window would break, natives called from another
// native's callbacks (forEach, a sort comparator, apply and call
// forwarding to a native), and non-leaf compiled callees whose window
// is reused after they return: one keeps its arguments object, one a
// closure over its parameters, and one is a function TestArgWindowsPoisoned's
// hooked leg calls under a binding hook (traceHooks has the var and prop
// methods, so no call pools there), reading its parameters after its
// own calls wrote above its window.
var retentionPrograms = []struct{ name, src string }{
	{"nonleaf-arguments", `function keep(a, b) { return arguments; } var k = keep(1, "two", 3); Math.max(7, 8, 9, 10); keep(4, 5, 6); console.log(k[0], k[1], k[2], k.length);`},
	{"nonleaf-closure", `function mk(a, b) { return function (c) { return a * 10 + b + c; }; } var f = mk(1, 2), g = mk(Math.min(3, 4), 5); Math.max(6, 7, 8); console.log(f(Math.max(0, 100)), g(0));`},
	{"nonleaf-hooked", `function twice(a, b) { var s = Math.max(a, b, 0) + twice2(b, a); return s + a * 1000 + b * 100; } function twice2(x, y) { return Math.min(x, y, 99) - x; } var r = []; for (var i = 0; i < 4; i++) { r.push(twice(i, Math.max(i, 2))); } console.log(r.join(","));`},
	{"apply-write-through", `function f() { arguments[0] = 9; } var a = [1]; f.apply(null, a); console.log(a[0]);`},
	{"call-arguments", `function g() { return arguments; } var r = g.call(null, 5, 6); Math.max(1, 2, 3); console.log([r[0], r[1], r.length].join(" "));`},
	{"array-ctor", `var a = Array(3, 4); Math.min(7, 8); console.log(a.join(" "));`},
	{"forEach-nested", `var out = []; [4, 9, 1].forEach(function (x, i, arr) { out.push(Math.max(x, i, Math.min(arr.length, 2)) + Math.sqrt(x)); }); console.log(out.join(","));`},
	{"sort-nested", `var a = [3, 1, 2, 8, 5]; a.sort(function (x, y) { return Math.max(x, 0) - Math.min(y, 99); }); console.log(a.join(","), Math.max.apply(null, a), Math.min.call(null, 4, 2), new Array(1, Math.max(2, 3)).join("/"));`},
}

// TestArgWindowsPoisoned runs the conformance corpus and retentionPrograms
// twice each, hooked and unhooked: on an interpreter that clears a
// native's argument window when the native returns, and on one that
// poisons it instead. Output, error, Steps() and the hook
// stream must agree, so no native, and nothing a native hands its
// arguments to, reads a window after the call ended.
func TestArgWindowsPoisoned(t *testing.T) {
	progs := slices.Clone(retentionPrograms)
	for _, tc := range conformanceCorpus {
		progs = append(progs, struct{ name, src string }{tc.name, tc.src})
	}
	for _, tc := range progs {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, hooked := range []bool{true, false} {
				run := func(poison bool) diffResult {
					in := New(WithSeed(7), WithMaxSteps(diffMaxSteps))
					in.poisonArgs = poison
					var rec recorder
					if hooked {
						rec = &traceHooks{}
					}
					return runEngineOn(in, tc.src, true, rec)
				}
				if clean, poisoned := run(false), run(true); !reflect.DeepEqual(clean, poisoned) {
					t.Fatalf("hooked=%v: a poisoned argument window changed the run:\n  clean:    %s\n  poisoned: %s\nprogram:\n%s",
						hooked, summary(clean), summary(poisoned), tc.src)
				}
			}
		})
	}
}

func summary(r diffResult) string {
	return fmt.Sprintf("err=%q steps=%d console=%q events=%d", r.runErr, r.steps, r.console, len(r.trace))
}

// TestArgWindowNested has a native read its whole window again after
// its callbacks ran natives of their own: forEach and a sort comparator,
// a nested call of itself, and a recursion deep enough to move the
// argument stack to a larger array. Its window must
// hold what it was called with throughout, poisoned or not.
func TestArgWindowNested(t *testing.T) {
	const src = `
function deep(n) { return n === 0 ? 0 : Math.max(n, deep(n - 1)); }
var log = [];
var r = probe(1, "two",
	function () { [5, 3, 4].forEach(function (x) { log.push(Math.max(x, probe(x, function () { return Math.min(x, 1); }))); }); },
	function () { log.push([3, 1, 2].sort(function (a, b) { return Math.max(a, 0) - Math.min(b, 9); }).join("")); },
	function () { log.push(deep(100)); },
	7);
console.log(r, log.join(","));`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, poison := range []bool{false, true} {
		in := New()
		in.poisonArgs = poison
		var broken []string
		in.SetGlobal("probe", value.ObjectVal(value.NewNative("probe", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			want := slices.Clone(args)
			for _, a := range want {
				if a.IsCallable() {
					if _, err := c.CallFunction(a, value.Undefined(), nil); err != nil {
						return value.Undefined(), err
					}
				}
			}
			for i := range want {
				if !value.SameValue(args[i], want[i]) {
					broken = append(broken, fmt.Sprintf("argument %d of %d is %s, was %s", i, len(want), args[i].Inspect(), want[i].Inspect()))
				}
			}
			return value.Int(len(args)), nil
		})))
		if err := in.Run(prog); err != nil {
			t.Fatalf("poison=%v: %v", poison, err)
		}
		if len(broken) > 0 {
			t.Errorf("poison=%v: a window changed under its native: %v", poison, broken)
		}
		if got, want := in.Console(), []string{"6 5,3,4,123,100"}; !slices.Equal(got, want) {
			t.Errorf("poison=%v: console %q, want %q", poison, got, want)
		}
		if cap(in.argStack) <= 100 || len(in.argStack) != 0 {
			t.Errorf("poison=%v: argument stack len %d cap %d; want empty, grown past the recursion's 100 windows", poison, len(in.argStack), cap(in.argStack))
		}
	}
}
