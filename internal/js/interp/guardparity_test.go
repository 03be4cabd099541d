package interp_test

// guardparity_test.go pins the engine to the reference tree walk where
// it matters most for internal/autopar: the purity guards and hook mux
// that speculation outcomes ride on. The main interpreter — which loads
// the elemental, runs the profile slice under the guard and any
// sequential fallback — runs once on each evaluator; dispatched workers
// are the engine's either way. If compiled execution fired hooks in a
// different order, attributed a write to a different binding, or leaked
// a guard across a throw, speculation would diverge between the two —
// these tests fail first.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/autopar"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// loadEngine defines f on a fresh interpreter with the chosen evaluator.
func loadEngine(t *testing.T, src string, compiled bool) (*interp.Interp, value.Value) {
	t.Helper()
	in := interp.New()
	if err := in.RunEngine(parser.MustParse(src), compiled); err != nil {
		t.Fatalf("load: %v", err)
	}
	fn := in.Global("f")
	if !fn.IsCallable() {
		t.Fatal("source does not define f")
	}
	return in, fn
}

// workerIndexRE strips the timing-dependent part of a worker-side
// abort reason: *which* worker's chunk reached the violating element
// first is a scheduler race, not an engine property.
var workerIndexRE = regexp.MustCompile(`worker \d+`)

// outcomesEqual compares the engine-independent Outcome fields (Chunks
// is scheduler telemetry and may differ run to run, and
// abort reasons are compared with worker indices normalized).
func outcomesEqual(a, b autopar.Outcome) string {
	aReason := workerIndexRE.ReplaceAllString(a.AbortReason, "worker N")
	bReason := workerIndexRE.ReplaceAllString(b.AbortReason, "worker N")
	if a.Op != b.Op || a.Pure != b.Pure || a.Parallel != b.Parallel ||
		a.Profiled != b.Profiled || a.Dispatched != b.Dispatched ||
		a.Elements != b.Elements || aReason != bReason {
		return fmt.Sprintf("outcome mismatch:\n  compiled:  %+v\n  tree-walk: %+v", a, b)
	}
	return ""
}

// runSpecEngine drives MapSpec with the main interpreter on the chosen
// evaluator, and holds its output to a one-worker run on the same
// evaluator.
func runSpecEngine(t *testing.T, src string, elems []value.Value, compiled bool) ([]value.Value, autopar.Outcome) {
	t.Helper()
	in, fn := loadEngine(t, src, compiled)
	out, oc := autopar.MapSpec(in, fn, elems, autopar.Options{Workers: 4})
	seqIn, seqFn := loadEngine(t, src, compiled)
	seq, _ := autopar.MapSpec(seqIn, seqFn, elems, autopar.Options{Workers: 1})
	for i := range seq {
		if !value.SameValue(out[i], seq[i]) {
			t.Fatalf("compiled=%v: out[%d] = %v, one-worker run %v", compiled, i, out[i].Inspect(), seq[i].Inspect())
		}
	}
	return out, oc
}

func ints(n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.Int(i + 1)
	}
	return out
}

// TestGuardParityPureKernel: a clean kernel speculates identically.
func TestGuardParityPureKernel(t *testing.T) {
	const src = `function f(x, i) { return x * x + i; }`
	elems := ints(64)
	cOut, cOC := runSpecEngine(t, src, elems, true)
	tOut, tOC := runSpecEngine(t, src, elems, false)
	if d := outcomesEqual(cOC, tOC); d != "" {
		t.Fatal(d)
	}
	if !cOC.Pure || !cOC.Parallel {
		t.Fatalf("pure kernel did not speculate: %+v", cOC)
	}
	for i := range tOut {
		if !value.SameValue(cOut[i], tOut[i]) {
			t.Fatalf("values diverge at %d: %v vs %v", i, cOut[i].Inspect(), tOut[i].Inspect())
		}
	}
}

// TestGuardParityImpureKernel: the guard flags the same write with the
// same §5.3-style reason on both engines.
func TestGuardParityImpureKernel(t *testing.T) {
	const src = `var sum = 0; function f(x, i) { sum = sum + x; return x; }`
	elems := ints(32)
	_, cOC := runSpecEngine(t, src, elems, true)
	_, tOC := runSpecEngine(t, src, elems, false)
	if d := outcomesEqual(cOC, tOC); d != "" {
		t.Fatal(d)
	}
	if cOC.Pure || !strings.Contains(cOC.AbortReason, "sum") {
		t.Fatalf("impure kernel not flagged on compiled engine: %+v", cOC)
	}
}

// TestGuardParityLateImpurity: impurity that only manifests past the
// profile slice is caught by the worker-side guard identically.
func TestGuardParityLateImpurity(t *testing.T) {
	const src = `
var sum = 0;
function f(x, i) {
  if (i >= 20) { sum = sum + x; }
  return x * 2;
}`
	elems := ints(64)
	cOut, cOC := runSpecEngine(t, src, elems, true)
	tOut, tOC := runSpecEngine(t, src, elems, false)
	if d := outcomesEqual(cOC, tOC); d != "" {
		t.Fatal(d)
	}
	if cOC.Pure || cOC.Parallel {
		t.Fatalf("late-impure kernel speculated: %+v", cOC)
	}
	for i := range tOut {
		if !value.SameValue(cOut[i], tOut[i]) {
			t.Fatalf("fallback values diverge at %d", i)
		}
	}
}

// TestGuardParityImplicitGlobal: a worker-side implicit global is a
// violation with the same reason on both engines.
func TestGuardParityImplicitGlobal(t *testing.T) {
	const src = `function f(x, i) { if (i >= 30) { leak = x; } return x; }`
	elems := ints(64)
	_, cOC := runSpecEngine(t, src, elems, true)
	_, tOC := runSpecEngine(t, src, elems, false)
	if d := outcomesEqual(cOC, tOC); d != "" {
		t.Fatal(d)
	}
	if cOC.Pure || !strings.Contains(cOC.AbortReason, "leak") {
		t.Fatalf("implicit global not flagged: %+v", cOC)
	}
}

// TestGuardParityLeakOnThrow is the PR 3 guard-leak shape on each
// evaluator: an elemental that throws mid-operation must not
// leave an active guard behind (hooks restored, later writes unflagged).
func TestGuardParityLeakOnThrow(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		t.Run(fmt.Sprintf("compiled=%v", compiled), func(t *testing.T) {
			in, fn := loadEngine(t, `function f(x, i) { if (i === 3) { throw "boom"; } return x; }`, compiled)
			g := autopar.NewGuard()
			err := g.With(in, func() error {
				for i := 0; i < 8; i++ {
					if _, err := in.SafeCall(fn, value.Undefined(), []value.Value{value.Int(i), value.Int(i)}); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				t.Fatal("elemental throw did not propagate")
			}
			if len(in.HooksInstalled()) != 0 {
				t.Fatal("guard leaked: hooks not restored after mid-operation throw")
			}
			// Post-throw writes must not be flagged by the dead guard.
			if err := in.RunEngine(parser.MustParse(`var post = 1; post = post + 1;`), compiled); err != nil {
				t.Fatalf("post-throw execution failed: %v", err)
			}
			if v := g.Violation(); v != "" {
				t.Fatalf("deactivated guard recorded violation %q", v)
			}
		})
	}
}

// hookTrace records the full hook stream with engine-independent
// identities (names and classes, not pointers).
type hookTrace struct{ ev []string }

func (h *hookTrace) add(format string, args ...any) {
	h.ev = append(h.ev, fmt.Sprintf(format, args...))
}
func (h *hookTrace) LoopEnter(id ast.LoopID)                   { h.add("LE%d", id) }
func (h *hookTrace) LoopIter(id ast.LoopID)                    { h.add("LI%d", id) }
func (h *hookTrace) LoopExit(id ast.LoopID)                    { h.add("LX%d", id) }
func (h *hookTrace) LoopHeader(id ast.LoopID, active bool)     { h.add("LH%d:%v", id, active) }
func (h *hookTrace) BranchTaken(branchID int, taken bool)      { h.add("BR%d:%v", branchID, taken) }
func (h *hookTrace) CallEnter(name string)                     { h.add("CE:%s", name) }
func (h *hookTrace) CallExit(name string)                      { h.add("CX:%s", name) }
func (h *hookTrace) VarDeclare(name string, b *interp.Binding) { h.add("VD:%s", name) }
func (h *hookTrace) VarRead(name string, b *interp.Binding)    { h.add("VR:%s", name) }
func (h *hookTrace) VarWrite(name string, b *interp.Binding)   { h.add("VW:%s", name) }
func (h *hookTrace) ObjectNew(o *value.Object)                 { h.add("ON:%s", o.Class) }
func (h *hookTrace) PropRead(o *value.Object, key string, via *interp.Binding) {
	h.add("PR:%s.%s", o.Class, key)
}
func (h *hookTrace) PropWrite(o *value.Object, key string, via *interp.Binding) {
	h.add("PW:%s.%s", o.Class, key)
}

// TestGuardParityHookMuxSequence runs a guarded, muxed (trace + guard,
// both installed by SetHooks) elemental on both engines and requires the
// identical event stream and the identical violation.
func TestGuardParityHookMuxSequence(t *testing.T) {
	const src = `
var ext = { hits: 0 };
function f(x, i) {
  var acc = 0;
  for (var j = 0; j < 3; j = j + 1) { acc = acc + j * x; }
  if (i === 2) { ext.hits = ext.hits + 1; }
  return acc;
}`
	run := func(compiled bool) ([]string, string) {
		in, fn := loadEngine(t, src, compiled)
		tr := &hookTrace{}
		g := autopar.NewGuard()
		in.SetHooks(tr)
		err := g.With(in, func() error {
			for i := 0; i < 4; i++ {
				if _, err := in.SafeCall(fn, value.Undefined(), []value.Value{value.Int(i), value.Int(i)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("compiled=%v: %v", compiled, err)
		}
		return tr.ev, g.Violation()
	}
	cEv, cViol := run(true)
	tEv, tViol := run(false)
	if cViol != tViol {
		t.Fatalf("violation mismatch: compiled %q vs tree-walk %q", cViol, tViol)
	}
	if cViol == "" || !strings.Contains(cViol, "ext") {
		t.Fatalf("guard missed the external mutation: %q", cViol)
	}
	if len(cEv) != len(tEv) {
		t.Fatalf("trace length mismatch: compiled %d vs tree-walk %d", len(cEv), len(tEv))
	}
	for i := range cEv {
		if cEv[i] != tEv[i] {
			t.Fatalf("trace mismatch at %d: compiled %q vs tree-walk %q", i, cEv[i], tEv[i])
		}
	}
	if len(cEv) == 0 {
		t.Fatal("empty hook trace; mux not firing")
	}
}
