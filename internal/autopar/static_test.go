package autopar

// Differential suite for the static purity prover's guard-free path:
// a Proven kernel dispatched with zero Guard hooks must produce output
// byte-identical to the same kernel run with guards forcibly enabled
// (StaticOff — the speculative path profiles under guard and arms one
// Guard per worker). Run under -race, the suite also proves the
// unguarded workers share nothing.

import (
	"strings"
	"testing"

	"repro/internal/effects"
	"repro/internal/js/value"
	"repro/internal/workloads"
)

// TestStaticProvenExecKernelsDifferential: every shipped exec kernel
// must be Proven, dispatch guard-free with no profile slice, and match
// the guarded speculative run bit for bit.
func TestStaticProvenExecKernelsDifferential(t *testing.T) {
	for _, ek := range workloads.ExecKernels() {
		ek := ek
		t.Run(ek.Loop, func(t *testing.T) {
			const n = 192
			elems := make([]value.Value, n)
			for i := range elems {
				elems[i] = value.Number(ek.Input(i))
			}

			inA, fnA := load(t, ek.Prelude+"\nvar f = "+ek.Elemental+";\n")
			outStatic, ocStatic := MapSpec(inA, fnA, elems, Options{Workers: 4, Static: StaticAssist})
			if ocStatic.Static.Verdict != effects.Proven {
				t.Fatalf("verdict = %s (%v), want proven", ocStatic.Static.Verdict, ocStatic.Static.Reasons)
			}
			if !ocStatic.GuardElided {
				t.Fatalf("GuardElided = false: %+v", ocStatic)
			}
			if ocStatic.Profiled != 0 {
				t.Errorf("Profiled = %d, want 0 (no profile slice on the Proven path)", ocStatic.Profiled)
			}
			if !ocStatic.Parallel || ocStatic.AbortReason != "" {
				t.Fatalf("Proven kernel did not dispatch cleanly: %+v", ocStatic)
			}

			// Guards forcibly re-enabled: the StaticOff path.
			inB, fnB := load(t, ek.Prelude+"\nvar f = "+ek.Elemental+";\n")
			outGuarded, ocGuarded := MapSpec(inB, fnB, elems, Options{Workers: 4})
			if ocGuarded.GuardElided {
				t.Fatalf("StaticOff run elided the guard: %+v", ocGuarded)
			}
			if !ocGuarded.Parallel {
				t.Fatalf("guarded run did not dispatch: %+v", ocGuarded)
			}

			if len(outStatic) != len(outGuarded) {
				t.Fatalf("output lengths differ: %d vs %d", len(outStatic), len(outGuarded))
			}
			for i := range outStatic {
				if !value.SameValue(outStatic[i], outGuarded[i]) {
					t.Fatalf("element %d diverged: unguarded %s vs guarded %s",
						i, outStatic[i].Inspect(), outGuarded[i].Inspect())
				}
			}
		})
	}
}

// TestStaticProvenZeroHooks: white-box — workers of an unguarded plan
// carry no interpreter hooks at all.
func TestStaticProvenZeroHooks(t *testing.T) {
	in, fn := load(t, `function f(x, i) { return x * 2 + 1; }`)
	if rep := AnalyzeStatic(in, fn); rep.Verdict != effects.Proven {
		t.Fatalf("verdict = %s (%v), want proven", rep.Verdict, rep.Reasons)
	}
	pl, abort := newPlan(in, fn)
	if abort != "" {
		t.Fatalf("newPlan aborted: %s", abort)
	}
	pl.unguarded = true
	sl := pl.start(0)
	if sl.fault != nil {
		t.Fatalf("start fault: %+v", sl.fault)
	}
	if sl.guard != nil {
		t.Fatal("unguarded plan armed a Guard")
	}
	if hooks := sl.in.HooksInstalled(); len(hooks) != 0 {
		t.Fatalf("unguarded worker has hooks installed: %T", hooks[0])
	}
	// The guarded baseline, for contrast.
	pl2, _ := newPlan(in, fn)
	if sl2 := pl2.start(0); sl2.guard == nil || len(sl2.in.HooksInstalled()) == 0 {
		t.Fatal("guarded plan must arm a Guard with hooks")
	}
}

// TestStaticRefutedRefusesDispatch: a statically refuted kernel must
// never reach the pool, and the sequential fallback must still produce
// exact sequential semantics (every element's side effects included).
func TestStaticRefutedRefusesDispatch(t *testing.T) {
	in, fn := load(t, `var g = 0; function f(x, i) { g = g + x; return g; }`)
	elems := ints(64)
	out, oc := MapSpec(in, fn, elems, Options{Workers: 4, Static: StaticAssist})
	if oc.Parallel || oc.Dispatched != 0 {
		t.Fatalf("refuted kernel dispatched: %+v", oc)
	}
	if oc.Static.Verdict != effects.Refuted {
		t.Fatalf("verdict = %s, want refuted", oc.Static.Verdict)
	}
	if !strings.Contains(oc.AbortReason, "static analysis refuted purity") {
		t.Errorf("abort reason %q should name the static refusal", oc.AbortReason)
	}
	// Sequential semantics: out[i] is the running prefix sum.
	sum := 0.0
	for i, v := range out {
		sum += float64(i + 1)
		if v.ToNumber() != sum {
			t.Fatalf("out[%d] = %v, want %v", i, v.ToNumber(), sum)
		}
	}
	// The dynamic column keeps its own verdict: the guard saw the write.
	if oc.Pure {
		t.Error("dynamic Pure = true for a kernel the guard watched write a global")
	}
}

// TestStaticAssistSpeculatesUnknown: under assist mode an Unknown
// kernel keeps the speculative path — it dispatches guarded (the
// dynamic guard proves at runtime what the prover could not).
func TestStaticAssistSpeculatesUnknown(t *testing.T) {
	// A cleanly Unknown kernel: `this` escapes lexical analysis.
	in, fn := load(t, `function f(x, i) { if (false) { return this.x; } return x + 1; }`)
	out, oc := MapSpec(in, fn, ints(64), Options{Workers: 4, Static: StaticAssist, Verify: true})
	if oc.Static.Verdict != effects.Unknown {
		t.Fatalf("verdict = %s, want unknown", oc.Static.Verdict)
	}
	if !oc.Parallel || oc.Misspeculated {
		t.Fatalf("assist mode did not dispatch the Unknown kernel: %+v", oc)
	}
	if oc.GuardElided {
		t.Fatal("assist mode elided the guard for an Unknown kernel")
	}
	for i, v := range out {
		if v.ToNumber() != float64(i+2) {
			t.Fatalf("out[%d] = %v, want %d", i, v.ToNumber(), i+2)
		}
	}
}

// TestStaticProvenReduce: the reduce path also elides the guard for a
// Proven associative combiner and stays byte-identical to the guarded
// chunked fold.
func TestStaticProvenReduce(t *testing.T) {
	in, fn := load(t, `function f(a, b) { return a + b; }`)
	elems := ints(256)
	v, oc := ReduceSpec(in, fn, elems, value.Undefined(), false, Options{Workers: 4, Static: StaticAssist, Verify: true})
	if oc.Static.Verdict != effects.Proven {
		t.Fatalf("verdict = %s (%v), want proven", oc.Static.Verdict, oc.Static.Reasons)
	}
	if !oc.GuardElided || !oc.Parallel || oc.Misspeculated {
		t.Fatalf("Proven reduce did not dispatch guard-free: %+v", oc)
	}
	in2, fn2 := load(t, `function f(a, b) { return a + b; }`)
	v2, oc2 := ReduceSpec(in2, fn2, elems, value.Undefined(), false, Options{Workers: 4})
	if !oc2.Parallel {
		t.Fatalf("guarded reduce did not dispatch: %+v", oc2)
	}
	if !value.SameValue(v, v2) {
		t.Fatalf("reduce diverged: unguarded %s vs guarded %s", v.Inspect(), v2.Inspect())
	}
}

// TestStaticOffNeverAnalyzes: the default mode must not consult the
// prover at all — the Outcome's static report stays the zero value.
func TestStaticOffNeverAnalyzes(t *testing.T) {
	in, fn := load(t, `function f(x, i) { return x + 1; }`)
	_, oc := MapSpec(in, fn, ints(64), Options{Workers: 4})
	if oc.Static.Verdict != effects.Unknown || oc.Static.Reasons != nil {
		t.Fatalf("StaticOff populated the static report: %+v", oc.Static)
	}
	if oc.GuardElided {
		t.Fatal("StaticOff elided the guard")
	}
}
