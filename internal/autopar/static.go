package autopar

// Static-assisted speculation: the internal/effects purity prover runs
// over the elemental function and its interpreted callees *before* any
// speculative work is spent, against the function's real closure
// environment (so a helper resolves through the scope chain it will
// actually use, and an ambient name counts as the builtin only while
// the main interpreter's binding is pristine).
//
//   - Proven: the engine elides the runtime Guard and the profile slice
//     entirely — workers are still share-nothing interpreters, but no
//     hook fires on any write. Soundness backstop: newPlan's
//     serialization checks (ambient-pristine, crossability, reserved
//     names) still run, and any worker fault falls back to sequential
//     re-execution, which is semantically exact with or without a
//     guard.
//   - Refuted: dispatch is refused before profiling; the whole
//     operation runs sequentially (still guarded, so the *dynamic*
//     purity column keeps its own verdict — console output, for one,
//     refutes statically but never trips the write guard).
//   - Unknown: the speculate-then-verify path is unchanged; under
//     StaticStrict the engine refuses to dispatch instead.

import (
	"fmt"

	"repro/internal/effects"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// StaticMode selects how much the engine trusts the static prover.
type StaticMode int

const (
	// StaticOff (the default) never runs the prover: every dispatch is
	// speculative and guarded, exactly the pre-prover behavior.
	StaticOff StaticMode = iota
	// StaticAssist proves first: Proven kernels dispatch guard-free
	// with no profile slice, Refuted kernels refuse dispatch early,
	// Unknown kernels keep the speculative path.
	StaticAssist
	// StaticStrict dispatches only Proven kernels; Unknown is treated
	// like Refuted (sequential, with the reason chain in the outcome).
	StaticStrict
)

func (m StaticMode) String() string {
	switch m {
	case StaticAssist:
		return "assist"
	case StaticStrict:
		return "strict"
	}
	return "off"
}

// ParseStaticMode parses the -static flag spelling.
func ParseStaticMode(s string) (StaticMode, error) {
	switch s {
	case "", "off":
		return StaticOff, nil
	case "assist":
		return StaticAssist, nil
	case "strict":
		return StaticStrict, nil
	}
	return StaticOff, fmt.Errorf("unknown static mode %q (want off, assist or strict)", s)
}

// AnalyzeStatic runs the purity prover on an interpreted function value,
// resolving its free names against the closure environment the function
// will actually execute in.
func AnalyzeStatic(in *interp.Interp, fn value.Value) effects.Report {
	if !fn.IsCallable() || fn.Object().Fn == nil {
		return effects.Report{Reasons: []effects.Reason{{
			Code: "not-a-function", Detail: "elemental is not a function",
		}}}
	}
	o := fn.Object()
	if o.Fn.Native != nil || o.Fn.Decl == nil {
		return effects.Report{Reasons: []effects.Reason{{
			Code: "native-elemental", Detail: "elemental " + displayName(o) + " is native; its effects are opaque",
		}}}
	}
	lit := o.Fn.Decl.(*ast.FuncLit)
	return effects.AnalyzeFunc(lit, envResolver(in, o))
}

// envResolver builds the prover's name resolver for one interpreted
// function: ambient builtins stay ambient only while pristine, captured
// interpreted functions resolve recursively with *their own* closure
// environment, everything else degrades to data or unknown.
func envResolver(in *interp.Interp, fn *value.Object) effects.Resolver {
	env, _ := fn.Fn.Env.(*interp.Scope)
	return func(name string) effects.Callee {
		var b *interp.Binding
		if env != nil {
			b = env.Lookup(name)
		} else {
			b = in.Globals.Lookup(name)
		}
		if ambient[name] && b == in.Globals.Lookup(name) && in.GlobalIsPristine(name) {
			return effects.Callee{Kind: effects.CalleeAmbient}
		}
		if b == nil {
			return effects.Callee{Kind: effects.CalleeUnknown}
		}
		v := b.V
		if !v.IsObject() {
			return effects.Callee{Kind: effects.CalleeData}
		}
		o := v.Object()
		if o.Fn == nil {
			return effects.Callee{Kind: effects.CalleeData}
		}
		if o.Fn.Native != nil || o.Fn.Decl == nil {
			return effects.Callee{Kind: effects.CalleeUnknown}
		}
		lit, ok := o.Fn.Decl.(*ast.FuncLit)
		if !ok {
			return effects.Callee{Kind: effects.CalleeUnknown}
		}
		return effects.Callee{Kind: effects.CalleeFunc, Fn: lit, Resolve: envResolver(in, o)}
	}
}
