// Package rivertrail is the in-language River Trail API of the paper's
// §5.1 ("libraries can take a functional approach to exposing data
// parallelism (like RiverTrail did)"): Install binds the ParallelArray
// constructor and RiverTrailReport into an interpreter. A ParallelArray
// copies its elements at construction (value semantics, matching River
// Trail); its mapPar, filterPar, reducePar and pipePar methods run on
// the autopar engine, and RiverTrailReport() hands the last
// autopar.Outcome to script.
package rivertrail

import (
	"repro/internal/autopar"
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// State carries the ParallelArray API's state for one interpreter: the
// options every operation runs under and the last operation's Outcome.
type State struct {
	in   *interp.Interp
	opts autopar.Options
	last autopar.Outcome
}

// Last returns the engine's outcome of the most recent operation.
func (s *State) Last() autopar.Outcome { return s.last }

// SetOptions replaces the full speculation options: the pool size
// (the default Workers < 2 keeps every operation sequential, still
// guarded and reported) and the static mode.
func (s *State) SetOptions(o autopar.Options) { s.opts = o }

// Install wires ParallelArray and RiverTrailReport into the interpreter
// and returns the state handle.
func Install(in *interp.Interp) *State {
	st := &State{in: in, opts: autopar.Options{Workers: 1}}

	in.SetGlobal("ParallelArray", value.ObjectVal(value.NewNative("ParallelArray",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			src := interp.Arg(args, 0)
			if !src.IsObject() || !src.Object().IsArray() {
				return value.Undefined(), value.ThrowTypeError("ParallelArray requires an array")
			}
			return st.wrap(src.Object().Elems), nil
		})))

	in.SetGlobal("RiverTrailReport", value.ObjectVal(value.NewNative("RiverTrailReport",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			o := in.NewObject()
			o.Set("op", value.String(st.last.Op))
			o.Set("pure", value.Bool(st.last.Pure))
			o.Set("parallel", value.Bool(st.last.Parallel))
			o.Set("workers", value.Int(st.last.Workers))
			o.Set("profiled", value.Int(st.last.Profiled))
			o.Set("dispatched", value.Int(st.last.Dispatched))
			o.Set("abortReason", value.String(st.last.AbortReason))
			o.Set("elements", value.Int(st.last.Elements))
			o.Set("chunks", value.Int(st.last.Chunks))
			// The verdict is "" when the prover never ran (static mode off).
			verdict := ""
			if st.last.StageStatic != nil {
				verdict = st.last.Static.Verdict.String()
			}
			o.Set("staticVerdict", value.String(verdict))
			o.Set("guardElided", value.Bool(st.last.GuardElided))
			o.Set("stages", value.Int(st.last.Pipe.Stages))
			o.Set("batches", value.Int(st.last.Pipe.Batches))
			verdicts := make([]value.Value, 0, len(st.last.StageStatic))
			for _, rep := range st.last.StageStatic {
				verdicts = append(verdicts, value.String(rep.Verdict.String()))
			}
			o.Set("stageVerdicts", value.ObjectVal(in.NewArray(verdicts...)))
			reasons := make([]value.Value, 0, len(st.last.Static.Reasons))
			for _, re := range st.last.Static.Reasons {
				ro := in.NewObject()
				ro.Set("code", value.String(re.Code))
				ro.Set("detail", value.String(re.Detail))
				ro.Set("line", value.Int(re.Line))
				reasons = append(reasons, value.ObjectVal(ro))
			}
			o.Set("staticReasons", value.ObjectVal(in.NewArray(reasons...)))
			return value.ObjectVal(o), nil
		})))
	return st
}

// wrap builds a ParallelArray object. The elements are copied at the
// boundary: mutating the source array after construction cannot desync
// length from get/mapPar.
func (st *State) wrap(src []value.Value) value.Value {
	return st.wrapOwned(append([]value.Value(nil), src...))
}

// wrapOwned wraps a slice the caller exclusively owns (operation
// results), skipping the defensive copy.
func (st *State) wrapOwned(elems []value.Value) value.Value {
	pa := st.in.NewObject()
	pa.Set("length", value.Int(len(elems)))

	pa.Set("mapPar", value.ObjectVal(value.NewNative("mapPar",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			out, oc := autopar.MapSpec(st.in, interp.Arg(args, 0), elems, st.opts)
			st.last = oc
			return st.wrapOwned(out), nil
		})))

	pa.Set("filterPar", value.ObjectVal(value.NewNative("filterPar",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			keep, oc := autopar.FilterSpec(st.in, interp.Arg(args, 0), elems, st.opts)
			var kept []value.Value
			for i, k := range keep {
				if k {
					kept = append(kept, elems[i])
				}
			}
			st.last = oc
			return st.wrapOwned(kept), nil
		})))

	pa.Set("reducePar", value.ObjectVal(value.NewNative("reducePar",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			hasInit := len(args) > 1
			if len(elems) == 0 && !hasInit {
				// Match Array.prototype.reduce: an empty reduction with no
				// seed has no answer.
				return value.Undefined(), value.ThrowTypeError("Reduce of empty ParallelArray with no initial value")
			}
			acc, oc := autopar.ReduceSpec(st.in, interp.Arg(args, 0), elems, interp.Arg(args, 1), hasInit, st.opts)
			st.last = oc
			return acc, nil
		})))

	pa.Set("pipePar", value.ObjectVal(value.NewNative("pipePar",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			// pipePar(f1, f2, ...) composes the stages element-wise —
			// out[i] = fK(...f1(x, i)..., i), fused element-major order —
			// and dispatches the chain chunk by chunk under exactly the
			// conditions mapPar dispatches (pipePar(f) is mapPar(f)). Zero
			// stages would be the identity; require one so a forgotten
			// argument fails loudly like mapPar(undefined).
			if len(args) == 0 {
				return value.Undefined(), value.ThrowTypeError("pipePar requires at least one stage function")
			}
			out, oc := autopar.PipelineSpec(st.in, args, elems, st.opts)
			st.last = oc
			return st.wrapOwned(out), nil
		})))

	pa.Set("get", value.ObjectVal(value.NewNative("get",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			f := interp.Arg(args, 0).ToNumber()
			// int(NaN) is platform-dependent in Go; reject before converting.
			if f != f || f < 0 || f >= float64(len(elems)) {
				return value.Undefined(), nil
			}
			return elems[int(f)], nil
		})))

	pa.Set("toArray", value.ObjectVal(value.NewNative("toArray",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			return value.ObjectVal(st.in.NewArray(append([]value.Value{}, elems...)...)), nil
		})))

	return value.ObjectVal(pa)
}
