// Package rivertrail implements the high-level data-parallel collection
// API the paper recommends (§5.1: "libraries can take a functional
// approach to exposing data parallelism (like RiverTrail did)"), with the
// §5.3 requirement that speculative parallelization "not only ... abort
// when it fails to run a loop in parallel, but also have ways to report to
// the developer the reason for aborting."
//
// Install adds a ParallelArray(arr) constructor to an interpreter. A
// ParallelArray copies its backing elements at construction (value
// semantics, matching River Trail); its mapPar/filterPar/reducePar
// methods delegate to internal/autopar's speculate-then-verify engine:
// a leading slice runs under the purity guard on the main interpreter,
// and when the guard clears it the remainder is dispatched across
// share-nothing worker interpreters (SetWorkers enables this; the
// default of 1 keeps every operation sequential-but-guarded). Guard
// violations, serialization limits, worker faults and misspeculations
// all fall back to sequential semantics, and the reason — which variable
// or property the kernel mutated, what could not cross workers — is
// reported through RiverTrailReport().
package rivertrail

import (
	"repro/internal/autopar"
	"repro/internal/effects"
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// Report describes the last ParallelArray operation.
type Report struct {
	// Op is "mapPar", "filterPar", "reducePar" or "pipePar".
	Op string
	// Pure is true when the purity guard observed no violation (the
	// §5.1 eligibility signal; an operation can be pure yet still run
	// sequentially — workers disabled, remainder too small, or a
	// serialization abort).
	Pure bool
	// Parallel is true when the operation actually executed across
	// >= 2 worker goroutines and the merge survived every check.
	Parallel bool
	// Workers is the number of goroutines that executed the operation
	// (1 = sequential).
	Workers int
	// Profiled counts elements run under the guard on the main
	// interpreter; Dispatched counts elements executed on the worker
	// pool (0 when sequential).
	Profiled, Dispatched int
	// Misspeculated is true when the Verify shadow run found a
	// divergence and the sequential values won.
	Misspeculated bool
	// AbortReason explains a sequential fallback ("writes captured
	// variable sum", "mutates external object <Object>.x", worker-side
	// speculation aborts, misspeculation, ...).
	AbortReason string
	// Elements processed.
	Elements int
	// Chunks is the work-stealing scheduler's chunk-plan length for the
	// dispatched remainder; Steals counts successful steals (both 0 when
	// nothing dispatched). Steals are timing-dependent telemetry only.
	Chunks, Steals int
	// StaticVerdict is the purity prover's verdict ("proven", "refuted",
	// "unknown") when a static mode was active, "" when the prover never
	// ran. StaticReasons is its machine-readable reason chain.
	StaticVerdict string
	StaticReasons []effects.Reason
	// GuardElided is true when the operation ran with zero Guard hooks
	// on the strength of a Proven verdict.
	GuardElided bool
	// Stages and Batches describe an operation that reached the pool:
	// stage count (1 unless a multi-stage pipePar) and the chunks that
	// each ran the whole stage chain (both 0 when nothing dispatched).
	Stages, Batches int
	// StageVerdicts[s] is the prover's verdict for elemental s when a
	// static mode was active (one entry unless a multi-stage pipePar;
	// nil otherwise).
	StageVerdicts []string
}

// State carries the API state for one interpreter.
type State struct {
	in   *interp.Interp
	opts autopar.Options
	last Report
}

// Last returns the most recent operation report.
func (s *State) Last() Report { return s.last }

// SetWorkers sets the speculation pool size; < 2 keeps every operation
// sequential (still guarded and reported).
func (s *State) SetWorkers(n int) { s.opts.Workers = n }

// SetOptions replaces the full speculation options (tests and ModeExec
// use this for Verify runs and profile-slice tuning).
func (s *State) SetOptions(o autopar.Options) { s.opts = o }

// Install wires ParallelArray and RiverTrailReport into the interpreter
// and returns the state handle.
func Install(in *interp.Interp) *State {
	st := &State{in: in, opts: autopar.Options{Workers: 1}}

	in.SetGlobal("ParallelArray", value.ObjectVal(value.NewNative("ParallelArray",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			src := argAt(args, 0)
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
			o.Set("misspeculated", value.Bool(st.last.Misspeculated))
			o.Set("abortReason", value.String(st.last.AbortReason))
			o.Set("elements", value.Int(st.last.Elements))
			o.Set("chunks", value.Int(st.last.Chunks))
			o.Set("steals", value.Int(st.last.Steals))
			o.Set("staticVerdict", value.String(st.last.StaticVerdict))
			o.Set("guardElided", value.Bool(st.last.GuardElided))
			o.Set("stages", value.Int(st.last.Stages))
			o.Set("batches", value.Int(st.last.Batches))
			verdicts := make([]value.Value, 0, len(st.last.StageVerdicts))
			for _, v := range st.last.StageVerdicts {
				verdicts = append(verdicts, value.String(v))
			}
			o.Set("stageVerdicts", value.ObjectVal(in.NewArray(verdicts...)))
			reasons := make([]value.Value, 0, len(st.last.StaticReasons))
			for _, re := range st.last.StaticReasons {
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

// report converts an engine outcome into the JS-visible report.
func report(opts autopar.Options, oc autopar.Outcome) Report {
	r := Report{
		Op:            oc.Op,
		Pure:          oc.Pure,
		Parallel:      oc.Parallel,
		Workers:       oc.Workers,
		Profiled:      oc.Profiled,
		Dispatched:    oc.Dispatched,
		Misspeculated: oc.Misspeculated,
		AbortReason:   oc.AbortReason,
		Elements:      oc.Elements,
		Chunks:        oc.Chunks,
		Steals:        oc.Steals,
		GuardElided:   oc.GuardElided,
	}
	if opts.Static != autopar.StaticOff {
		r.StaticVerdict = oc.Static.Verdict.String()
		r.StaticReasons = oc.Static.Reasons
		for _, rep := range oc.StageStatic {
			r.StageVerdicts = append(r.StageVerdicts, rep.Verdict.String())
		}
	}
	r.Stages = oc.Pipe.Stages
	r.Batches = oc.Pipe.Batches
	return r
}

// wrap builds a ParallelArray object. The elements are copied at the
// boundary: mutating the source array after construction cannot desync
// length from get/mapPar (the PR-3 value-semantics fix).
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
			out, oc := autopar.MapSpec(st.in, argAt(args, 0), elems, st.opts)
			st.last = report(st.opts, oc)
			return st.wrapOwned(out), nil
		})))

	pa.Set("filterPar", value.ObjectVal(value.NewNative("filterPar",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			keep, oc := autopar.FilterSpec(st.in, argAt(args, 0), elems, st.opts)
			var kept []value.Value
			for i, k := range keep {
				if k {
					kept = append(kept, elems[i])
				}
			}
			st.last = report(st.opts, oc)
			return st.wrapOwned(kept), nil
		})))

	pa.Set("reducePar", value.ObjectVal(value.NewNative("reducePar",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			hasInit := len(args) > 1
			if len(elems) == 0 && !hasInit {
				// Match Array.prototype.reduce: an empty reduction with no
				// seed has no answer (the PR-3 empty-reduce fix).
				return value.Undefined(), value.ThrowTypeError("Reduce of empty ParallelArray with no initial value")
			}
			acc, oc := autopar.ReduceSpec(st.in, argAt(args, 0), elems, argAt(args, 1), hasInit, st.opts)
			st.last = report(st.opts, oc)
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
			st.last = report(st.opts, oc)
			return st.wrapOwned(out), nil
		})))

	pa.Set("get", value.ObjectVal(value.NewNative("get",
		func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			f := argAt(args, 0).ToNumber()
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

func argAt(args []value.Value, i int) value.Value {
	if i < len(args) {
		return args[i]
	}
	return value.Undefined()
}
