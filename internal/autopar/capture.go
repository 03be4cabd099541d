package autopar

// Closure-capture serialization: a speculative plan ships the elemental
// function to share-nothing worker interpreters as its own source text,
// so everything the function closes over must either be re-materialized
// in the worker or the plan must abort. The rules mirror River Trail's
// kernel restrictions:
//
//   - ambient globals (Math, parseInt, ...) exist in every interpreter
//     and are not captured;
//   - captured primitives are installed per worker by value;
//   - captured flat arrays of primitives are installed per worker as
//     copies (read-only inputs; a kernel write to one is caught by the
//     worker-side guard);
//   - captured interpreted helper functions ship as their source text,
//     with their own captures resolved the same way;
//   - anything else (external objects, native closures, nested arrays)
//     aborts the plan with a §5.3-style reason.
//
// The free-name analysis and the nondeterminism check live in
// internal/effects (FreeNames, Nondeterminism), shared with the static
// purity prover so the runtime capture plan and the compile-time
// verdict agree on one binding model and one list of nondeterministic
// natives. Only genuinely free references count: a kernel-local
// `var Date`, even one declared in a nested block, is plain data.

import (
	"fmt"
	"strings"

	"repro/internal/effects"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// ambient lists the globals every fresh interpreter installs; workers
// have their own, so the plan never captures them — provided the main
// interpreter's binding is still pristine. A rebound or shadowed
// ambient (a user-defined Math, a closure-local Date) would make
// workers resolve the builtin while the sequential path resolves the
// user's value, so resolve() aborts the plan in that case instead.
// The set is shared with the static prover.
var ambient = effects.Ambient

// capturedVal is one primitive (or flat primitive array) binding to
// install per worker.
type capturedVal struct {
	name  string
	v     value.Value
	arr   []value.Value
	isArr bool
}

// capturePlan is the serialized closure environment of an elemental
// function.
type capturePlan struct {
	in       *interp.Interp
	funcSrcs []string      // `var f = function (...) {...};` definitions
	vals     []capturedVal // primitives and flat arrays, per-worker copies
	seen     map[string]*interp.Binding
}

const maxCaptureDepth = 8

// reserved reports a name the worker program may define for itself —
// everything __-prefixed, __elemental included; a kernel capturing one
// would be overwritten by (or overwrite) the engine's own globals inside
// the worker.
func reserved(name string) bool {
	return strings.HasPrefix(name, "__")
}

// newCapturePlan resolves fn's transitive captures against the main
// interpreter in. A non-empty abort string means the function cannot be
// serialized and the plan must fall back to sequential execution.
func newCapturePlan(in *interp.Interp, fn *value.Object) (*capturePlan, string) {
	p := &capturePlan{in: in, seen: make(map[string]*interp.Binding)}
	if abort := p.resolve(fn, 0); abort != "" {
		return nil, abort
	}
	return p, ""
}

func (p *capturePlan) resolve(fn *value.Object, depth int) string {
	if depth > maxCaptureDepth {
		return "capture chain deeper than " + fmt.Sprint(maxCaptureDepth) + " functions"
	}
	if fn.Fn == nil {
		return "elemental is not a function"
	}
	if fn.Fn.Native != nil || fn.Fn.Decl == nil {
		return "elemental function " + displayName(fn) + " is native; cannot serialize for workers"
	}
	if fn.NumProps() > 0 {
		// Its source text does not carry expando properties (f.cache = ...),
		// which the function body may read.
		return "function " + displayName(fn) + " carries properties; cannot serialize for workers"
	}
	lit := fn.Fn.Decl.(*ast.FuncLit)
	if reason := effects.Nondeterminism(lit); reason != "" {
		return displayName(fn) + " " + reason
	}
	env, _ := fn.Fn.Env.(*interp.Scope)
	for _, name := range effects.FreeNames(lit) {
		if reserved(name) {
			return "captures reserved name " + name + "; it collides with the worker program's own globals"
		}
		if env == nil {
			continue
		}
		b := env.Lookup(name)
		if ambient[name] {
			// Safe to skip only while the name still means the builtin:
			// the binding the kernel sees must be the untouched global.
			if b == p.in.Globals.Lookup(name) && p.in.GlobalIsPristine(name) {
				continue
			}
			return "ambient global " + name + " is shadowed or rebound; workers would resolve the builtin"
		}
		if b == nil {
			// Unbound here means unbound in the worker too: the same
			// ReferenceError surfaces either way.
			continue
		}
		if prev, ok := p.seen[name]; ok {
			if prev != b {
				return "capture name " + name + " is ambiguous across closure scopes"
			}
			continue
		}
		p.seen[name] = b
		if abort := p.captureBinding(name, b.V, depth); abort != "" {
			return abort
		}
	}
	return ""
}

// captureBinding classifies one captured value.
func (p *capturePlan) captureBinding(name string, v value.Value, depth int) string {
	if !v.IsObject() {
		p.vals = append(p.vals, capturedVal{name: name, v: v})
		return ""
	}
	o := v.Object()
	if o.Fn != nil {
		if o.Fn.Native != nil || o.Fn.Decl == nil {
			return "captures native function " + name
		}
		p.funcSrcs = append(p.funcSrcs, "var "+name+" = "+o.Fn.Decl.(*ast.FuncLit).Source()+";")
		return p.resolve(o, depth+1)
	}
	if o.IsArray() && o.NumProps() == 0 {
		arr := make([]value.Value, len(o.Elems))
		for i, e := range o.Elems {
			if e.IsObject() {
				return fmt.Sprintf("captures array %s with non-primitive element %d", name, i)
			}
			arr[i] = e
		}
		p.vals = append(p.vals, capturedVal{name: name, arr: arr, isArr: true})
		return ""
	}
	return "captures external object " + name + " <" + o.Class + ">"
}

// prelude returns the helper-function definitions to prepend to the
// worker program.
func (p *capturePlan) prelude() string {
	return strings.Join(p.funcSrcs, "\n")
}

// install writes the captured primitive bindings into a worker
// interpreter. Primitives are immutable values; arrays are per-worker
// copies, so no state is shared between interpreters.
func (p *capturePlan) install(in *interp.Interp) {
	for _, cv := range p.vals {
		if cv.isArr {
			elems := append([]value.Value(nil), cv.arr...)
			in.SetGlobal(cv.name, value.ObjectVal(in.NewArray(elems...)))
			continue
		}
		in.SetGlobal(cv.name, cv.v)
	}
}

func displayName(fn *value.Object) string {
	if fn.Fn != nil && fn.Fn.Name != "" {
		return fn.Fn.Name
	}
	return "<anonymous>"
}
