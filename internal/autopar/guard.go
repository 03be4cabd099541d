package autopar

import (
	"slices"

	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// Guard is the runtime purity monitor speculation rests on. While active
// it watches every write the interpreter performs: a write to a binding
// or object that existed before the guarded operation started is a purity
// violation — the elemental function touched state it does not own, so a
// parallel plan over it would race. Bindings and objects created during
// the operation (locals, fresh temporaries) are in the epoch and freely
// writable; callers may exempt additional objects (e.g. a result array
// under construction).
//
// The guard records the *first* violation with a §5.3-style reason naming
// the variable or property, which is what RiverTrailReport() surfaces to
// the developer.
type Guard struct {
	active   bool
	epoch    map[any]bool
	violated string
	// globalScope, when set (worker configuration), makes the creation
	// of a NEW binding in that scope a violation: an implicit global
	// (`leak = i` with no declaration) materializing on a share-nothing
	// worker would be silently discarded instead of landing on the main
	// interpreter as sequential semantics require.
	globalScope *interp.Scope
}

// NewGuard returns an inactive guard.
func NewGuard() *Guard {
	return &Guard{epoch: make(map[any]bool)}
}

// Violation returns the first recorded purity violation ("" when clean).
func (g *Guard) Violation() string {
	if g == nil {
		// A statically-proven dispatch runs with no guard at all; the
		// nil guard never has a violation to report.
		return ""
	}
	return g.violated
}

// VarDeclare: new bindings join the epoch — except implicit globals on a
// worker (see globalScope), which violate.
func (g *Guard) VarDeclare(name string, b *interp.Binding) {
	if !g.active {
		return
	}
	if g.globalScope != nil && g.violated == "" && g.globalScope.Lookup(name) == b {
		g.violated = "creates implicit global " + name
	}
	g.epoch[b] = true
}

// VarWrite: writes outside the epoch violate.
func (g *Guard) VarWrite(name string, b *interp.Binding) {
	if !g.active || g.violated != "" {
		return
	}
	if !g.epoch[b] {
		g.violated = "writes captured variable " + name
	}
}

// ObjectNew: new objects join the epoch.
func (g *Guard) ObjectNew(o *value.Object) {
	if g.active {
		g.epoch[o] = true
	}
}

// PropWrite: property writes on pre-existing objects violate.
func (g *Guard) PropWrite(o *value.Object, key string, _ *interp.Binding) {
	if !g.active || g.violated != "" {
		return
	}
	if !g.epoch[o] {
		g.violated = "mutates external object <" + o.Class + ">." + key
	}
}

// With runs body with the guard chained onto whatever hooks the
// interpreter already has installed, and restores them afterwards. The
// restore runs even when body panics (the interpreter signals JS throws
// by panicking), so an elemental function that throws mid-operation can
// never leak an active guard that would flag unrelated later writes.
func (g *Guard) With(in *interp.Interp, body func() error) error {
	prev := in.HooksInstalled()
	in.SetHooks(append(slices.Clip(prev), g)...)
	g.active = true
	defer func() {
		g.active = false
		in.SetHooks(prev...)
	}()
	return body()
}

// Activate arms the guard on a fresh interpreter with no hook chaining —
// the per-worker configuration, where everything loaded before the first
// kernel call (inputs, captured globals, helper functions) is external
// state the kernel must not write, and a brand-new implicit global is a
// side effect the share-nothing worker could never deliver back.
func (g *Guard) Activate(in *interp.Interp) {
	g.globalScope = in.Globals
	in.SetHooks(g)
	g.active = true
}
