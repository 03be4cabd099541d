package interp

import (
	"fmt"

	"repro/internal/js/ast"
	"repro/internal/js/value"
)

// The thirteen hook events, one method each. A hook is any value with
// one or more of these methods: SetHooks subscribes it to exactly the
// events it has, so a hook's method set is its subscription, and a run
// pays only for the events some hook has — with no var or prop method
// installed (the events that hand out a *Binding) leaf calls keep their
// pooled activations (callPooled). Implementations must be cheap: they
// run inline with evaluation.
type (
	// LoopEnter fires when a syntactic loop begins a new dynamic instance.
	loopEnterHook interface{ LoopEnter(id ast.LoopID) }
	// LoopIter fires before each iteration body.
	loopIterHook interface{ LoopIter(id ast.LoopID) }
	// LoopExit fires when the loop instance finishes (normally or via
	// break/return/throw), to the hooks installed when it entered.
	loopExitHook interface{ LoopExit(id ast.LoopID) }
	// LoopHeader brackets evaluation of a loop's init/post clauses so
	// analyzers can exempt induction-variable updates.
	loopHeaderHook interface {
		LoopHeader(id ast.LoopID, active bool)
	}
	// BranchTaken reports the outcome of a branching construct.
	branchTakenHook interface {
		BranchTaken(branchID int, taken bool)
	}
	// CallEnter/CallExit bracket function invocations.
	callEnterHook interface{ CallEnter(name string) }
	callExitHook  interface{ CallExit(name string) }
	// VarDeclare fires when a binding is created; VarRead/VarWrite on use.
	varDeclareHook interface {
		VarDeclare(name string, b *Binding)
	}
	varReadHook  interface{ VarRead(name string, b *Binding) }
	varWriteHook interface{ VarWrite(name string, b *Binding) }
	// ObjectNew fires for every object/array/function allocation.
	objectNewHook interface{ ObjectNew(o *value.Object) }
	// PropRead/PropWrite fire on property and element accesses. key is the
	// canonical property key (array indices in decimal). via is the binding
	// of the base reference when the access goes through a simple variable
	// (p.x, a[i], this.y) and nil otherwise; JS-CERES characterizes the
	// access against the stamp of that reference, which is what makes the
	// paper's §3.3 forEach variant drop its warnings.
	propReadHook interface {
		PropRead(o *value.Object, key string, via *Binding)
	}
	propWriteHook interface {
		PropWrite(o *value.Object, key string, via *Binding)
	}
	// HostOp reports a substrate operation (category "dom", "canvas",
	// "event") that EmitHostOp charged, so analyzers can attribute it
	// to open loops.
	hostOpHook interface{ HostOp(category, op string) }
)

// hookLists holds, per event, the installed hooks that have its method,
// in installation order.
type hookLists struct {
	loopEnter   []loopEnterHook
	loopIter    []loopIterHook
	loopExit    []loopExitHook
	loopHeader  []loopHeaderHook
	branchTaken []branchTakenHook
	callEnter   []callEnterHook
	callExit    []callExitHook
	varDeclare  []varDeclareHook
	varRead     []varReadHook
	varWrite    []varWriteHook
	objectNew   []objectNewHook
	propRead    []propReadHook
	propWrite   []propWriteHook
	hostOp      []hostOpHook
}

// subscribe appends h to every list whose event method it has and
// returns how many that is.
func (l *hookLists) subscribe(h any) int {
	return sub(&l.loopEnter, h) + sub(&l.loopIter, h) + sub(&l.loopExit, h) +
		sub(&l.loopHeader, h) + sub(&l.branchTaken, h) + sub(&l.callEnter, h) +
		sub(&l.callExit, h) + sub(&l.varDeclare, h) + sub(&l.varRead, h) +
		sub(&l.varWrite, h) + sub(&l.objectNew, h) + sub(&l.propRead, h) +
		sub(&l.propWrite, h) + sub(&l.hostOp, h)
}

func sub[T any](list *[]T, h any) int {
	if t, ok := h.(T); ok {
		*list = append(*list, t)
		return 1
	}
	return 0
}

// The fire methods send one event to its hooks. A firing site, which an
// unhooked run passes too, tests its list's length and calls one. They
// stay out of line: with the loop inlined at every site, the engine's
// hot closures grew by up to a fifth and an unhooked fluidSim run
// (BenchmarkAblationInstrumentationOverhead/none, 2-vCPU Xeon) took
// about 5% longer.

//go:noinline
func (l *hookLists) fireLoopEnter(id ast.LoopID) {
	for _, h := range l.loopEnter {
		h.LoopEnter(id)
	}
}

//go:noinline
func (l *hookLists) fireLoopIter(id ast.LoopID) {
	for _, h := range l.loopIter {
		h.LoopIter(id)
	}
}

//go:noinline
func (l *hookLists) fireLoopHeader(id ast.LoopID, active bool) {
	for _, h := range l.loopHeader {
		h.LoopHeader(id, active)
	}
}

//go:noinline
func (l *hookLists) fireBranchTaken(id int, taken bool) {
	for _, h := range l.branchTaken {
		h.BranchTaken(id, taken)
	}
}

//go:noinline
func (l *hookLists) fireCallEnter(name string) {
	for _, h := range l.callEnter {
		h.CallEnter(name)
	}
}

//go:noinline
func (l *hookLists) fireCallExit(name string) {
	for _, h := range l.callExit {
		h.CallExit(name)
	}
}

//go:noinline
func (l *hookLists) fireVarDeclare(name string, b *Binding) {
	for _, h := range l.varDeclare {
		h.VarDeclare(name, b)
	}
}

//go:noinline
func (l *hookLists) fireVarRead(name string, b *Binding) {
	for _, h := range l.varRead {
		h.VarRead(name, b)
	}
}

//go:noinline
func (l *hookLists) fireVarWrite(name string, b *Binding) {
	for _, h := range l.varWrite {
		h.VarWrite(name, b)
	}
}

//go:noinline
func (l *hookLists) fireObjectNew(o *value.Object) {
	for _, h := range l.objectNew {
		h.ObjectNew(o)
	}
}

//go:noinline
func (l *hookLists) firePropRead(o *value.Object, key string, via *Binding) {
	for _, h := range l.propRead {
		h.PropRead(o, key, via)
	}
}

//go:noinline
func (l *hookLists) firePropWrite(o *value.Object, key string, via *Binding) {
	for _, h := range l.propWrite {
		h.PropWrite(o, key, via)
	}
}

//go:noinline
func (l *hookLists) fireHostOp(category, op string) {
	for _, h := range l.hostOp {
		h.HostOp(category, op)
	}
}

// SetHooks replaces the installed instrumentation hooks with hooks (none
// clears them). Nil entries are dropped; each other hook is sent, in
// argument order, every event whose method it has: LoopEnter, LoopIter,
// LoopExit, LoopHeader, BranchTaken, CallEnter, CallExit, VarDeclare,
// VarRead, VarWrite, ObjectNew, PropRead, PropWrite and HostOp, with
// the signatures above. It panics on a hook with no event method.
func (in *Interp) SetHooks(hooks ...any) {
	in.installed, in.hooks, in.hookEpoch = nil, hookLists{}, in.hookEpoch+1
	for _, h := range hooks {
		if h == nil {
			continue
		}
		if in.hooks.subscribe(h) == 0 {
			panic(fmt.Sprintf("interp: hook %T has no event method", h))
		}
		in.installed = append(in.installed, h)
	}
	l := &in.hooks
	in.binding = len(l.varDeclare)+len(l.varRead)+len(l.varWrite)+len(l.propRead)+len(l.propWrite) > 0
}

// enterLoop fires LoopEnter and returns the hooks the matching LoopExit
// goes to (exitLoop): those installed now, whatever SetHooks runs inside
// the loop.
func (in *Interp) enterLoop(id ast.LoopID) []loopExitHook {
	if len(in.hooks.loopEnter) != 0 {
		in.hooks.fireLoopEnter(id)
	}
	return in.hooks.loopExit
}

// exitLoop fires LoopExit on hs, the hooks enterLoop returned.
func exitLoop(hs []loopExitHook, id ast.LoopID) {
	for _, h := range hs {
		h.LoopExit(id)
	}
}

// HooksInstalled returns the installed hooks, in SetHooks order.
func (in *Interp) HooksInstalled() []any { return in.installed }
