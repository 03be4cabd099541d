package interp

import (
	"repro/internal/js/ast"
	"repro/internal/js/value"
)

// NopHooks implements Hooks with no-ops; embed it to implement only the
// events an analyzer cares about, and override Observes to name their
// classes.
type NopHooks struct{}

// Observes implements Hooks: all six classes.
func (NopHooks) Observes() Events { return allEvents }

// LoopEnter implements Hooks.
func (NopHooks) LoopEnter(ast.LoopID) {}

// LoopIter implements Hooks.
func (NopHooks) LoopIter(ast.LoopID) {}

// LoopExit implements Hooks.
func (NopHooks) LoopExit(ast.LoopID) {}

// LoopHeader implements Hooks.
func (NopHooks) LoopHeader(ast.LoopID, bool) {}

// BranchTaken implements Hooks.
func (NopHooks) BranchTaken(int, bool) {}

// CallEnter implements Hooks.
func (NopHooks) CallEnter(string) {}

// CallExit implements Hooks.
func (NopHooks) CallExit(string) {}

// VarDeclare implements Hooks.
func (NopHooks) VarDeclare(string, *Binding) {}

// VarRead implements Hooks.
func (NopHooks) VarRead(string, *Binding) {}

// VarWrite implements Hooks.
func (NopHooks) VarWrite(string, *Binding) {}

// ObjectNew implements Hooks.
func (NopHooks) ObjectNew(*value.Object) {}

// PropRead implements Hooks.
func (NopHooks) PropRead(*value.Object, string, *Binding) {}

// PropWrite implements Hooks.
func (NopHooks) PropWrite(*value.Object, string, *Binding) {}

// MultiHooks fans events out to a list of hook implementations, so a
// profiler and a sampler can observe the same run. It observes the union
// of its members' classes and sends each event only to the members that
// observe its class.
type MultiHooks struct {
	ev                                  Events
	loop, branch, call, vars, obj, prop []Hooks
}

// NewMultiHooks combines hooks; nil entries are dropped.
func NewMultiHooks(hooks ...Hooks) *MultiHooks {
	m := &MultiHooks{}
	add := func(list *[]Hooks, h Hooks, ev, class Events) {
		if ev&class != 0 {
			*list = append(*list, h)
		}
	}
	for _, h := range hooks {
		if h == nil {
			continue
		}
		ev := h.Observes()
		m.ev |= ev
		add(&m.loop, h, ev, EvLoop)
		add(&m.branch, h, ev, EvBranch)
		add(&m.call, h, ev, EvCall)
		add(&m.vars, h, ev, EvVar)
		add(&m.obj, h, ev, EvObject)
		add(&m.prop, h, ev, EvProp)
	}
	return m
}

// Observes implements Hooks: the union of the members' classes.
func (m *MultiHooks) Observes() Events { return m.ev }

// LoopEnter implements Hooks.
func (m *MultiHooks) LoopEnter(id ast.LoopID) {
	for _, h := range m.loop {
		h.LoopEnter(id)
	}
}

// LoopIter implements Hooks.
func (m *MultiHooks) LoopIter(id ast.LoopID) {
	for _, h := range m.loop {
		h.LoopIter(id)
	}
}

// LoopExit implements Hooks.
func (m *MultiHooks) LoopExit(id ast.LoopID) {
	for _, h := range m.loop {
		h.LoopExit(id)
	}
}

// LoopHeader implements Hooks.
func (m *MultiHooks) LoopHeader(id ast.LoopID, active bool) {
	for _, h := range m.loop {
		h.LoopHeader(id, active)
	}
}

// BranchTaken implements Hooks.
func (m *MultiHooks) BranchTaken(id int, taken bool) {
	for _, h := range m.branch {
		h.BranchTaken(id, taken)
	}
}

// CallEnter implements Hooks.
func (m *MultiHooks) CallEnter(name string) {
	for _, h := range m.call {
		h.CallEnter(name)
	}
}

// CallExit implements Hooks.
func (m *MultiHooks) CallExit(name string) {
	for _, h := range m.call {
		h.CallExit(name)
	}
}

// VarDeclare implements Hooks.
func (m *MultiHooks) VarDeclare(name string, b *Binding) {
	for _, h := range m.vars {
		h.VarDeclare(name, b)
	}
}

// VarRead implements Hooks.
func (m *MultiHooks) VarRead(name string, b *Binding) {
	for _, h := range m.vars {
		h.VarRead(name, b)
	}
}

// VarWrite implements Hooks.
func (m *MultiHooks) VarWrite(name string, b *Binding) {
	for _, h := range m.vars {
		h.VarWrite(name, b)
	}
}

// ObjectNew implements Hooks.
func (m *MultiHooks) ObjectNew(o *value.Object) {
	for _, h := range m.obj {
		h.ObjectNew(o)
	}
}

// PropRead implements Hooks.
func (m *MultiHooks) PropRead(o *value.Object, key string, via *Binding) {
	for _, h := range m.prop {
		h.PropRead(o, key, via)
	}
}

// PropWrite implements Hooks.
func (m *MultiHooks) PropWrite(o *value.Object, key string, via *Binding) {
	for _, h := range m.prop {
		h.PropWrite(o, key, via)
	}
}

var _ Hooks = (*MultiHooks)(nil)
var _ Hooks = NopHooks{}
