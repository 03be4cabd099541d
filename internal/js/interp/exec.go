package interp

// exec.go is the runtime half of compile.go: frame setup for calls,
// protected-region running for try/catch, and the per-interpreter
// global-site caches.

import (
	"slices"

	"repro/internal/js/ast"
	"repro/internal/js/value"
)

// runSeq runs a compiled statement list, stopping at the first abrupt
// completion.
func runSeq(fr *frame, list []cstmt) ctrl {
	for _, cs := range list {
		c := cs(fr)
		if c.kind != ctrlNormal {
			return c
		}
	}
	return ctrlOK
}

// runProtected runs a try or catch body, intercepting JS throws (but
// not fatals). A throw drops the argument windows it unwound.
func runProtected(fr *frame, list []cstmt) (c ctrl, thrown *jsThrow) {
	height := len(fr.in.argStack)
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*jsThrow); ok {
				fr.in.dropArgs(height)
				thrown = t
				return
			}
			panic(r)
		}
	}()
	return runSeq(fr, list), nil
}

// gcacheFor returns this interpreter's global-site cache for a unit,
// allocating it on first use.
func (in *Interp) gcacheFor(u *cunit) []*Binding {
	if g, ok := in.gcaches[u]; ok {
		return g
	}
	if in.gcaches == nil {
		in.gcaches = make(map[*cunit][]*Binding, 2)
	}
	g := make([]*Binding, u.ngsite)
	in.gcaches[u] = g
	return g
}

// newFunction materializes a function value carrying its compiled body
// (nil only from the test-side tree walk, see treeInvoke).
func (in *Interp) newFunction(lit *ast.FuncLit, cf *cfunc, env *Scope) *value.Object {
	fn := value.NewFunction(lit.Name, lit.Params, lit, env)
	if cf != nil {
		fn.Fn.Compiled = cf
	}
	if len(in.hooks.objectNew) != 0 {
		in.hooks.fireObjectNew(fn)
	}
	return fn
}

// callCompiled executes a compiled function body. The caller (invoke)
// has already fired CallEnter and charged call-depth accounting. The
// activation declares this, the parameters, arguments (when the function
// makes the object, needsArguments), the hoisted vars and then the
// body-level functions, in that order (analyzers see the VarDeclare
// stream). args is borrowed — an argument window (invokeWindow), a
// leaf's array on its caller's Go stack (callLeafWith) or a Go caller's
// slice — so the parameter slots and the arguments object copy it
// before the body runs. A leaf called while no installed hook has a
// var or prop event method runs pooled (callPooled); any other call
// allocates the activation (scope and frame together) and its inline
// bindings, so every binding a hook sees is distinct per call —
// autopar's guards key on *Binding identity. The arguments object rides
// in the activation's allocation (argsActivation).
func (in *Interp) callCompiled(cf *cfunc, fn *value.Function, this value.Value, args []value.Value) value.Value {
	if cf.leaf && !in.binding {
		return in.callPooled(cf, fn, this, args)
	}
	slots := make([]Binding, len(cf.layout.names))
	if cf.argsSlot < 0 {
		act := &activation{sc: Scope{slots: slots}}
		in.declareHead(act, cf, fn, this, args)
		return in.runActivation(act, cf)
	}
	aa := &argsActivation{activation: activation{sc: Scope{slots: slots}}}
	in.declareHead(&aa.activation, cf, fn, this, args)
	aa.args = value.Object{Class: value.ClassArray, Elems: append([]value.Value(nil), args...)}
	if len(in.hooks.objectNew) != 0 {
		in.hooks.fireObjectNew(&aa.args)
	}
	in.declareSlot(&aa.sc, cf.argsSlot, value.ObjectVal(&aa.args))
	return in.runActivation(&aa.activation, cf)
}

// callPooled runs a leaf, called while no installed hook has an event
// method that is handed a binding, in the pooled activation for this
// call depth. A leaf makes no arguments object, and nothing keeps args.
// The activation leaves the pool at entry and goes back, cleared, only
// on a normal return during which no SetHooks ran (hooks installed at
// exit moved the epoch too): a throw drops it, and a hook may hold its
// bindings.
func (in *Interp) callPooled(cf *cfunc, fn *value.Function, this value.Value, args []value.Value) value.Value {
	epoch, d := in.hookEpoch, in.callDepth
	if d >= len(in.acts) {
		in.acts = append(in.acts, make([]*activation, d+1-len(in.acts))...)
	}
	act := in.acts[d]
	if act == nil {
		act = new(activation)
	}
	in.acts[d] = nil
	act.sc.slots = slices.Grow(act.sc.slots[:0], len(cf.layout.names))[:len(cf.layout.names)]
	in.declareHead(act, cf, fn, this, args)
	v := in.runActivation(act, cf)
	if in.hookEpoch == epoch {
		clear(act.sc.slots)
		act.sc.parent = nil
		in.acts[d] = act
	}
	return v
}

// declareHead links a new activation to fn's scope and declares this and
// the parameters.
func (in *Interp) declareHead(act *activation, cf *cfunc, fn *value.Function, this value.Value, args []value.Value) {
	sc := &act.sc
	sc.parent, _ = fn.Env.(*Scope)
	sc.layout = cf.layout
	in.declareSlot(sc, cf.thisSlot, this)
	for i, slot := range cf.paramSlots {
		in.declareSlot(sc, slot, argAt(args, i))
	}
}

// runActivation declares the hoisted vars and body-level functions of an
// activation whose head and arguments are declared, then runs the body.
func (in *Interp) runActivation(act *activation, cf *cfunc) value.Value {
	sc := &act.sc
	for _, slot := range cf.varSlots {
		in.declareSlot(sc, slot, value.Undefined())
	}
	for i := range cf.hoisted {
		h := &cf.hoisted[i]
		f := in.newFunction(h.lit, h.cf, sc)
		in.declareSlot(sc, h.slot, value.ObjectVal(f))
	}
	act.fr = frame{in: in, fscope: sc, scope: sc, gcache: in.gcacheFor(cf.unit)}
	c := runSeq(&act.fr, cf.body)
	if c.kind == ctrlReturn {
		return c.val
	}
	return value.Undefined()
}
