package interp

// exec.go is the runtime half of compile.go: frame setup for calls,
// protected-region running for try/catch, and the per-interpreter
// global-site caches.

import (
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
// not fatals).
func runProtected(fr *frame, list []cstmt) (c ctrl, thrown *jsThrow) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*jsThrow); ok {
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
	if in.hooks != nil {
		in.hooks.ObjectNew(fn)
	}
	return fn
}

// callCompiled executes a compiled function body. The caller (invoke)
// has already fired CallEnter and charged call-depth accounting. The
// activation declares this, the parameters, arguments, the hoisted vars
// and then the body-level functions, in that order (analyzers see the
// VarDeclare stream); bindings come from one backing array and land in
// layout slots.
func (in *Interp) callCompiled(cf *cfunc, fn *value.Function, this value.Value, args []value.Value) value.Value {
	parent, _ := fn.Env.(*Scope)
	n := len(cf.layout.names)
	sc := &Scope{parent: parent, layout: cf.layout, slots: make([]*Binding, n)}
	// One allocation covers every binding of the activation. Bindings are
	// still distinct per call — autopar's guards key on *Binding identity.
	backing := make([]Binding, n)

	in.declareSlot(sc, backing, cf.thisSlot, this)
	for i, slot := range cf.paramSlots {
		var v value.Value
		if i < len(args) {
			v = args[i]
		} else {
			v = value.Undefined()
		}
		in.declareSlot(sc, backing, slot, v)
	}
	argObj := in.NewArray(args...)
	in.declareSlot(sc, backing, cf.argsSlot, value.ObjectVal(argObj))
	for _, slot := range cf.varSlots {
		in.declareSlot(sc, backing, slot, value.Undefined())
	}
	for i := range cf.hoisted {
		h := &cf.hoisted[i]
		f := in.newFunction(h.lit, h.cf, sc)
		in.declareSlot(sc, backing, h.slot, value.ObjectVal(f))
	}

	fr := frame{in: in, fscope: sc, scope: sc, gcache: in.gcacheFor(cf.unit)}
	c := runSeq(&fr, cf.body)
	if c.kind == ctrlReturn {
		return c.val
	}
	return value.Undefined()
}
