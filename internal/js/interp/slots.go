package interp

// slots.go is the pre-resolved scope machinery of compile.go/exec.go:
// function scopes become flat slot arrays whose layout is fixed at
// compile time, and every variable reference lowers to one of four
// reference classes resolved without a map probe on the hot path. Catch
// scopes and the global scope stay dynamic map scopes on the same
// chain.

import (
	"repro/internal/js/ast"
	"repro/internal/js/value"
)

// scopeLayout maps the names of one function scope (this, params,
// arguments, hoisted vars and function declarations) to fixed slot
// indices. Layouts are immutable after compilation and shared by every
// frame of the function across all interpreters.
type scopeLayout struct {
	names []string
	index map[string]int
}

func (l *scopeLayout) add(name string) int {
	if i, ok := l.index[name]; ok {
		return i
	}
	i := len(l.names)
	l.names = append(l.names, name)
	l.index[name] = i
	return i
}

// buildLayout computes the slot layout of one function literal in the
// order callCompiled declares bindings: this, params, arguments, then
// VarNames. Body-level function declarations are listed in VarNames by
// the parser but added here too, defensively.
func buildLayout(decl *ast.FuncLit) *scopeLayout {
	l := &scopeLayout{index: make(map[string]int, len(decl.Params)+len(decl.VarNames)+2)}
	l.add("this")
	for _, p := range decl.Params {
		l.add(p)
	}
	l.add("arguments")
	for _, n := range decl.VarNames {
		l.add(n)
	}
	for _, s := range decl.Body.Body {
		if fd, ok := s.(*ast.FuncDecl); ok {
			l.add(fd.Name)
		}
	}
	return l
}

// frame is the execution state of one compiled activation. fscope is
// the activation's own slot scope; scope is the dynamic head, which
// diverges from fscope only inside catch blocks (which allocate map
// scopes). gcache is the interpreter's
// global-site cache for the unit being executed.
type frame struct {
	in     *Interp
	fscope *Scope
	scope  *Scope
	gcache []*Binding
}

// declareSlot is declareVar for a layout slot: re-declaration keeps the
// binding (only overwriting with a defined value), fresh slots take
// their binding from the frame's backing array, and VarDeclare fires
// exactly when a binding is created.
func (in *Interp) declareSlot(sc *Scope, backing []Binding, slot int, v value.Value) *Binding {
	if b := sc.slots[slot]; b != nil {
		if !v.IsUndefined() {
			b.V = v
		}
		return b
	}
	b := &backing[slot]
	b.Name = sc.layout.names[slot]
	b.V = v
	sc.slots[slot] = b
	if in.hooks != nil {
		in.hooks.VarDeclare(b.Name, b)
	}
	return b
}

// refKind classifies a compiled variable reference.
type refKind uint8

const (
	// refLocal is a slot in the current frame.
	refLocal refKind = iota
	// refOuter is a slot in an enclosing frame, depth parent hops away.
	refOuter
	// refGlobal resolves against Globals once per (unit, interpreter)
	// and caches the binding — sound because global bindings are never
	// removed or replaced once created.
	refGlobal
	// refDynamic falls back to the scope-chain walk; used inside catch
	// blocks (and functions defined there), whose scopes are dynamic.
	refDynamic
)

// ref is one pre-resolved variable reference.
type ref struct {
	kind  refKind
	depth int
	slot  int
	gsite int
	name  string
}

// binding resolves the reference, nil when unbound. No hooks fire here;
// read and write fire them around it.
func (r *ref) binding(fr *frame) *Binding {
	switch r.kind {
	case refLocal:
		return fr.fscope.slots[r.slot]
	case refOuter:
		sc := fr.fscope
		for d := 0; d < r.depth; d++ {
			sc = sc.parent
		}
		return sc.slots[r.slot]
	case refGlobal:
		if b := fr.gcache[r.gsite]; b != nil {
			return b
		}
		b := fr.in.Globals.lookup(r.name)
		if b != nil {
			fr.gcache[r.gsite] = b
		}
		return b
	default:
		return fr.scope.lookup(r.name)
	}
}

// read throws ReferenceError when unbound and fires VarRead otherwise.
func (r *ref) read(fr *frame) value.Value {
	b := r.binding(fr)
	in := fr.in
	if b == nil {
		in.throwError("ReferenceError", "%s is not defined", r.name)
	}
	if in.hooks != nil {
		in.hooks.VarRead(r.name, b)
	}
	return b.V
}

// write assigns in the innermost scope where the name is bound; unbound
// names become implicit globals (the JS pitfall §2.4 discusses).
func (r *ref) write(fr *frame, v value.Value) {
	b := r.binding(fr)
	in := fr.in
	if b == nil {
		b = in.declareVar(in.Globals, r.name, v)
		if r.kind == refGlobal {
			fr.gcache[r.gsite] = b
		}
		if in.hooks != nil {
			in.hooks.VarWrite(r.name, b)
		}
		return
	}
	b.V = v
	if in.hooks != nil {
		in.hooks.VarWrite(r.name, b)
	}
}
