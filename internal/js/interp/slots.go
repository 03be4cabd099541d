package interp

// slots.go is the pre-resolved scope machinery of compile.go/exec.go:
// function scopes become flat slot arrays whose layout is fixed at
// compile time, and every variable reference lowers to one of four
// reference classes resolved without a map probe on the hot path. Catch
// scopes and the global scope stay dynamic map scopes on the same
// chain.

import (
	"slices"

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
// order callCompiled declares bindings: this, params, arguments when a
// call makes the object (needsArguments), then VarNames. Body-level
// function declarations are listed in VarNames by the parser but added
// here too, defensively. argsSlot is the arguments object's slot, -1
// when there is none.
func buildLayout(decl *ast.FuncLit) (l *scopeLayout, argsSlot int) {
	l = &scopeLayout{index: make(map[string]int, len(decl.Params)+len(decl.VarNames)+2)}
	l.add("this")
	for _, p := range decl.Params {
		l.add(p)
	}
	argsSlot = -1
	if needsArguments(decl) {
		argsSlot = l.add("arguments")
	}
	for _, n := range decl.VarNames {
		l.add(n)
	}
	for _, s := range decl.Body.Body {
		if fd, ok := s.(*ast.FuncDecl); ok {
			l.add(fd.Name)
		}
	}
	return l, argsSlot
}

// needsArguments reports whether a call of decl makes an arguments
// object. It does when the function can observe one: a var, a for-in
// target or an identifier named arguments in its body, outside nested
// function literals. And it does only when no parameter or body-level
// function declaration binds the name first (ES5 §10.5 step 7). Both
// engines call it, so a function that cannot observe the object neither
// pays for it nor fires its VarDeclare and ObjectNew.
func needsArguments(decl *ast.FuncLit) bool {
	if slices.Contains(decl.Params, "arguments") {
		return false
	}
	for _, s := range decl.Body.Body {
		if fd, ok := s.(*ast.FuncDecl); ok && fd.Name == "arguments" {
			return false
		}
	}
	named := slices.Contains(decl.VarNames, "arguments")
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			named = named || x.Name == "arguments"
		case *ast.ForInStmt:
			named = named || x.Name == "arguments"
		}
		return !named
	})
	return named
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

// activation is one call of a compiled function: its slot scope and the
// frame that runs its body, allocated together (callCompiled).
type activation struct {
	sc Scope
	fr frame
}

// argsActivation is the activation of a call that makes an arguments
// object, allocated with it.
type argsActivation struct {
	activation
	args value.Object
}

// declareSlot is declareVar for a layout slot: a binding that already
// has its name is a re-declaration and keeps its value unless v is
// defined, and VarDeclare fires exactly when the binding is first named.
func (in *Interp) declareSlot(sc *Scope, slot int, v value.Value) {
	b := &sc.slots[slot]
	if b.Name != "" {
		if !v.IsUndefined() {
			b.V = v
		}
		return
	}
	b.Name = sc.layout.names[slot]
	b.V = v
	if len(in.hooks.varDeclare) != 0 {
		in.hooks.fireVarDeclare(b.Name, b)
	}
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
		return &fr.fscope.slots[r.slot]
	case refOuter:
		sc := fr.fscope
		for d := 0; d < r.depth; d++ {
			sc = sc.parent
		}
		return &sc.slots[r.slot]
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
	if len(in.hooks.varRead) != 0 {
		in.hooks.fireVarRead(r.name, b)
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
		if len(in.hooks.varWrite) != 0 {
			in.hooks.fireVarWrite(r.name, b)
		}
		return
	}
	b.V = v
	if len(in.hooks.varWrite) != 0 {
		in.hooks.fireVarWrite(r.name, b)
	}
}
