// Package interp is the evaluator for the JavaScript subset, with
// first-class instrumentation hooks. Run lowers a parsed program once
// into closures over pre-resolved slots (compile.go, slots.go, exec.go)
// and executes those; the lowered form belongs to the ast.Program, so
// every interpreter that runs the same tree shares it. There is one
// engine. The tree walk it replaced lives in this package's tests as the
// reference the differential suites hold it to (treewalk_test.go).
//
// The hooks deliver exactly the dynamic events JS-CERES consumes (loop
// entry/iteration/exit, variable and property reads and writes, object
// creation, call boundaries, branch outcomes) — the same event vocabulary
// the paper's proxy-injected instrumentation observes inside a browser.
//
// Time is virtual and deterministic: every evaluation step advances a
// nanosecond clock by a fixed amount, and host operations may add extra
// time. All profiles in this reproduction are expressed in virtual time,
// which makes the Table 2/3 pipelines reproducible to the step.
package interp

import (
	"fmt"

	"repro/internal/js/ast"
	"repro/internal/js/value"
)

// Hooks is the instrumentation surface. Implementations must be cheap:
// they run inline with evaluation. A nil Hooks disables instrumentation.
type Hooks interface {
	// LoopEnter fires when a syntactic loop begins a new dynamic instance.
	LoopEnter(id ast.LoopID)
	// LoopIter fires before each iteration body.
	LoopIter(id ast.LoopID)
	// LoopExit fires when the loop instance finishes (normally or via
	// break/return/throw).
	LoopExit(id ast.LoopID)
	// LoopHeader brackets evaluation of a loop's init/post clauses so
	// analyzers can exempt induction-variable updates.
	LoopHeader(id ast.LoopID, active bool)
	// BranchTaken reports the outcome of a branching construct.
	BranchTaken(branchID int, taken bool)
	// CallEnter/CallExit bracket function invocations.
	CallEnter(name string)
	CallExit(name string)
	// VarDeclare fires when a binding is created; VarRead/VarWrite on use.
	VarDeclare(name string, b *Binding)
	VarRead(name string, b *Binding)
	VarWrite(name string, b *Binding)
	// ObjectNew fires for every object/array/function allocation.
	ObjectNew(o *value.Object)
	// PropRead/PropWrite fire on property and element accesses. key is the
	// canonical property key (array indices in decimal). via is the binding
	// of the base reference when the access goes through a simple variable
	// (p.x, a[i], this.y) and nil otherwise; JS-CERES characterizes the
	// access against the stamp of that reference, which is what makes the
	// paper's §3.3 forEach variant drop its warnings.
	PropRead(o *value.Object, key string, via *Binding)
	PropWrite(o *value.Object, key string, via *Binding)
}

// Binding is one variable slot. Aux is reserved for the analyzer
// (creation-stamp records), mirroring how the paper stamps variables.
type Binding struct {
	Name string
	V    value.Value
	Aux  any
}

// Scope is a function-level lexical scope. Blocks do not introduce scopes:
// `var` is function-scoped (hoisted), which the paper's §3.3 N-body example
// depends on. `this` is modelled as an ordinary binding named "this",
// re-declared at every call, which gives it the correct per-call stamp
// in the dependence analysis.
type Scope struct {
	vars   map[string]*Binding
	parent *Scope
	// layout/slots hold function activations (slots.go): names resolve
	// through fixed indices into slots and vars is nil. Declarations at
	// run time land only on map scopes — Globals and catch scopes.
	layout *scopeLayout
	slots  []*Binding
}

// NewScope returns a child scope of parent.
func NewScope(parent *Scope) *Scope {
	return &Scope{vars: make(map[string]*Binding, 8), parent: parent}
}

// Lookup resolves name through the scope chain, returning nil when the
// name is unbound. Host-side analyzers (internal/autopar's closure
// capture) use it to read the environment of an interpreted function;
// it resolves through compiled slot frames and map scopes alike.
func (s *Scope) Lookup(name string) *Binding { return s.lookup(name) }

func (s *Scope) lookup(name string) *Binding {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.layout != nil {
			if i, ok := sc.layout.index[name]; ok {
				if b := sc.slots[i]; b != nil {
					return b
				}
			}
		}
		if b, ok := sc.vars[name]; ok {
			return b
		}
	}
	return nil
}

// declare binds name on a map scope (declareSlot is its twin for slot
// frames).
func (s *Scope) declare(name string, v value.Value) *Binding {
	if b := s.vars[name]; b != nil {
		// re-declaration keeps the binding (var x; var x;)
		if !v.IsUndefined() {
			b.V = v
		}
		return b
	}
	b := &Binding{Name: name, V: v}
	s.vars[name] = b
	return b
}

// ctrl is a statement completion.
type ctrlKind uint8

const (
	ctrlNormal ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type ctrl struct {
	kind ctrlKind
	val  value.Value
}

var ctrlOK = ctrl{}

// jsThrow carries a JavaScript exception up the Go stack.
type jsThrow struct{ val value.Value }

// fatal carries an unrecoverable interpreter error (step limit etc.).
type fatal struct{ err error }

// Interp executes programs.
type Interp struct {
	Globals *Scope
	hooks   Hooks

	steps     int64
	nsPerStep int64
	hostNS    int64 // extra virtual time charged by host operations
	idleNS    int64 // virtual time spent idle (event-loop waits)
	maxSteps  int64

	callDepth    int
	maxCallDepth int

	rng uint64

	console []string
	// consoleCap bounds retained console output.
	consoleCap int

	// pristine records the standard globals as installed (and, for
	// object globals, a shallow snapshot of their own properties), so
	// analyzers (internal/autopar) can detect user rebinding or
	// mutation of e.g. Math.
	pristine      map[string]value.Value
	pristineProps map[string]map[string]value.Value

	// hostOpListener observes substrate operations (DOM mutations, canvas
	// blits) so analyzers can attribute them to open loops.
	hostOpListener func(category, op string)

	// gcaches holds per-unit global reference caches — per interpreter,
	// because a *Binding resolved in one interpreter's Globals means
	// nothing in another's.
	gcaches map[*cunit][]*Binding
}

// SetHostOpListener registers the observer for host (DOM/canvas/event)
// operations. Substrate packages call EmitHostOp on every such operation.
func (in *Interp) SetHostOpListener(f func(category, op string)) { in.hostOpListener = f }

// EmitHostOp reports a host operation (category "dom", "canvas", ...) and
// charges extra virtual time for it.
func (in *Interp) EmitHostOp(category, op string, costNS int64) {
	in.hostNS += costNS
	if in.hostOpListener != nil {
		in.hostOpListener(category, op)
	}
}

// Option configures an Interp.
type Option func(*Interp)

// WithMaxSteps bounds the number of evaluation steps (0 = default 500M).
func WithMaxSteps(n int64) Option {
	return func(in *Interp) {
		if n > 0 {
			in.maxSteps = n
		}
	}
}

// WithNSPerStep sets the virtual cost of one evaluation step.
func WithNSPerStep(ns int64) Option { return func(in *Interp) { in.nsPerStep = ns } }

// WithSeed seeds the deterministic Math.random generator.
func WithSeed(seed uint64) Option {
	return func(in *Interp) {
		if seed == 0 {
			seed = 0x9E3779B97F4A7C15
		}
		in.rng = seed
	}
}

// New returns a ready interpreter with the standard global environment.
func New(opts ...Option) *Interp {
	in := &Interp{
		nsPerStep:    100,
		maxSteps:     500_000_000,
		maxCallDepth: 2000,
		rng:          0x9E3779B97F4A7C15,
		consoleCap:   10_000,
	}
	in.Globals = NewScope(nil)
	in.Globals.declare("this", value.Undefined())
	for _, o := range opts {
		o(in)
	}
	in.installGlobals()
	return in
}

// SetHooks installs (or clears, with nil) the instrumentation hooks.
func (in *Interp) SetHooks(h Hooks) { in.hooks = h }

// SetCompile does nothing: every interpreter runs compiled. It is kept
// because the benchmark module (bench/exec.go) still calls it, and goes
// when that call does.
func (in *Interp) SetCompile(bool) {}

// Hooks returns the installed hooks.
func (in *Interp) HooksInstalled() Hooks { return in.hooks }

// Steps returns the number of evaluation steps taken so far.
func (in *Interp) Steps() int64 { return in.steps }

// Now returns the current virtual time in nanoseconds.
func (in *Interp) Now() int64 { return in.steps*in.nsPerStep + in.hostNS + in.idleNS }

// ScriptTime returns the virtual time spent executing script and host
// operations — Now() minus idle waiting. This is the ground-truth "CPU
// active" time against which the Gecko-style sampler is compared.
func (in *Interp) ScriptTime() int64 { return in.steps*in.nsPerStep + in.hostNS }

// AdvanceTime adds idle time (event-loop waiting) to the virtual clock.
func (in *Interp) AdvanceTime(ns int64) { in.idleNS += ns }

// Console returns captured console.log output lines.
func (in *Interp) Console() []string { return in.console }

// step advances the interpreter clock and enforces the step budget.
func (in *Interp) step() {
	in.steps++
	if in.steps > in.maxSteps {
		panic(&fatal{fmt.Errorf("interp: step limit exceeded (%d)", in.maxSteps)})
	}
}

// stepN charges the pre-counted cost of a folded constant region at
// once: one step per node folded away (the virtual clock is observable
// through performance.now and Date).
func (in *Interp) stepN(n int64) {
	in.steps += n
	if in.steps > in.maxSteps {
		panic(&fatal{fmt.Errorf("interp: step limit exceeded (%d)", in.maxSteps)})
	}
}

// Random returns the next deterministic Math.random() sample.
func (in *Interp) Random() float64 {
	// xorshift64*
	x := in.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	in.rng = x
	return float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

// throwValue raises a JavaScript exception.
func (in *Interp) throwValue(v value.Value) {
	panic(&jsThrow{val: v})
}

// throwError raises a JS Error object with the given name and message.
func (in *Interp) throwError(name, format string, args ...any) {
	o := in.newObjectOfClass(value.ClassError)
	o.Set("name", value.String(name))
	o.Set("message", value.String(fmt.Sprintf(format, args...)))
	in.throwValue(value.ObjectVal(o))
}

// newObjectOfClass allocates an object and fires the ObjectNew hook.
func (in *Interp) newObjectOfClass(class string) *value.Object {
	o := &value.Object{Class: class}
	if in.hooks != nil {
		in.hooks.ObjectNew(o)
	}
	return o
}

// NewObject allocates a plain object through the instrumented path.
func (in *Interp) NewObject() *value.Object { return in.newObjectOfClass(value.ClassObject) }

// NewArray allocates an array through the instrumented path.
func (in *Interp) NewArray(elems ...value.Value) *value.Object {
	o := value.NewArray(elems...)
	if in.hooks != nil {
		in.hooks.ObjectNew(o)
	}
	return o
}

// Run executes a parsed program in the global scope. It returns the error
// corresponding to an uncaught exception or fatal condition, if any.
func (in *Interp) Run(prog *ast.Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredToError(r)
		}
	}()
	u := unitFor(prog)
	in.hoistInto(prog.Body, in.Globals, u.funcs)
	fr := frame{in: in, fscope: in.Globals, scope: in.Globals, gcache: in.gcacheFor(u)}
	for _, cs := range u.top {
		if c := cs(&fr); c.kind == ctrlReturn {
			break
		}
	}
	return nil
}

func recoveredToError(r any) error {
	switch t := r.(type) {
	case *jsThrow:
		return &value.Thrown{Val: t.val}
	case *fatal:
		return t.err
	default:
		panic(r)
	}
}

// hoistInto performs var and function-declaration hoisting for a statement
// list into the given scope. Hoisted function values take their compiled
// bodies from funcs.
func (in *Interp) hoistInto(body []ast.Stmt, env *Scope, funcs map[*ast.FuncLit]*cfunc) {
	var hoistVars func(s ast.Stmt)
	hoistVars = func(s ast.Stmt) {
		switch x := s.(type) {
		case *ast.VarDecl:
			for _, n := range x.Names {
				in.declareVar(env, n, value.Undefined())
			}
		case *ast.BlockStmt:
			for _, s2 := range x.Body {
				hoistVars(s2)
			}
		case *ast.IfStmt:
			hoistVars(x.Cons)
			if x.Alt != nil {
				hoistVars(x.Alt)
			}
		case *ast.ForStmt:
			if x.Init != nil {
				hoistVars(x.Init)
			}
			hoistVars(x.Body)
		case *ast.WhileStmt:
			hoistVars(x.Body)
		case *ast.DoWhileStmt:
			hoistVars(x.Body)
		case *ast.ForInStmt:
			if x.Declare {
				in.declareVar(env, x.Name, value.Undefined())
			}
			hoistVars(x.Body)
		case *ast.TryStmt:
			hoistVars(x.Body)
			if x.Catch != nil {
				hoistVars(x.Catch)
			}
			if x.Finally != nil {
				hoistVars(x.Finally)
			}
		case *ast.SwitchStmt:
			for _, c := range x.Cases {
				for _, s2 := range c.Body {
					hoistVars(s2)
				}
			}
		}
	}
	for _, s := range body {
		hoistVars(s)
	}
	// Function declarations hoist with their values.
	for _, s := range body {
		if fd, ok := s.(*ast.FuncDecl); ok {
			fn := in.newFunction(fd.Fn, funcs[fd.Fn], env)
			in.declareVar(env, fd.Name, value.ObjectVal(fn))
		}
	}
}

func (in *Interp) declareVar(env *Scope, name string, v value.Value) *Binding {
	existing := env.vars[name]
	b := env.declare(name, v)
	if in.hooks != nil && existing != b {
		in.hooks.VarDeclare(name, b)
	}
	return b
}

// CallFunction implements value.Caller: it invokes fn with panics from JS
// exceptions propagating as Go panics (to be caught by enclosing try/catch
// or the Run/SafeCall boundary).
func (in *Interp) CallFunction(fn value.Value, this value.Value, args []value.Value) (value.Value, error) {
	return in.invoke(fn, this, args), nil
}

// SafeCall invokes fn, converting uncaught JS exceptions and fatal
// conditions to errors. Use it from host code (event loop, tests).
func (in *Interp) SafeCall(fn value.Value, this value.Value, args []value.Value) (v value.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredToError(r)
			v = value.Undefined()
		}
	}()
	return in.invoke(fn, this, args), nil
}

// invoke calls a function value (compiled or native).
func (in *Interp) invoke(fnv value.Value, this value.Value, args []value.Value) value.Value {
	if !fnv.IsCallable() {
		in.throwError("TypeError", "%s is not a function", fnv.TypeOf())
	}
	fn := fnv.Object().Fn
	name := fn.Name
	if name == "" {
		name = "<anonymous>"
	}
	in.callDepth++
	if in.callDepth > in.maxCallDepth {
		in.callDepth--
		in.throwError("RangeError", "maximum call stack size exceeded")
	}

	if fn.Native != nil {
		// Builtins are intrinsics: like JIT-inlined Math calls in a real
		// engine, they are not observable function boundaries, so they do
		// not fire Call hooks (the Gecko-style sampler cannot see them).
		defer func() { in.callDepth-- }()
		in.step()
		res, err := fn.Native(in, this, args)
		if err != nil {
			if t, ok := err.(*value.Thrown); ok {
				in.throwValue(t.Val)
			}
			panic(&fatal{err})
		}
		return res
	}

	if in.hooks != nil {
		in.hooks.CallEnter(name)
	}
	defer func() {
		in.callDepth--
		if in.hooks != nil {
			in.hooks.CallExit(name)
		}
	}()

	if cf, _ := fn.Compiled.(*cfunc); cf != nil {
		return in.callCompiled(cf, fn, this, args)
	}
	return treeInvoke(in, fn, this, args)
}

// treeInvoke activates a function value that has no compiled body. The
// engine never makes one: every function value it creates gets its body
// from the unit that holds its literal. The test build's reference tree
// walk makes only such values, and points this at its own activation.
var treeInvoke = func(*Interp, *value.Function, value.Value, []value.Value) value.Value {
	panic("interp: function value without a compiled body")
}

// GlobalIsPristine reports whether a standard global still holds the
// exact value installGlobals installed — same binding value (object
// identity; NaN compares equal to itself) and, for object globals, the
// same own properties as at install time. A property write on a builtin
// (Math.K = 3, console.log = f) makes it non-pristine: another
// interpreter's copy of the builtin would disagree. False for names
// that were never standard globals.
func (in *Interp) GlobalIsPristine(name string) bool {
	v0, ok := in.pristine[name]
	if !ok {
		return false
	}
	b := in.Globals.lookup(name)
	if b == nil {
		return false
	}
	if !value.SameValue(b.V, v0) {
		return false
	}
	if !v0.IsObject() {
		return true
	}
	// Same object: its own properties must match the install snapshot
	// (shallow — every builtin's members are natives or primitives).
	snap := in.pristineProps[name]
	o := v0.Object()
	if o.NumProps() != len(snap) || len(o.Elems) != 0 {
		return false
	}
	for k, pv := range snap {
		cur, ok := o.GetOwn(k)
		if !ok || !value.StrictEquals(cur, pv) {
			return false
		}
		// Members install bare (natives and primitives); an expando on
		// one (Math.floor.k = 1) mutates shared state another
		// interpreter's copy would not have.
		if cur.IsObject() && (cur.Object().NumProps() > 0 || len(cur.Object().Elems) > 0) {
			return false
		}
	}
	return true
}

// Global reads a global binding (undefined if missing).
func (in *Interp) Global(name string) value.Value {
	if b := in.Globals.lookup(name); b != nil {
		return b.V
	}
	return value.Undefined()
}

// SetGlobal creates or updates a global binding.
func (in *Interp) SetGlobal(name string, v value.Value) {
	if b := in.Globals.lookup(name); b != nil {
		b.V = v
		return
	}
	in.declareVar(in.Globals, name, v)
}
