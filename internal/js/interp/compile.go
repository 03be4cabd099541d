package interp

// compile.go lowers a parsed program into the pre-resolved form that
// Run and invoke execute (exec.go):
//
//   - variable references become slot indices (slots.go) instead of
//     per-lookup map probes; globals resolve once per (unit, Interp)
//     through a cached site table;
//   - side-effect-free constant subexpressions fold at compile time,
//     charging one step per folded node (the virtual clock is
//     observable through performance.now/Date);
//   - an expression that is statically a number (isNum) compiles to
//     closures that return its Go float64, building a Value only at the
//     root of the tree;
//   - property accesses precompute their member key and error text;
//   - statements flatten into closure arrays, so nothing switches on
//     node type at run time.
//
// The contract (DESIGN.md "Compilation contract"): what this executes
// is observably identical to a walk of the tree — values, console
// output, error messages, hook sequences (several hooks at once,
// autopar guards) and step counts — and the walk itself is the
// test-side oracle that says so (treewalk_test.go). Catch blocks keep
// fully dynamic scoping: every reference compiled inside one (including
// inside functions declared there) falls back to the scope-chain walk,
// because catch scopes are created at runtime and can shadow anything.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/token"
	"repro/internal/js/value"
)

// cexpr is a compiled expression; ccond an expression tested only for
// truth; cstmt a compiled statement; cnum an expression compiled to its
// Go float64 (numOperand). All are closed over immutable
// compile-time data only, so one compiled unit is safely shared by
// concurrent worker interpreters.
type (
	cexpr func(fr *frame) value.Value
	ccond func(fr *frame) bool
	cstmt func(fr *frame) ctrl
	cnum  func(fr *frame) float64
)

// cunit is one compiled program: the flat top-level statement array plus
// the compiled form of every function literal in the AST.
type cunit struct {
	prog *ast.Program
	top  []cstmt
	// funcs is where Run's hoister finds the bodies of the top-level
	// function declarations it materializes.
	funcs map[*ast.FuncLit]*cfunc
	// ngsite is the size of the per-interpreter global cache.
	ngsite int
}

// cfunc is one compiled function body: its slot layout plus the frame
// setup schedule, in callCompiled's declaration order.
type cfunc struct {
	unit       *cunit
	lit        *ast.FuncLit
	layout     *scopeLayout
	thisSlot   int
	paramSlots []int
	// argsSlot is the arguments object's slot, -1 when a call makes none
	// (needsArguments).
	argsSlot int
	varSlots []int
	hoisted  []hoistedFunc
	body     []cstmt
	// leaf: the body, at any depth, holds no function literal, and a call
	// makes no arguments object. Nothing can capture a leaf's scope or
	// alias its arguments, so its activation cannot outlive the call
	// (callPooled).
	leaf bool
}

// hoistedFunc is a body-level function declaration whose value hoists at
// call time.
type hoistedFunc struct {
	slot int
	lit  *ast.FuncLit
	cf   *cfunc
}

// unitFor returns prog's compiled unit, compiling on first use. The unit
// hangs off the Program itself (parsed ASTs are read-only), so a kernel
// shared across worker interpreters compiles once and a unit is
// collected with its tree.
func unitFor(prog *ast.Program) *cunit {
	return prog.Lowered(func() any { return compileProgram(prog) }).(*cunit)
}

type loadEntry struct {
	prog *ast.Program
	err  error
}

// loads caches parse results by source text (negative results too), so
// identical kernel sources are parsed exactly once per process.
var loads sync.Map // string -> *loadEntry

// Load parses source through the process-wide content-addressed cache;
// since the compiled unit lives on the AST, parse-and-compile is a
// once-per-process cost for repeated kernel sources (internal/parallel
// kernels, autopar's worker programs). The returned AST is shared and must be
// treated as read-only — callers that mutate ASTs (internal/instrument)
// must keep using parser.Parse directly.
func Load(src string) (*ast.Program, error) {
	if e, ok := loads.Load(src); ok {
		le := e.(*loadEntry)
		return le.prog, le.err
	}
	prog, err := parser.Parse(src)
	le := &loadEntry{prog: prog, err: err}
	if prior, loaded := loads.LoadOrStore(src, le); loaded {
		le = prior.(*loadEntry)
	}
	return le.prog, le.err
}

// compiler carries resolution state while lowering one unit.
type compiler struct {
	unit *cunit
	// stack holds the enclosing function layouts, innermost last; empty
	// at top level, where every free name is a global.
	stack []*scopeLayout
	// gsite dedupes global reference sites by name.
	gsite map[string]int
	// dyn counts enclosing catch blocks: inside them all references
	// (and whole functions compiled there) resolve dynamically.
	dyn int
}

func compileProgram(prog *ast.Program) *cunit {
	u := &cunit{prog: prog, funcs: make(map[*ast.FuncLit]*cfunc)}
	c := &compiler{unit: u, gsite: make(map[string]int)}
	u.top = c.compileStmts(prog.Body)
	u.ngsite = len(c.gsite)
	return u
}

// resolve classifies one name reference at the current lexical position.
func (c *compiler) resolve(name string) *ref {
	if c.dyn > 0 {
		return &ref{kind: refDynamic, name: name}
	}
	for d := len(c.stack) - 1; d >= 0; d-- {
		if i, ok := c.stack[d].index[name]; ok {
			depth := len(c.stack) - 1 - d
			if depth == 0 {
				return &ref{kind: refLocal, slot: i, name: name}
			}
			return &ref{kind: refOuter, depth: depth, slot: i, name: name}
		}
	}
	gi, ok := c.gsite[name]
	if !ok {
		gi = len(c.gsite)
		c.gsite[name] = gi
	}
	return &ref{kind: refGlobal, gsite: gi, name: name}
}

func (c *compiler) compileFunc(lit *ast.FuncLit) *cfunc {
	if cf, ok := c.unit.funcs[lit]; ok {
		return cf
	}
	layout, argsSlot := buildLayout(lit)
	cf := &cfunc{
		unit:     c.unit,
		lit:      lit,
		layout:   layout,
		thisSlot: layout.index["this"],
		argsSlot: argsSlot,
	}
	for _, p := range lit.Params {
		cf.paramSlots = append(cf.paramSlots, layout.index[p])
	}
	for _, n := range lit.VarNames {
		cf.varSlots = append(cf.varSlots, layout.index[n])
	}
	cf.leaf = argsSlot < 0
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			cf.leaf = false
		}
		return cf.leaf
	})
	c.unit.funcs[lit] = cf
	c.stack = append(c.stack, layout)
	for _, s := range lit.Body.Body {
		if fd, ok := s.(*ast.FuncDecl); ok {
			cf.hoisted = append(cf.hoisted, hoistedFunc{slot: layout.index[fd.Name], lit: fd.Fn})
		}
	}
	for i := range cf.hoisted {
		cf.hoisted[i].cf = c.compileFunc(cf.hoisted[i].lit)
	}
	cf.body = c.compileStmts(lit.Body.Body)
	c.stack = c.stack[:len(c.stack)-1]
	return cf
}

// foldExpr evaluates side-effect-free constant expressions at compile
// time, returning the value and the step count evaluating it node by
// node would charge (one per node). Only hook-silent node kinds fold
// (no branches, no variable or property traffic), so the event stream
// is unchanged.
func foldExpr(e ast.Expr) (value.Value, int64, bool) {
	switch x := e.(type) {
	case *ast.NumberLit:
		return value.Number(x.Value), 1, true
	case *ast.StringLit:
		return value.String(x.Value), 1, true
	case *ast.BoolLit:
		return value.Bool(x.Value), 1, true
	case *ast.NullLit:
		return value.Null(), 1, true
	case *ast.UndefinedLit:
		return value.Undefined(), 1, true
	case *ast.UnaryExpr:
		switch x.Op {
		case token.MINUS, token.PLUS, token.NOT, token.BITNOT:
			v, n, ok := foldExpr(x.X)
			if !ok {
				return value.Value{}, 0, false
			}
			switch x.Op {
			case token.MINUS:
				return value.Number(-v.ToNumber()), n + 1, true
			case token.PLUS:
				return value.Number(v.ToNumber()), n + 1, true
			case token.NOT:
				return value.Bool(!v.ToBool()), n + 1, true
			default:
				return value.Number(float64(^v.ToInt32())), n + 1, true
			}
		case token.TYPEOF:
			// typeof ident reads a binding (VarRead); only fold other
			// operand shapes.
			if _, isIdent := x.X.(*ast.Ident); isIdent {
				return value.Value{}, 0, false
			}
			v, n, ok := foldExpr(x.X)
			if !ok {
				return value.Value{}, 0, false
			}
			return value.String(v.TypeOf()), n + 1, true
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR, token.IN, token.INSTANCEOF:
			// && and || fire BranchTaken; in/instanceof consult objects
			// and can throw.
			return value.Value{}, 0, false
		}
		l, nl, ok := foldExpr(x.L)
		if !ok {
			return value.Value{}, 0, false
		}
		r, nr, ok := foldExpr(x.R)
		if !ok {
			return value.Value{}, 0, false
		}
		v, ok := applyBinaryPure(x.Op, l, r)
		if !ok {
			return value.Value{}, 0, false
		}
		return v, nl + nr + 1, true
	case *ast.SeqExpr:
		total := int64(1)
		var last value.Value
		for _, sub := range x.Exprs {
			v, n, ok := foldExpr(sub)
			if !ok {
				return value.Value{}, 0, false
			}
			last = v
			total += n
		}
		return last, total, true
	}
	return value.Value{}, 0, false
}

func (c *compiler) compileExprs(list []ast.Expr) []cexpr {
	out := make([]cexpr, len(list))
	for i, e := range list {
		out[i] = c.compileExpr(e)
	}
	return out
}

// compileExpr lowers one expression. Every produced closure begins with
// step(): one step per expression node evaluated.
func (c *compiler) compileExpr(e ast.Expr) cexpr {
	if v, n, ok := foldExpr(e); ok {
		return func(fr *frame) value.Value {
			fr.in.stepN(n)
			return v
		}
	}
	if isNum(e) {
		// The root of a numeric tree: the one Value it builds.
		cn := c.numOperand(e)
		return func(fr *frame) value.Value { return value.Number(cn(fr)) }
	}
	switch x := e.(type) {
	case *ast.Ident:
		return c.compileRead(x.Name)
	case *ast.ThisExpr:
		return c.compileRead("this")
	case *ast.ArrayLit:
		elems := c.compileExprs(x.Elems)
		return func(fr *frame) value.Value {
			fr.in.step()
			vals := make([]value.Value, len(elems))
			for i, ce := range elems {
				vals[i] = ce(fr)
			}
			return value.ObjectVal(fr.in.NewArray(vals...))
		}
	case *ast.ObjectLit:
		vals := c.compileExprs(x.Values)
		keys := x.Keys
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			o := in.NewObject()
			for i, k := range keys {
				v := vals[i](fr)
				o.Set(k, v)
				if len(in.hooks.propWrite) != 0 {
					in.hooks.firePropWrite(o, k, nil)
				}
			}
			return value.ObjectVal(o)
		}
	case *ast.FuncLit:
		cf := c.compileFunc(x)
		return func(fr *frame) value.Value {
			fr.in.step()
			return value.ObjectVal(fr.in.newFunction(x, cf, fr.scope))
		}
	case *ast.UnaryExpr:
		return c.compileUnary(x)
	case *ast.UpdateExpr:
		return c.compileUpdate(x)
	case *ast.BinaryExpr:
		return c.compileBinary(x)
	case *ast.CondExpr:
		cond := c.compileCond(x.Cond)
		cons := c.compileExpr(x.Cons)
		alt := c.compileExpr(x.Alt)
		id := x.BranchID
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			cv := cond(fr)
			if len(in.hooks.branchTaken) != 0 {
				in.hooks.fireBranchTaken(id, cv)
			}
			if cv {
				return cons(fr)
			}
			return alt(fr)
		}
	case *ast.AssignExpr:
		return c.compileAssign(x)
	case *ast.CallExpr:
		return c.compileCall(x)
	case *ast.NewExpr:
		fnC := c.compileExpr(x.Fn)
		argsC := c.compileExprs(x.Args)
		desc := describeExpr(x.Fn)
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			fn := fnC(fr)
			if !fn.IsCallable() {
				in.throwError("TypeError", "%s is not a constructor", desc)
			}
			base := in.pushArgs(fr, argsC)
			v := in.construct(fn, in.argWindow(base))
			in.dropArgs(base)
			return v
		}
	case *ast.MemberExpr, *ast.IndexExpr:
		base, key, _ := c.compileMember(x)
		return func(fr *frame) value.Value {
			fr.in.step()
			obj, via := base(fr)
			return fr.in.getMember(obj, key.eval(fr), via)
		}
	case *ast.SeqExpr:
		exprs := c.compileExprs(x.Exprs)
		return func(fr *frame) value.Value {
			fr.in.step()
			var last value.Value
			for _, ce := range exprs {
				last = ce(fr)
			}
			return last
		}
	default:
		return func(fr *frame) value.Value {
			fr.in.step()
			panic(&fatal{errUnknownNode(e)})
		}
	}
}

// compileRead lowers a variable read. A local indexes its slot directly:
// every slot of an activation is declared before its body runs.
func (c *compiler) compileRead(name string) cexpr {
	r := c.resolve(name)
	if r.kind != refLocal {
		return func(fr *frame) value.Value {
			fr.in.step()
			return r.read(fr)
		}
	}
	slot := r.slot
	return func(fr *frame) value.Value {
		in := fr.in
		in.step()
		b := &fr.fscope.slots[slot]
		if len(in.hooks.varRead) != 0 {
			in.hooks.fireVarRead(name, b)
		}
		return b.V
	}
}

// ckey is a compiled index key: pre-folded to its canonical property
// key when the index expression is constant, evaluated otherwise.
type ckey struct {
	pre   string
	steps int64
	ce    cexpr
}

func (c *compiler) compileKey(e ast.Expr) ckey {
	if v, n, ok := foldExpr(e); ok {
		return ckey{pre: propertyKey(v), steps: n}
	}
	return ckey{ce: c.compileExpr(e)}
}

func (k *ckey) eval(fr *frame) string {
	if k.ce == nil {
		fr.in.stepN(k.steps)
		return k.pre
	}
	return propertyKey(k.ce(fr))
}

// compileMember lowers the base and key of a property access: o.name
// keys by the constant name, o[e] by its index; false for any other
// expression.
func (c *compiler) compileMember(e ast.Expr) (cbase, ckey, bool) {
	switch t := e.(type) {
	case *ast.MemberExpr:
		return c.compileBase(t.X), ckey{pre: t.Name}, true
	case *ast.IndexExpr:
		return c.compileBase(t.X), c.compileKey(t.Index), true
	}
	return nil, ckey{}, false
}

// cbase yields the base value of a property access plus, when the base
// is a simple reference (identifier or this), its binding, so the access
// can be characterized against the reference's stamp.
type cbase func(fr *frame) (value.Value, *Binding)

func (c *compiler) compileBase(e ast.Expr) cbase {
	switch t := e.(type) {
	case *ast.Ident:
		r := c.resolve(t.Name)
		return func(fr *frame) (value.Value, *Binding) {
			in := fr.in
			b := r.binding(fr)
			if b == nil {
				in.throwError("ReferenceError", "%s is not defined", r.name)
			}
			if len(in.hooks.varRead) != 0 {
				in.hooks.fireVarRead(r.name, b)
			}
			in.step()
			return b.V, b
		}
	case *ast.ThisExpr:
		r := c.resolve("this")
		return func(fr *frame) (value.Value, *Binding) {
			b := r.binding(fr)
			fr.in.step()
			if b == nil {
				return value.Undefined(), nil
			}
			return b.V, b
		}
	}
	ce := c.compileExpr(e)
	return func(fr *frame) (value.Value, *Binding) {
		return ce(fr), nil
	}
}

func (c *compiler) compileUnary(x *ast.UnaryExpr) cexpr {
	switch x.Op {
	case token.TYPEOF:
		if id, ok := x.X.(*ast.Ident); ok {
			r := c.resolve(id.Name)
			return func(fr *frame) value.Value {
				in := fr.in
				in.step()
				b := r.binding(fr)
				if b == nil {
					return value.String("undefined")
				}
				if len(in.hooks.varRead) != 0 {
					in.hooks.fireVarRead(r.name, b)
				}
				return value.String(b.V.TypeOf())
			}
		}
		ce := c.compileExpr(x.X)
		return func(fr *frame) value.Value {
			fr.in.step()
			return value.String(ce(fr).TypeOf())
		}
	case token.DELETE:
		base, key, ok := c.compileMember(x.X)
		if !ok {
			// delete on a non-member target does not evaluate it.
			return func(fr *frame) value.Value {
				fr.in.step()
				return value.Bool(true)
			}
		}
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			obj, via := base(fr)
			k := key.eval(fr)
			if obj.IsObject() {
				ok := obj.Object().Delete(k)
				if len(in.hooks.propWrite) != 0 {
					in.hooks.firePropWrite(obj.Object(), k, via)
				}
				return value.Bool(ok)
			}
			return value.Bool(true)
		}
	}
	ce := c.compileExpr(x.X)
	op := x.Op
	if op == token.NOT { // - + and ~ are numeric trees (compileExpr)
		return func(fr *frame) value.Value {
			fr.in.step()
			return value.Bool(!ce(fr).ToBool())
		}
	}
	// The operand evaluates before the fatal.
	return func(fr *frame) value.Value {
		fr.in.step()
		ce(fr)
		panic(&fatal{fmt.Errorf("interp: unknown unary op %s", op)})
	}
}

func (c *compiler) compileUpdate(x *ast.UpdateExpr) cexpr {
	delta := 1.0
	if x.Op == token.DEC {
		delta = -1
	}
	prefix := x.Prefix
	switch t := x.X.(type) {
	case *ast.Ident:
		r := c.resolve(t.Name)
		return func(fr *frame) value.Value {
			fr.in.step()
			old := r.read(fr).ToNumber()
			nv := value.Number(old + delta)
			r.write(fr, nv)
			if prefix {
				return nv
			}
			return value.Number(old)
		}
	case *ast.MemberExpr, *ast.IndexExpr:
		base, key, _ := c.compileMember(t)
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			obj, via := base(fr)
			k := key.eval(fr)
			old := in.getMember(obj, k, via).ToNumber()
			nv := value.Number(old + delta)
			in.setMember(obj, k, nv, via)
			if prefix {
				return nv
			}
			return value.Number(old)
		}
	}
	return func(fr *frame) value.Value {
		fr.in.step()
		fr.in.throwError("SyntaxError", "invalid update target")
		return value.Undefined()
	}
}

func (c *compiler) compileBinary(x *ast.BinaryExpr) cexpr {
	switch x.Op {
	case token.LAND:
		le, re := c.compileExpr(x.L), c.compileExpr(x.R)
		id := x.BranchID
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			l := le(fr)
			taken := l.ToBool()
			if len(in.hooks.branchTaken) != 0 {
				in.hooks.fireBranchTaken(id, taken)
			}
			if !taken {
				return l
			}
			return re(fr)
		}
	case token.LOR:
		le, re := c.compileExpr(x.L), c.compileExpr(x.R)
		id := x.BranchID
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			l := le(fr)
			taken := l.ToBool()
			if len(in.hooks.branchTaken) != 0 {
				in.hooks.fireBranchTaken(id, !taken)
			}
			if taken {
				return l
			}
			return re(fr)
		}
	}
	if cmp := c.compileCompare(x); cmp != nil {
		return func(fr *frame) value.Value { return value.Bool(cmp(fr)) }
	}
	// What is left is a + that is not a numeric tree, in and instanceof;
	// the arithmetic operators are numeric trees (compileExpr). A + with
	// a numeric left operand keeps that side a float64.
	op := x.Op
	if op == token.PLUS && isNum(x.L) {
		lc, re := c.numOperand(x.L), c.compileExpr(x.R)
		return func(fr *frame) value.Value {
			fr.in.step()
			l, r := lc(fr), re(fr)
			if r.IsNumber() {
				return value.Number(l + r.Num())
			}
			return fr.in.applyBinary(op, value.Number(l), r)
		}
	}
	le, re := c.compileExpr(x.L), c.compileExpr(x.R)
	return func(fr *frame) value.Value {
		fr.in.step()
		l, r := le(fr), re(fr)
		return fr.in.binaryOp(op, l, r)
	}
}

// isNum reports whether e always evaluates to a number, so that it can
// lower to a numeric tree (numOperand) that yields a Go float64 and
// builds no Value: a unary - + or ~; a binary - * / %, & | ^ << >> or
// >>>, whatever its operands, because applyBinaryPure returns a number
// for all of them; a + whose operands are both numeric; any other
// non-binary expression that folds to a number constant.
func isNum(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.UnaryExpr:
		switch x.Op {
		case token.MINUS, token.PLUS, token.BITNOT:
			return true
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.MINUS, token.STAR, token.SLASH, token.PERCENT,
			token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.USHR:
			return true
		case token.PLUS:
			// Right first: a long concatenation stops at its last
			// operand instead of walking down its left spine.
			return isNum(x.R) && isNum(x.L)
		}
		return false
	}
	v, _, ok := foldExpr(e)
	return ok && v.IsNumber()
}

// numOperand compiles e as an operand of a numeric operator: the float64
// it yields is ToNumber of e's value. A numeric e lowers to a numeric
// tree. Any other e is evaluated and coerced at once — exact, because
// the operator runs right after its right operand, and on the left only
// numeric children come here (compileArith). Steps and hooks fire as
// they would for e's Value form.
func (c *compiler) numOperand(e ast.Expr) cnum {
	if v, n, ok := foldExpr(e); ok {
		f := v.ToNumber()
		return func(fr *frame) float64 {
			fr.in.stepN(n)
			return f
		}
	}
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if !isNum(x) {
			break
		}
		operand := c.numOperand(x.X)
		switch x.Op {
		case token.MINUS:
			return func(fr *frame) float64 {
				fr.in.step()
				return -operand(fr)
			}
		case token.PLUS:
			return func(fr *frame) float64 {
				fr.in.step()
				return operand(fr)
			}
		default: // token.BITNOT
			return func(fr *frame) float64 {
				fr.in.step()
				return float64(^value.Int32(operand(fr)))
			}
		}
	case *ast.BinaryExpr:
		if isNum(x) {
			return c.compileArith(x)
		}
	case *ast.Ident:
		r := c.resolve(x.Name)
		if r.kind != refLocal {
			break
		}
		slot, name := r.slot, r.name
		return func(fr *frame) float64 {
			in := fr.in
			in.step()
			b := &fr.fscope.slots[slot]
			if len(in.hooks.varRead) != 0 {
				in.hooks.fireVarRead(name, b)
			}
			return toNum(b.V)
		}
	}
	ce := c.compileExpr(e)
	return func(fr *frame) float64 { return toNum(ce(fr)) }
}

// toNum is ToNumber with the number case inline.
func toNum(v value.Value) float64 {
	if v.IsNumber() {
		return v.Num()
	}
	return v.ToNumber()
}

// compileArith lowers a numeric binary operator (isNum). The right
// operand is a numOperand. The left is a numeric tree when it is one;
// otherwise its Value is kept and, unless it is already a number,
// coerced only after the right operand has run — which may change it:
// in a * (a[0] = 5), a is read as an array and multiplied as [5]. A local
// left operand is read inline, its step charged with the operator's.
func (c *compiler) compileArith(x *ast.BinaryExpr) cnum {
	op := x.Op
	if isNum(x.L) {
		lc, rc := c.numOperand(x.L), c.numOperand(x.R)
		return func(fr *frame) float64 {
			fr.in.step()
			l := lc(fr)
			return arith(op, l, rc(fr))
		}
	}
	if id, ok := x.L.(*ast.Ident); ok {
		if r := c.resolve(id.Name); r.kind == refLocal {
			slot, name := r.slot, r.name
			rc := c.numOperand(x.R)
			return func(fr *frame) float64 {
				in := fr.in
				in.stepN(2)
				b := &fr.fscope.slots[slot]
				if len(in.hooks.varRead) != 0 {
					in.hooks.fireVarRead(name, b)
				}
				l := b.V
				if l.IsNumber() {
					return arith(op, l.Num(), rc(fr))
				}
				r := rc(fr)
				return arith(op, l.ToNumber(), r)
			}
		}
	}
	le, rc := c.compileExpr(x.L), c.numOperand(x.R)
	return func(fr *frame) float64 {
		fr.in.step()
		l := le(fr)
		if l.IsNumber() {
			return arith(op, l.Num(), rc(fr))
		}
		r := rc(fr)
		return arith(op, l.ToNumber(), r)
	}
}

// arith applies a binary operator isNum counts as numeric to two
// numbers, as applyBinaryPure does to two number Values.
func arith(op token.Type, l, r float64) float64 {
	switch op {
	case token.PLUS:
		return l + r
	case token.MINUS:
		return l - r
	case token.STAR:
		return l * r
	case token.SLASH:
		return l / r
	case token.PERCENT:
		return mod(l, r)
	case token.AND:
		return float64(value.Int32(l) & value.Int32(r))
	case token.OR:
		return float64(value.Int32(l) | value.Int32(r))
	case token.XOR:
		return float64(value.Int32(l) ^ value.Int32(r))
	case token.SHL:
		return float64(value.Int32(l) << (uint32(value.Int32(r)) & 31))
	case token.SHR:
		return float64(value.Int32(l) >> (uint32(value.Int32(r)) & 31))
	case token.USHR:
		return float64(uint32(value.Int32(l)) >> (uint32(value.Int32(r)) & 31))
	}
	panic(&fatal{fmt.Errorf("interp: %s is not a numeric operator", op)})
}

// mod is math.Mod(l, r), bit for bit, taking integer division when
// both operands are integers that int64 holds: the remainder of two
// such integers is an integer smaller than r, which float64 holds
// exactly, and it takes l's sign, -0 included.
func mod(l, r float64) float64 {
	const two63 = 1 << 63
	if l >= -two63 && l < two63 && r >= -two63 && r < two63 {
		il, ir := int64(l), int64(r)
		if float64(il) == l && float64(ir) == r && ir != 0 {
			m := il % ir
			if m == 0 && math.Signbit(l) {
				return math.Copysign(0, -1)
			}
			return float64(m)
		}
	}
	return math.Mod(l, r)
}

// binaryOp is applyBinary with the two-numbers fast path of the
// arithmetic operators: a + of two Values, and compound assignment.
func (in *Interp) binaryOp(op token.Type, l, r value.Value) value.Value {
	if l.IsNumber() && r.IsNumber() {
		switch op {
		case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
			return value.Number(arith(op, l.Num(), r.Num()))
		}
	}
	return in.applyBinary(op, l, r)
}

// compileCond lowers an expression whose value is only tested for truth
// (if, loop conditions, ?:). A comparison yields its Go bool without
// building a Value; anything else is evaluated and then ToBool'd.
func (c *compiler) compileCond(e ast.Expr) ccond {
	if x, ok := e.(*ast.BinaryExpr); ok {
		if _, _, folds := foldExpr(e); !folds {
			if cmp := c.compileCompare(x); cmp != nil {
				return cmp
			}
		}
	}
	ce := c.compileExpr(e)
	return func(fr *frame) bool { return ce(fr).ToBool() }
}

// compileCompare lowers a comparison, one closure per operator, and
// returns nil for any other operator. Two numbers compare directly —
// Go's float comparisons give NaN and -0 their JavaScript answers, and
// == is === on two numbers — any other pair goes to applyBinary.
func (c *compiler) compileCompare(x *ast.BinaryExpr) ccond {
	switch x.Op {
	case token.LT, token.GT, token.LE, token.GE, token.EQ, token.NEQ, token.STRICTEQ, token.STRICTNE:
	default:
		return nil
	}
	le, re := c.compileExpr(x.L), c.compileExpr(x.R)
	op := x.Op
	switch op {
	case token.LT:
		return func(fr *frame) bool {
			fr.in.step()
			l, r := le(fr), re(fr)
			if l.IsNumber() && r.IsNumber() {
				return l.Num() < r.Num()
			}
			return fr.in.applyBinary(op, l, r).ToBool()
		}
	case token.GT:
		return func(fr *frame) bool {
			fr.in.step()
			l, r := le(fr), re(fr)
			if l.IsNumber() && r.IsNumber() {
				return l.Num() > r.Num()
			}
			return fr.in.applyBinary(op, l, r).ToBool()
		}
	case token.LE:
		return func(fr *frame) bool {
			fr.in.step()
			l, r := le(fr), re(fr)
			if l.IsNumber() && r.IsNumber() {
				return l.Num() <= r.Num()
			}
			return fr.in.applyBinary(op, l, r).ToBool()
		}
	case token.GE:
		return func(fr *frame) bool {
			fr.in.step()
			l, r := le(fr), re(fr)
			if l.IsNumber() && r.IsNumber() {
				return l.Num() >= r.Num()
			}
			return fr.in.applyBinary(op, l, r).ToBool()
		}
	case token.EQ, token.STRICTEQ:
		return func(fr *frame) bool {
			fr.in.step()
			l, r := le(fr), re(fr)
			if l.IsNumber() && r.IsNumber() {
				return l.Num() == r.Num()
			}
			return fr.in.applyBinary(op, l, r).ToBool()
		}
	default: // token.NEQ, token.STRICTNE
		return func(fr *frame) bool {
			fr.in.step()
			l, r := le(fr), re(fr)
			if l.IsNumber() && r.IsNumber() {
				return l.Num() != r.Num()
			}
			return fr.in.applyBinary(op, l, r).ToBool()
		}
	}
}

func (c *compiler) compileAssign(x *ast.AssignExpr) cexpr {
	simple := x.Op == token.ASSIGN
	var cop token.Type
	if !simple {
		cop = x.Op.CompoundOp()
	}
	re := c.compileExpr(x.R)
	switch t := x.L.(type) {
	case *ast.Ident:
		r := c.resolve(t.Name)
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			var v value.Value
			if simple {
				v = re(fr)
			} else {
				l := r.read(fr)
				rv := re(fr)
				v = in.binaryOp(cop, l, rv)
			}
			r.write(fr, v)
			return v
		}
	case *ast.MemberExpr, *ast.IndexExpr:
		base, key, _ := c.compileMember(t)
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			obj, via := base(fr)
			k := key.eval(fr)
			var v value.Value
			if simple {
				v = re(fr)
			} else {
				l := in.getMember(obj, k, via)
				rv := re(fr)
				v = in.binaryOp(cop, l, rv)
			}
			in.setMember(obj, k, v, via)
			return v
		}
	}
	return func(fr *frame) value.Value {
		fr.in.step()
		fr.in.throwError("SyntaxError", "invalid assignment target")
		return value.Undefined()
	}
}

func (c *compiler) compileCall(x *ast.CallExpr) cexpr {
	argsC := c.compileExprs(x.Args)
	var obj ast.Expr
	notFn := "%s.%s is not a function"
	switch t := x.Fn.(type) {
	case *ast.MemberExpr:
		obj = t.X
	case *ast.IndexExpr:
		obj, notFn = t.X, "%s[%q] is not a function"
	}
	if obj != nil {
		base, key, _ := c.compileMember(x.Fn)
		desc := describeExpr(obj)
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			this, via := base(fr)
			k := key.eval(fr)
			fn := in.getMember(this, k, via)
			if !fn.IsCallable() {
				in.throwError("TypeError", notFn, desc, k)
			}
			if f := fn.Object().Fn; f.Native != nil {
				return callNativeWith(fr, f, this, argsC)
			}
			if cf := in.leafCallee(fn, len(argsC)); cf != nil {
				return callLeafWith(fr, cf, fn, this, argsC)
			}
			return in.invokeWindow(fn, this, in.pushArgs(fr, argsC))
		}
	}
	fnC := c.compileExpr(x.Fn)
	return func(fr *frame) value.Value {
		in := fr.in
		in.step()
		fn := fnC(fr)
		if fn.IsCallable() {
			if f := fn.Object().Fn; f.Native != nil {
				return callNativeWith(fr, f, value.Undefined(), argsC)
			}
		}
		if cf := in.leafCallee(fn, len(argsC)); cf != nil {
			return callLeafWith(fr, cf, fn, value.Undefined(), argsC)
		}
		return in.invokeWindow(fn, value.Undefined(), in.pushArgs(fr, argsC))
	}
}

// callNativeWith is invoke for a native callee: it evaluates the
// arguments onto the interpreter's argument stack and hands the native
// their window (invokeWindow's contract).
func callNativeWith(fr *frame, f *value.Function, this value.Value, argsC []cexpr) value.Value {
	in := fr.in
	base := in.pushArgs(fr, argsC)
	v := in.callNative(f, this, in.argWindow(base))
	in.dropArgs(base)
	return v
}

// invokeWindow is invoke with the argument window from base up, which
// pushArgs filled: the callee, native or compiled, hooked or not, is
// handed the window, valid only until it returns, and the window is
// dropped after. A native that keeps or forwards its arguments copies
// them; a compiled callee copies them into its parameter slots and its
// arguments object before its body runs (callCompiled).
func (in *Interp) invokeWindow(fn, this value.Value, base int) value.Value {
	v := in.invoke(fn, this, in.argWindow(base))
	in.dropArgs(base)
	return v
}

// pushArgs evaluates argsC onto the argument stack and returns the height
// their window starts at. An argument's own native calls leave the
// stack as they found it, so each value lands on top.
func (in *Interp) pushArgs(fr *frame, argsC []cexpr) int {
	base := len(in.argStack)
	for _, a := range argsC {
		v := a(fr)
		in.argStack = append(in.argStack, v)
	}
	return base
}

// argWindow is the argument window from base to the top of the stack,
// capped there so that an append by the callee copies.
func (in *Interp) argWindow(base int) []value.Value {
	top := len(in.argStack)
	return in.argStack[base:top:top]
}

// maxStackArgs is the most arguments a call passes on the Go stack.
const maxStackArgs = 8

// callLeafWith is invoke for a leaf callee found while no installed hook
// has an event method that is handed a binding (leafCallee): it
// evaluates the arguments into an array on this Go stack, which
// callPooled keeps nothing of. If evaluating them installed such a hook,
// the callee may not pool: the arguments move onto the argument stack
// and the call takes invokeWindow.
func callLeafWith(fr *frame, cf *cfunc, fn, this value.Value, argsC []cexpr) value.Value {
	in := fr.in
	var buf [maxStackArgs]value.Value
	args := buf[:len(argsC)]
	for i, a := range argsC {
		args[i] = a(fr)
	}
	if in.binding {
		base := len(in.argStack)
		in.argStack = append(in.argStack, args...)
		return in.invokeWindow(fn, this, base)
	}
	f := fn.Object().Fn
	in.enterJSCall(f)
	defer in.exitCall(f)
	return in.callPooled(cf, f, this, args)
}

func (c *compiler) compileStmts(list []ast.Stmt) []cstmt {
	out := make([]cstmt, len(list))
	for i, s := range list {
		out[i] = c.compileStmt(s)
	}
	return out
}

// compileStmt lowers one statement. Every produced closure begins with
// step(): one step per statement executed.
func (c *compiler) compileStmt(s ast.Stmt) cstmt {
	switch x := s.(type) {
	case *ast.EmptyStmt:
		return func(fr *frame) ctrl {
			fr.in.step()
			return ctrlOK
		}
	case *ast.VarDecl:
		type initPair struct {
			r  *ref
			ce cexpr
		}
		var pairs []initPair
		for i, name := range x.Names {
			if x.Inits[i] == nil {
				continue
			}
			pairs = append(pairs, initPair{r: c.resolve(name), ce: c.compileExpr(x.Inits[i])})
		}
		return func(fr *frame) ctrl {
			fr.in.step()
			for _, p := range pairs {
				v := p.ce(fr)
				p.r.write(fr, v)
			}
			return ctrlOK
		}
	case *ast.FuncDecl:
		cf := c.compileFunc(x.Fn)
		r := c.resolve(x.Name)
		lit := x.Fn
		return func(fr *frame) ctrl {
			fr.in.step()
			fn := fr.in.newFunction(lit, cf, fr.scope)
			r.write(fr, value.ObjectVal(fn))
			return ctrlOK
		}
	case *ast.ExprStmt:
		ce := c.compileExpr(x.X)
		return func(fr *frame) ctrl {
			fr.in.step()
			ce(fr)
			return ctrlOK
		}
	case *ast.BlockStmt:
		body := c.compileStmts(x.Body)
		return func(fr *frame) ctrl {
			fr.in.step()
			return runSeq(fr, body)
		}
	case *ast.IfStmt:
		cond := c.compileCond(x.Cond)
		cons := c.compileStmt(x.Cons)
		var alt cstmt
		if x.Alt != nil {
			alt = c.compileStmt(x.Alt)
		}
		id := x.BranchID
		return func(fr *frame) ctrl {
			in := fr.in
			in.step()
			cv := cond(fr)
			if len(in.hooks.branchTaken) != 0 {
				in.hooks.fireBranchTaken(id, cv)
			}
			if cv {
				return cons(fr)
			}
			if alt != nil {
				return alt(fr)
			}
			return ctrlOK
		}
	case *ast.ForStmt:
		return c.compileFor(x)
	case *ast.WhileStmt:
		return c.compileWhile(x)
	case *ast.DoWhileStmt:
		return c.compileDoWhile(x)
	case *ast.ForInStmt:
		return c.compileForIn(x)
	case *ast.ReturnStmt:
		var ce cexpr
		if x.X != nil {
			ce = c.compileExpr(x.X)
		}
		return func(fr *frame) ctrl {
			fr.in.step()
			v := value.Undefined()
			if ce != nil {
				v = ce(fr)
			}
			return ctrl{kind: ctrlReturn, val: v}
		}
	case *ast.BreakStmt:
		return func(fr *frame) ctrl {
			fr.in.step()
			return ctrl{kind: ctrlBreak}
		}
	case *ast.ContinueStmt:
		return func(fr *frame) ctrl {
			fr.in.step()
			return ctrl{kind: ctrlContinue}
		}
	case *ast.ThrowStmt:
		ce := c.compileExpr(x.X)
		return func(fr *frame) ctrl {
			fr.in.step()
			fr.in.throwValue(ce(fr))
			return ctrlOK // unreachable
		}
	case *ast.TryStmt:
		return c.compileTry(x)
	case *ast.SwitchStmt:
		return c.compileSwitch(x)
	default:
		return func(fr *frame) ctrl {
			fr.in.step()
			panic(&fatal{errUnknownNode(s)})
		}
	}
}

func (c *compiler) compileFor(x *ast.ForStmt) cstmt {
	var init cstmt
	if x.Init != nil {
		init = c.compileStmt(x.Init)
	}
	var cond ccond
	var post cexpr
	if x.Cond != nil {
		cond = c.compileCond(x.Cond)
	}
	if x.Post != nil {
		post = c.compileExpr(x.Post)
	}
	body := c.compileStmt(x.Body)
	id := x.Loop
	return func(fr *frame) ctrl {
		in := fr.in
		in.step()
		if exits := in.enterLoop(id); exits != nil {
			defer exitLoop(exits, id)
		}
		if init != nil {
			if len(in.hooks.loopHeader) != 0 {
				in.hooks.fireLoopHeader(id, true)
			}
			init(fr)
			if len(in.hooks.loopHeader) != 0 {
				in.hooks.fireLoopHeader(id, false)
			}
		}
		for {
			if cond != nil && !cond(fr) {
				return ctrlOK
			}
			if len(in.hooks.loopIter) != 0 {
				in.hooks.fireLoopIter(id)
			}
			cc := body(fr)
			switch cc.kind {
			case ctrlBreak:
				return ctrlOK
			case ctrlReturn:
				return cc
			}
			if post != nil {
				if len(in.hooks.loopHeader) != 0 {
					in.hooks.fireLoopHeader(id, true)
				}
				post(fr)
				if len(in.hooks.loopHeader) != 0 {
					in.hooks.fireLoopHeader(id, false)
				}
			}
		}
	}
}

func (c *compiler) compileWhile(x *ast.WhileStmt) cstmt {
	cond := c.compileCond(x.Cond)
	body := c.compileStmt(x.Body)
	id := x.Loop
	return func(fr *frame) ctrl {
		in := fr.in
		in.step()
		if exits := in.enterLoop(id); exits != nil {
			defer exitLoop(exits, id)
		}
		for {
			if !cond(fr) {
				return ctrlOK
			}
			if len(in.hooks.loopIter) != 0 {
				in.hooks.fireLoopIter(id)
			}
			cc := body(fr)
			switch cc.kind {
			case ctrlBreak:
				return ctrlOK
			case ctrlReturn:
				return cc
			}
		}
	}
}

func (c *compiler) compileDoWhile(x *ast.DoWhileStmt) cstmt {
	cond := c.compileCond(x.Cond)
	body := c.compileStmt(x.Body)
	id := x.Loop
	return func(fr *frame) ctrl {
		in := fr.in
		in.step()
		if exits := in.enterLoop(id); exits != nil {
			defer exitLoop(exits, id)
		}
		for {
			if len(in.hooks.loopIter) != 0 {
				in.hooks.fireLoopIter(id)
			}
			cc := body(fr)
			switch cc.kind {
			case ctrlBreak:
				return ctrlOK
			case ctrlReturn:
				return cc
			}
			if !cond(fr) {
				return ctrlOK
			}
		}
	}
}

func (c *compiler) compileForIn(x *ast.ForInStmt) cstmt {
	objC := c.compileExpr(x.Obj)
	r := c.resolve(x.Name)
	body := c.compileStmt(x.Body)
	id := x.Loop
	return func(fr *frame) ctrl {
		in := fr.in
		in.step()
		objV := objC(fr)
		if exits := in.enterLoop(id); exits != nil {
			defer exitLoop(exits, id)
		}
		if !objV.IsObject() {
			return ctrlOK // for-in over primitives iterates nothing here
		}
		keys := objV.Object().OwnKeys()
		for _, k := range keys {
			if len(in.hooks.loopIter) != 0 {
				in.hooks.fireLoopIter(id)
			}
			if len(in.hooks.loopHeader) != 0 {
				in.hooks.fireLoopHeader(id, true)
			}
			r.write(fr, value.String(k))
			if len(in.hooks.loopHeader) != 0 {
				in.hooks.fireLoopHeader(id, false)
			}
			cc := body(fr)
			switch cc.kind {
			case ctrlBreak:
				return ctrlOK
			case ctrlReturn:
				return cc
			}
		}
		return ctrlOK
	}
}

func (c *compiler) compileTry(x *ast.TryStmt) cstmt {
	body := c.compileStmts(x.Body.Body)
	var catchBody []cstmt
	if x.Catch != nil {
		// Catch scopes are created at runtime and can shadow anything:
		// compile the whole subtree (including functions declared in it)
		// with dynamic resolution.
		c.dyn++
		catchBody = c.compileStmts(x.Catch.Body)
		c.dyn--
	}
	var finBody []cstmt
	if x.Finally != nil {
		finBody = c.compileStmts(x.Finally.Body)
	}
	hasCatch := x.Catch != nil
	hasFin := x.Finally != nil
	catchName := x.CatchName
	return func(fr *frame) ctrl {
		in := fr.in
		in.step()
		cc, thrown := runProtected(fr, body)
		if thrown != nil && hasCatch {
			catchEnv := NewScope(fr.scope)
			in.declareVar(catchEnv, catchName, thrown.val)
			saved := fr.scope
			fr.scope = catchEnv
			cc, thrown = runProtected(fr, catchBody)
			fr.scope = saved
		}
		if hasFin {
			if fc := runSeq(fr, finBody); fc.kind != ctrlNormal {
				return fc // abrupt finally overrides any pending throw/completion
			}
		}
		if thrown != nil {
			panic(thrown)
		}
		return cc
	}
}

func (c *compiler) compileSwitch(x *ast.SwitchStmt) cstmt {
	disc := c.compileExpr(x.Disc)
	type carm struct {
		test cexpr
		body []cstmt
	}
	arms := make([]carm, len(x.Cases))
	for i, cs := range x.Cases {
		var t cexpr
		if cs.Test != nil {
			t = c.compileExpr(cs.Test)
		}
		arms[i] = carm{test: t, body: c.compileStmts(cs.Body)}
	}
	return func(fr *frame) ctrl {
		fr.in.step()
		d := disc(fr)
		matched := -1
		for i := range arms {
			if arms[i].test == nil {
				continue
			}
			tv := arms[i].test(fr)
			if value.StrictEquals(d, tv) {
				matched = i
				break
			}
		}
		if matched < 0 {
			for i := range arms {
				if arms[i].test == nil {
					matched = i
					break
				}
			}
		}
		if matched < 0 {
			return ctrlOK
		}
		for i := matched; i < len(arms); i++ { // fall-through semantics
			for _, cs := range arms[i].body {
				cc := cs(fr)
				switch cc.kind {
				case ctrlBreak:
					return ctrlOK
				case ctrlReturn, ctrlContinue:
					return cc
				}
			}
		}
		return ctrlOK
	}
}
