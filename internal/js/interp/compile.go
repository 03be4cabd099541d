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
//   - property accesses precompute their member key and error text;
//   - statements flatten into closure arrays, so nothing switches on
//     node type at run time.
//
// The contract (DESIGN.md "Compilation contract"): what this executes
// is observably identical to a walk of the tree — values, console
// output, error messages, hook sequences (hookmux/autopar guards) and
// step counts — and the walk itself is the test-side oracle that says so
// (treewalk_test.go). Catch blocks keep fully dynamic scoping: every
// reference compiled inside one (including inside functions declared
// there) falls back to the scope-chain walk, because catch scopes are
// created at runtime and can shadow anything.

import (
	"fmt"
	"sync"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/token"
	"repro/internal/js/value"
)

// cexpr is a compiled expression; cstmt a compiled statement. Both are
// closed over immutable compile-time data only, so one compiled unit is
// safely shared by concurrent worker interpreters.
type (
	cexpr func(fr *frame) value.Value
	cstmt func(fr *frame) ctrl
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
	argsSlot   int
	varSlots   []int
	hoisted    []hoistedFunc
	body       []cstmt
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
// once-per-process cost for repeated kernel sources (internal/parallel,
// autopar-generated kernels). The returned AST is shared and must be
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
	layout := buildLayout(lit)
	cf := &cfunc{
		unit:     c.unit,
		lit:      lit,
		layout:   layout,
		thisSlot: layout.index["this"],
		argsSlot: layout.index["arguments"],
	}
	for _, p := range lit.Params {
		cf.paramSlots = append(cf.paramSlots, layout.index[p])
	}
	for _, n := range lit.VarNames {
		cf.varSlots = append(cf.varSlots, layout.index[n])
	}
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
	switch x := e.(type) {
	case *ast.Ident:
		r := c.resolve(x.Name)
		return func(fr *frame) value.Value {
			fr.in.step()
			return r.read(fr)
		}
	case *ast.ThisExpr:
		r := c.resolve("this")
		return func(fr *frame) value.Value {
			fr.in.step()
			return r.read(fr)
		}
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
				if in.hooks != nil {
					in.hooks.PropWrite(o, k, nil)
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
		cond := c.compileExpr(x.Cond)
		cons := c.compileExpr(x.Cons)
		alt := c.compileExpr(x.Alt)
		id := x.BranchID
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			cv := cond(fr).ToBool()
			if in.hooks != nil {
				in.hooks.BranchTaken(id, cv)
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
			args := make([]value.Value, len(argsC))
			for i, a := range argsC {
				args[i] = a(fr)
			}
			return in.construct(fn, args)
		}
	case *ast.MemberExpr:
		base := c.compileBase(x.X)
		name := x.Name
		return func(fr *frame) value.Value {
			fr.in.step()
			obj, via := base(fr)
			return fr.in.getMember(obj, name, via)
		}
	case *ast.IndexExpr:
		base := c.compileBase(x.X)
		key := c.compileKey(x.Index)
		return func(fr *frame) value.Value {
			fr.in.step()
			obj, via := base(fr)
			k := key.eval(fr)
			return fr.in.getMember(obj, k, via)
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
			if in.hooks != nil {
				in.hooks.VarRead(r.name, b)
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
				if in.hooks != nil {
					in.hooks.VarRead(r.name, b)
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
		switch t := x.X.(type) {
		case *ast.MemberExpr:
			base := c.compileBase(t.X)
			name := t.Name
			return func(fr *frame) value.Value {
				in := fr.in
				in.step()
				obj, via := base(fr)
				if obj.IsObject() {
					ok := obj.Object().Delete(name)
					if in.hooks != nil {
						in.hooks.PropWrite(obj.Object(), name, via)
					}
					return value.Bool(ok)
				}
				return value.Bool(true)
			}
		case *ast.IndexExpr:
			base := c.compileBase(t.X)
			key := c.compileKey(t.Index)
			return func(fr *frame) value.Value {
				in := fr.in
				in.step()
				obj, via := base(fr)
				k := key.eval(fr)
				if obj.IsObject() {
					ok := obj.Object().Delete(k)
					if in.hooks != nil {
						in.hooks.PropWrite(obj.Object(), k, via)
					}
					return value.Bool(ok)
				}
				return value.Bool(true)
			}
		default:
			// delete on a non-member target does not evaluate it.
			return func(fr *frame) value.Value {
				fr.in.step()
				return value.Bool(true)
			}
		}
	}
	ce := c.compileExpr(x.X)
	op := x.Op
	switch op {
	case token.MINUS:
		return func(fr *frame) value.Value {
			fr.in.step()
			return value.Number(-ce(fr).ToNumber())
		}
	case token.PLUS:
		return func(fr *frame) value.Value {
			fr.in.step()
			return value.Number(ce(fr).ToNumber())
		}
	case token.NOT:
		return func(fr *frame) value.Value {
			fr.in.step()
			return value.Bool(!ce(fr).ToBool())
		}
	case token.BITNOT:
		return func(fr *frame) value.Value {
			fr.in.step()
			return value.Number(float64(^ce(fr).ToInt32()))
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
	case *ast.MemberExpr:
		base := c.compileBase(t.X)
		name := t.Name
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			obj, via := base(fr)
			old := in.getMember(obj, name, via).ToNumber()
			nv := value.Number(old + delta)
			in.setMember(obj, name, nv, via)
			if prefix {
				return nv
			}
			return value.Number(old)
		}
	case *ast.IndexExpr:
		base := c.compileBase(t.X)
		key := c.compileKey(t.Index)
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
			if in.hooks != nil {
				in.hooks.BranchTaken(id, taken)
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
			if in.hooks != nil {
				in.hooks.BranchTaken(id, !taken)
			}
			if taken {
				return l
			}
			return re(fr)
		}
	}
	le, re := c.compileExpr(x.L), c.compileExpr(x.R)
	op := x.Op
	return func(fr *frame) value.Value {
		in := fr.in
		in.step()
		l := le(fr)
		r := re(fr)
		return in.applyBinary(op, l, r)
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
				v = in.applyBinary(cop, l, rv)
			}
			r.write(fr, v)
			return v
		}
	case *ast.MemberExpr:
		base := c.compileBase(t.X)
		name := t.Name
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			obj, via := base(fr)
			var v value.Value
			if simple {
				v = re(fr)
			} else {
				l := in.getMember(obj, name, via)
				rv := re(fr)
				v = in.applyBinary(cop, l, rv)
			}
			in.setMember(obj, name, v, via)
			return v
		}
	case *ast.IndexExpr:
		base := c.compileBase(t.X)
		key := c.compileKey(t.Index)
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
				v = in.applyBinary(cop, l, rv)
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
	switch t := x.Fn.(type) {
	case *ast.MemberExpr:
		base := c.compileBase(t.X)
		name := t.Name
		desc := describeExpr(t.X)
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			this, via := base(fr)
			fn := in.getMember(this, name, via)
			if !fn.IsCallable() {
				in.throwError("TypeError", "%s.%s is not a function", desc, name)
			}
			args := make([]value.Value, len(argsC))
			for i, a := range argsC {
				args[i] = a(fr)
			}
			return in.invoke(fn, this, args)
		}
	case *ast.IndexExpr:
		base := c.compileBase(t.X)
		key := c.compileKey(t.Index)
		desc := describeExpr(t.X)
		return func(fr *frame) value.Value {
			in := fr.in
			in.step()
			this, via := base(fr)
			k := key.eval(fr)
			fn := in.getMember(this, k, via)
			if !fn.IsCallable() {
				in.throwError("TypeError", "%s[%q] is not a function", desc, k)
			}
			args := make([]value.Value, len(argsC))
			for i, a := range argsC {
				args[i] = a(fr)
			}
			return in.invoke(fn, this, args)
		}
	}
	fnC := c.compileExpr(x.Fn)
	return func(fr *frame) value.Value {
		in := fr.in
		in.step()
		fn := fnC(fr)
		args := make([]value.Value, len(argsC))
		for i, a := range argsC {
			args[i] = a(fr)
		}
		return in.invoke(fn, value.Undefined(), args)
	}
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
		cond := c.compileExpr(x.Cond)
		cons := c.compileStmt(x.Cons)
		var alt cstmt
		if x.Alt != nil {
			alt = c.compileStmt(x.Alt)
		}
		id := x.BranchID
		return func(fr *frame) ctrl {
			in := fr.in
			in.step()
			cv := cond(fr).ToBool()
			if in.hooks != nil {
				in.hooks.BranchTaken(id, cv)
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
	var cond, post cexpr
	if x.Cond != nil {
		cond = c.compileExpr(x.Cond)
	}
	if x.Post != nil {
		post = c.compileExpr(x.Post)
	}
	body := c.compileStmt(x.Body)
	id := x.Loop
	return func(fr *frame) ctrl {
		in := fr.in
		in.step()
		if in.hooks != nil {
			in.hooks.LoopEnter(id)
			defer in.hooks.LoopExit(id)
		}
		if init != nil {
			if in.hooks != nil {
				in.hooks.LoopHeader(id, true)
			}
			init(fr)
			if in.hooks != nil {
				in.hooks.LoopHeader(id, false)
			}
		}
		for {
			if cond != nil {
				if !cond(fr).ToBool() {
					return ctrlOK
				}
			}
			if in.hooks != nil {
				in.hooks.LoopIter(id)
			}
			cc := body(fr)
			switch cc.kind {
			case ctrlBreak:
				return ctrlOK
			case ctrlReturn:
				return cc
			}
			if post != nil {
				if in.hooks != nil {
					in.hooks.LoopHeader(id, true)
				}
				post(fr)
				if in.hooks != nil {
					in.hooks.LoopHeader(id, false)
				}
			}
		}
	}
}

func (c *compiler) compileWhile(x *ast.WhileStmt) cstmt {
	cond := c.compileExpr(x.Cond)
	body := c.compileStmt(x.Body)
	id := x.Loop
	return func(fr *frame) ctrl {
		in := fr.in
		in.step()
		if in.hooks != nil {
			in.hooks.LoopEnter(id)
			defer in.hooks.LoopExit(id)
		}
		for {
			if !cond(fr).ToBool() {
				return ctrlOK
			}
			if in.hooks != nil {
				in.hooks.LoopIter(id)
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
	cond := c.compileExpr(x.Cond)
	body := c.compileStmt(x.Body)
	id := x.Loop
	return func(fr *frame) ctrl {
		in := fr.in
		in.step()
		if in.hooks != nil {
			in.hooks.LoopEnter(id)
			defer in.hooks.LoopExit(id)
		}
		for {
			if in.hooks != nil {
				in.hooks.LoopIter(id)
			}
			cc := body(fr)
			switch cc.kind {
			case ctrlBreak:
				return ctrlOK
			case ctrlReturn:
				return cc
			}
			if !cond(fr).ToBool() {
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
		if in.hooks != nil {
			in.hooks.LoopEnter(id)
			defer in.hooks.LoopExit(id)
		}
		if !objV.IsObject() {
			return ctrlOK // for-in over primitives iterates nothing here
		}
		keys := objV.Object().OwnKeys()
		for _, k := range keys {
			if in.hooks != nil {
				in.hooks.LoopIter(id)
				in.hooks.LoopHeader(id, true)
			}
			r.write(fr, value.String(k))
			if in.hooks != nil {
				in.hooks.LoopHeader(id, false)
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
