package interp

// treewalk_test.go and treewalk_stmt_test.go are the tree-walking
// evaluator: the engine's first implementation, kept as the reference
// the compiled evaluator is held to (conformance_test.go,
// FuzzInterpDifferential, guardparity_test.go). It is compiled into this
// package's test binary only. RunTreeWalk hoists and executes a program
// straight off the AST; the function values it creates carry no compiled
// body, so invoke hands them to treeInvoke, which init points at the
// tree activation below. Everything under a node's evaluation that is
// not the walk itself (getMember, applyBinary, construct, …) is the
// engine's own code in eval.go.

import (
	"fmt"

	"repro/internal/js/ast"
	"repro/internal/js/token"
	"repro/internal/js/value"
)

func init() { treeInvoke = (*Interp).treeCall }

// RunEngine runs prog through Run when compiled, on the reference tree
// walk otherwise: the one switch the differential tests share.
func (in *Interp) RunEngine(prog *ast.Program, compiled bool) error {
	if compiled {
		return in.Run(prog)
	}
	return in.RunTreeWalk(prog)
}

// RunTreeWalk is Run on the reference evaluator.
func (in *Interp) RunTreeWalk(prog *ast.Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredToError(r)
		}
	}()
	in.hoistInto(prog.Body, in.Globals, nil)
	for _, s := range prog.Body {
		c := in.execStmt(s, in.Globals)
		if c.kind == ctrlReturn {
			break
		}
	}
	return nil
}

// makeFunction materializes a function value with no compiled body.
func (in *Interp) makeFunction(decl *ast.FuncLit, env *Scope) *value.Object {
	return in.newFunction(decl, nil, env)
}

// treeCall activates fn on the tree walk. invoke has already fired
// CallEnter and charged call-depth accounting; callCompiled mirrors the
// declaration order here slot for slot.
func (in *Interp) treeCall(fn *value.Function, this value.Value, args []value.Value) value.Value {
	decl := fn.Decl.(*ast.FuncLit)
	env := NewScope(fn.Env.(*Scope))
	in.declareVar(env, "this", this)

	for i, p := range decl.Params {
		var v value.Value
		if i < len(args) {
			v = args[i]
		} else {
			v = value.Undefined()
		}
		in.declareVar(env, p, v)
	}
	if needsArguments(decl) {
		argObj := in.NewArray(append([]value.Value(nil), args...)...)
		in.declareVar(env, "arguments", value.ObjectVal(argObj))
	}

	// Hoist vars and nested function declarations.
	for _, n := range decl.VarNames {
		if _, isParam := env.vars[n]; !isParam {
			in.declareVar(env, n, value.Undefined())
		}
	}
	for _, s := range decl.Body.Body {
		if fd, ok := s.(*ast.FuncDecl); ok {
			f := in.makeFunction(fd.Fn, env)
			in.declareVar(env, fd.Name, value.ObjectVal(f))
		}
	}

	c := in.execBlock(decl.Body, env)
	if c.kind == ctrlReturn {
		return c.val
	}
	return value.Undefined()
}

// assignVar writes name in the innermost scope where it is bound; unbound
// names are created as implicit globals (the JS pitfall §2.4 discusses).
func (in *Interp) assignVar(env *Scope, name string, v value.Value) {
	b := env.lookup(name)
	if b == nil {
		b = in.declareVar(in.Globals, name, v)
		for _, h := range in.hooks.varWrite {
			h.VarWrite(name, b)
		}
		return
	}
	b.V = v
	for _, h := range in.hooks.varWrite {
		h.VarWrite(name, b)
	}
}

// readVar reads name, throwing ReferenceError when unbound.
func (in *Interp) readVar(env *Scope, name string) value.Value {
	b := env.lookup(name)
	if b == nil {
		in.throwError("ReferenceError", "%s is not defined", name)
	}
	for _, h := range in.hooks.varRead {
		h.VarRead(name, b)
	}
	return b.V
}

// evalExpr evaluates an expression; JS exceptions propagate by panic.
func (in *Interp) evalExpr(e ast.Expr, env *Scope) value.Value {
	in.step()
	switch x := e.(type) {
	case *ast.NumberLit:
		return value.Number(x.Value)
	case *ast.StringLit:
		return value.String(x.Value)
	case *ast.BoolLit:
		return value.Bool(x.Value)
	case *ast.NullLit:
		return value.Null()
	case *ast.UndefinedLit:
		return value.Undefined()
	case *ast.ThisExpr:
		return in.readVar(env, "this")
	case *ast.Ident:
		return in.readVar(env, x.Name)
	case *ast.ArrayLit:
		elems := make([]value.Value, len(x.Elems))
		for i, el := range x.Elems {
			elems[i] = in.evalExpr(el, env)
		}
		return value.ObjectVal(in.NewArray(elems...))
	case *ast.ObjectLit:
		o := in.NewObject()
		for i, k := range x.Keys {
			v := in.evalExpr(x.Values[i], env)
			o.Set(k, v)
			for _, h := range in.hooks.propWrite {
				h.PropWrite(o, k, nil)
			}
		}
		return value.ObjectVal(o)
	case *ast.FuncLit:
		fn := in.makeFunction(x, env)
		return value.ObjectVal(fn)
	case *ast.UnaryExpr:
		return in.evalUnary(x, env)
	case *ast.UpdateExpr:
		return in.evalUpdate(x, env)
	case *ast.BinaryExpr:
		return in.evalBinary(x, env)
	case *ast.CondExpr:
		c := in.evalExpr(x.Cond, env).ToBool()
		for _, h := range in.hooks.branchTaken {
			h.BranchTaken(x.BranchID, c)
		}
		if c {
			return in.evalExpr(x.Cons, env)
		}
		return in.evalExpr(x.Alt, env)
	case *ast.AssignExpr:
		return in.evalAssign(x, env)
	case *ast.CallExpr:
		return in.evalCall(x, env)
	case *ast.NewExpr:
		return in.evalNew(x, env)
	case *ast.MemberExpr:
		obj, via := in.evalBase(x.X, env)
		return in.getMember(obj, x.Name, via)
	case *ast.IndexExpr:
		obj, via := in.evalBase(x.X, env)
		key := in.evalExpr(x.Index, env)
		return in.getMember(obj, propertyKey(key), via)
	case *ast.SeqExpr:
		var last value.Value
		for _, sub := range x.Exprs {
			last = in.evalExpr(sub, env)
		}
		return last
	default:
		panic(&fatal{errUnknownNode(e)})
	}
}

// evalBase evaluates the base expression of a property access and, when it
// is a simple reference (identifier or this), returns its binding so the
// access can be characterized against the reference's stamp.
func (in *Interp) evalBase(e ast.Expr, env *Scope) (value.Value, *Binding) {
	switch t := e.(type) {
	case *ast.Ident:
		b := env.lookup(t.Name)
		if b == nil {
			in.throwError("ReferenceError", "%s is not defined", t.Name)
		}
		for _, h := range in.hooks.varRead {
			h.VarRead(t.Name, b)
		}
		in.step()
		return b.V, b
	case *ast.ThisExpr:
		b := env.lookup("this")
		in.step()
		if b == nil {
			return value.Undefined(), nil
		}
		return b.V, b
	}
	return in.evalExpr(e, env), nil
}

func (in *Interp) evalUnary(x *ast.UnaryExpr, env *Scope) value.Value {
	switch x.Op {
	case token.TYPEOF:
		// typeof on an unbound identifier does not throw
		if id, ok := x.X.(*ast.Ident); ok {
			b := env.lookup(id.Name)
			if b == nil {
				return value.String("undefined")
			}
			for _, h := range in.hooks.varRead {
				h.VarRead(id.Name, b)
			}
			return value.String(b.V.TypeOf())
		}
		v := in.evalExpr(x.X, env)
		return value.String(v.TypeOf())
	case token.DELETE:
		switch t := x.X.(type) {
		case *ast.MemberExpr:
			obj, via := in.evalBase(t.X, env)
			if obj.IsObject() {
				ok := obj.Object().Delete(t.Name)
				for _, h := range in.hooks.propWrite {
					h.PropWrite(obj.Object(), t.Name, via)
				}
				return value.Bool(ok)
			}
			return value.Bool(true)
		case *ast.IndexExpr:
			obj, via := in.evalBase(t.X, env)
			key := propertyKey(in.evalExpr(t.Index, env))
			if obj.IsObject() {
				ok := obj.Object().Delete(key)
				for _, h := range in.hooks.propWrite {
					h.PropWrite(obj.Object(), key, via)
				}
				return value.Bool(ok)
			}
			return value.Bool(true)
		default:
			return value.Bool(true)
		}
	}
	v := in.evalExpr(x.X, env)
	switch x.Op {
	case token.MINUS:
		return value.Number(-v.ToNumber())
	case token.PLUS:
		return value.Number(v.ToNumber())
	case token.NOT:
		return value.Bool(!v.ToBool())
	case token.BITNOT:
		return value.Number(float64(^v.ToInt32()))
	}
	panic(&fatal{fmt.Errorf("interp: unknown unary op %s", x.Op)})
}

func (in *Interp) evalUpdate(x *ast.UpdateExpr, env *Scope) value.Value {
	delta := 1.0
	if x.Op == token.DEC {
		delta = -1
	}
	switch t := x.X.(type) {
	case *ast.Ident:
		old := in.readVar(env, t.Name).ToNumber()
		nv := value.Number(old + delta)
		in.assignVar(env, t.Name, nv)
		if x.Prefix {
			return nv
		}
		return value.Number(old)
	case *ast.MemberExpr:
		obj, via := in.evalBase(t.X, env)
		old := in.getMember(obj, t.Name, via).ToNumber()
		nv := value.Number(old + delta)
		in.setMember(obj, t.Name, nv, via)
		if x.Prefix {
			return nv
		}
		return value.Number(old)
	case *ast.IndexExpr:
		obj, via := in.evalBase(t.X, env)
		key := propertyKey(in.evalExpr(t.Index, env))
		old := in.getMember(obj, key, via).ToNumber()
		nv := value.Number(old + delta)
		in.setMember(obj, key, nv, via)
		if x.Prefix {
			return nv
		}
		return value.Number(old)
	}
	in.throwError("SyntaxError", "invalid update target")
	return value.Undefined()
}

func (in *Interp) evalBinary(x *ast.BinaryExpr, env *Scope) value.Value {
	// Short-circuit logical operators.
	switch x.Op {
	case token.LAND:
		l := in.evalExpr(x.L, env)
		taken := l.ToBool()
		for _, h := range in.hooks.branchTaken {
			h.BranchTaken(x.BranchID, taken)
		}
		if !taken {
			return l
		}
		return in.evalExpr(x.R, env)
	case token.LOR:
		l := in.evalExpr(x.L, env)
		taken := l.ToBool()
		for _, h := range in.hooks.branchTaken {
			h.BranchTaken(x.BranchID, !taken)
		}
		if taken {
			return l
		}
		return in.evalExpr(x.R, env)
	}

	l := in.evalExpr(x.L, env)
	r := in.evalExpr(x.R, env)
	return in.applyBinary(x.Op, l, r)
}

func (in *Interp) evalAssign(x *ast.AssignExpr, env *Scope) value.Value {
	compute := func(old func() value.Value) value.Value {
		if x.Op == token.ASSIGN {
			return in.evalExpr(x.R, env)
		}
		l := old()
		r := in.evalExpr(x.R, env)
		return in.applyBinary(x.Op.CompoundOp(), l, r)
	}
	switch t := x.L.(type) {
	case *ast.Ident:
		v := compute(func() value.Value { return in.readVar(env, t.Name) })
		in.assignVar(env, t.Name, v)
		return v
	case *ast.MemberExpr:
		obj, via := in.evalBase(t.X, env)
		v := compute(func() value.Value { return in.getMember(obj, t.Name, via) })
		in.setMember(obj, t.Name, v, via)
		return v
	case *ast.IndexExpr:
		obj, via := in.evalBase(t.X, env)
		key := propertyKey(in.evalExpr(t.Index, env))
		v := compute(func() value.Value { return in.getMember(obj, key, via) })
		in.setMember(obj, key, v, via)
		return v
	}
	in.throwError("SyntaxError", "invalid assignment target")
	return value.Undefined()
}

func (in *Interp) evalCall(x *ast.CallExpr, env *Scope) value.Value {
	var this value.Value
	var fn value.Value
	switch t := x.Fn.(type) {
	case *ast.MemberExpr:
		var via *Binding
		this, via = in.evalBase(t.X, env)
		fn = in.getMember(this, t.Name, via)
		if !fn.IsCallable() {
			in.throwError("TypeError", "%s.%s is not a function", describeExpr(t.X), t.Name)
		}
	case *ast.IndexExpr:
		var via *Binding
		this, via = in.evalBase(t.X, env)
		key := propertyKey(in.evalExpr(t.Index, env))
		fn = in.getMember(this, key, via)
		if !fn.IsCallable() {
			in.throwError("TypeError", "%s[%q] is not a function", describeExpr(t.X), key)
		}
	default:
		this = value.Undefined()
		fn = in.evalExpr(x.Fn, env)
	}
	args := make([]value.Value, len(x.Args))
	for i, a := range x.Args {
		args[i] = in.evalExpr(a, env)
	}
	return in.invoke(fn, this, args)
}

func (in *Interp) evalNew(x *ast.NewExpr, env *Scope) value.Value {
	fn := in.evalExpr(x.Fn, env)
	if !fn.IsCallable() {
		in.throwError("TypeError", "%s is not a constructor", describeExpr(x.Fn))
	}
	args := make([]value.Value, len(x.Args))
	for i, a := range x.Args {
		args[i] = in.evalExpr(a, env)
	}
	return in.construct(fn, args)
}
