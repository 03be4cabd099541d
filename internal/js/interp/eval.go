package interp

// eval.go holds the operations under a node's evaluation that do not
// depend on how the node was reached: member access, binary operators,
// construction, Function.prototype.call/apply. The compiled closures
// (compile.go) call them, and so does the reference tree walk the
// differential suites compare against (treewalk_test.go).

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/js/ast"
	"repro/internal/js/token"
	"repro/internal/js/value"
)

func errUnknownNode(n ast.Node) error {
	return fmt.Errorf("interp: unknown AST node %T at %s", n, n.Pos())
}

// indexKeys spells every array index below len(indexKeys) in decimal, so
// the common a[i] neither formats nor allocates its key.
var indexKeys = func() (keys [4096]string) {
	for i := range keys {
		keys[i] = strconv.Itoa(i)
	}
	return keys
}()

// indexKey is the property key of array index i.
func indexKey(i int) string {
	if i < len(indexKeys) {
		return indexKeys[i]
	}
	return strconv.Itoa(i)
}

// propertyKey converts an index value to its canonical property key.
func propertyKey(v value.Value) string {
	if v.IsNumber() {
		f := v.Num()
		if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e15 {
			if f >= 0 { // -0 included: its key is "0"
				i := int64(f)
				if i < int64(len(indexKeys)) {
					return indexKeys[i]
				}
				return strconv.FormatInt(i, 10)
			}
			return value.FormatNumber(f)
		}
	}
	return v.ToString()
}

// getMember reads obj.key with primitive auto-methods and hooks.
func (in *Interp) getMember(obj value.Value, key string, via *Binding) value.Value {
	switch obj.Kind() {
	case value.KindString:
		return in.stringMember(obj.Str(), key)
	case value.KindNumber:
		m, _ := in.method(&numberMethods, key)
		return m
	case value.KindObject:
		o := obj.Object()
		if len(in.hooks.propRead) != 0 {
			in.hooks.firePropRead(o, key, via)
		}
		if v, ok := o.Get(key); ok {
			return v
		}
		// Builtin method tables for arrays and functions.
		if o.IsArray() {
			if m, ok := in.method(&arrayMethods, key); ok {
				return m
			}
		}
		if o.Fn != nil {
			if m, ok := in.method(&funcMethods, key); ok {
				return m
			}
			switch key {
			case "prototype":
				// auto-create the prototype object on first access
				p := in.NewObject()
				o.Set("prototype", value.ObjectVal(p))
				return value.ObjectVal(p)
			case "length":
				return value.Int(len(o.Fn.Params))
			case "name":
				return value.String(o.Fn.Name)
			}
		}
		return value.Undefined()
	case value.KindUndefined, value.KindNull:
		in.throwError("TypeError", "cannot read property %q of %s", key, obj.TypeOf())
	}
	return value.Undefined()
}

// setMember writes obj.key = v with hooks.
func (in *Interp) setMember(obj value.Value, key string, v value.Value, via *Binding) {
	if !obj.IsObject() {
		if obj.IsNullish() {
			in.throwError("TypeError", "cannot set property %q of %s", key, obj.TypeOf())
		}
		return // silently ignore writes to primitives (non-strict JS)
	}
	o := obj.Object()
	o.Set(key, v)
	if len(in.hooks.propWrite) != 0 {
		in.hooks.firePropWrite(o, key, via)
	}
}

// applyBinary applies a (non-logical) binary operator.
func (in *Interp) applyBinary(op token.Type, l, r value.Value) value.Value {
	if v, ok := applyBinaryPure(op, l, r); ok {
		return v
	}
	switch op {
	case token.IN:
		if !r.IsObject() {
			in.throwError("TypeError", "'in' requires an object")
		}
		return value.Bool(r.Object().Has(l.ToString()))
	case token.INSTANCEOF:
		return value.Bool(in.instanceOf(l, r))
	}
	panic(&fatal{fmt.Errorf("interp: unknown binary op %s", op)})
}

// applyBinaryPure applies the side-effect-free binary operators — every
// operator except `in`/`instanceof`, which consult objects and can
// throw. The compiler's constant folder (compile.go) relies on this
// split: a pure operator on constants is safe to evaluate at compile
// time.
func applyBinaryPure(op token.Type, l, r value.Value) (value.Value, bool) {
	switch op {
	case token.PLUS:
		if l.IsString() || r.IsString() ||
			(l.IsObject() && !l.IsCallable()) || (r.IsObject() && !r.IsCallable()) {
			return value.String(l.ToString() + r.ToString()), true
		}
		return value.Number(l.ToNumber() + r.ToNumber()), true
	case token.MINUS:
		return value.Number(l.ToNumber() - r.ToNumber()), true
	case token.STAR:
		return value.Number(l.ToNumber() * r.ToNumber()), true
	case token.SLASH:
		return value.Number(l.ToNumber() / r.ToNumber()), true
	case token.PERCENT:
		return value.Number(math.Mod(l.ToNumber(), r.ToNumber())), true
	case token.LT, token.GT, token.LE, token.GE:
		return compareOp(op, l, r), true
	case token.EQ:
		return value.Bool(value.LooseEquals(l, r)), true
	case token.NEQ:
		return value.Bool(!value.LooseEquals(l, r)), true
	case token.STRICTEQ:
		return value.Bool(value.StrictEquals(l, r)), true
	case token.STRICTNE:
		return value.Bool(!value.StrictEquals(l, r)), true
	case token.AND:
		return value.Number(float64(l.ToInt32() & r.ToInt32())), true
	case token.OR:
		return value.Number(float64(l.ToInt32() | r.ToInt32())), true
	case token.XOR:
		return value.Number(float64(l.ToInt32() ^ r.ToInt32())), true
	case token.SHL:
		return value.Number(float64(l.ToInt32() << (r.ToUint32() & 31))), true
	case token.SHR:
		return value.Number(float64(l.ToInt32() >> (r.ToUint32() & 31))), true
	case token.USHR:
		return value.Number(float64(l.ToUint32() >> (r.ToUint32() & 31))), true
	}
	return value.Value{}, false
}

func compareOp(op token.Type, l, r value.Value) value.Value {
	if l.IsString() && r.IsString() {
		switch op {
		case token.LT:
			return value.Bool(l.Str() < r.Str())
		case token.GT:
			return value.Bool(l.Str() > r.Str())
		case token.LE:
			return value.Bool(l.Str() <= r.Str())
		case token.GE:
			return value.Bool(l.Str() >= r.Str())
		}
	}
	lf, rf := l.ToNumber(), r.ToNumber()
	if math.IsNaN(lf) || math.IsNaN(rf) {
		return value.Bool(false)
	}
	switch op {
	case token.LT:
		return value.Bool(lf < rf)
	case token.GT:
		return value.Bool(lf > rf)
	case token.LE:
		return value.Bool(lf <= rf)
	case token.GE:
		return value.Bool(lf >= rf)
	}
	return value.Bool(false)
}

func (in *Interp) instanceOf(l, r value.Value) bool {
	if !r.IsCallable() {
		in.throwError("TypeError", "right-hand side of instanceof is not callable")
	}
	if !l.IsObject() {
		return false
	}
	protoV, _ := r.Object().GetOwn("prototype")
	if !protoV.IsObject() {
		return false
	}
	proto := protoV.Object()
	for o := l.Object().Proto; o != nil; o = o.Proto {
		if o == proto {
			return true
		}
	}
	return false
}

func describeExpr(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.ThisExpr:
		return "this"
	case *ast.MemberExpr:
		return describeExpr(t.X) + "." + t.Name
	}
	return "expression"
}

// construct runs `new fn(args...)` once the callee has been checked
// callable and the arguments evaluated.
func (in *Interp) construct(fn value.Value, args []value.Value) value.Value {
	fo := fn.Object()
	// Builtin constructors (Array, Object, Error...) construct directly.
	if fo.Fn.Native != nil {
		res, err := fo.Fn.Native(in, value.Undefined(), args)
		if err != nil {
			if t, ok := err.(*value.Thrown); ok {
				in.throwValue(t.Val)
			}
			panic(&fatal{err})
		}
		if res.IsObject() {
			return res
		}
		return value.ObjectVal(in.NewObject())
	}
	self := in.NewObject()
	if protoV, ok := fo.GetOwn("prototype"); ok && protoV.IsObject() {
		self.Proto = protoV.Object()
	} else {
		p := in.NewObject()
		fo.Set("prototype", value.ObjectVal(p))
		self.Proto = p
	}
	res := in.invoke(fn, value.ObjectVal(self), args)
	if res.IsObject() {
		return res
	}
	return value.ObjectVal(self)
}

// funcMethods implements the Function.prototype subset.
var funcMethods = map[string]value.NativeFn{"call": nativeFuncCall, "apply": nativeFuncApply}

// nativeFuncCall implements Function.prototype.call.
func nativeFuncCall(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
	// `this` here is the function being called... but our dispatch binds
	// `this` to the receiver of `.call`, which IS the function object.
	if !this.IsCallable() {
		return value.Undefined(), value.ThrowTypeError("Function.call on non-function")
	}
	var newThis value.Value
	var rest []value.Value
	if len(args) > 0 {
		newThis = args[0]
		// The callee copies what it keeps of this call's window.
		rest = args[1:]
	} else {
		newThis = value.Undefined()
	}
	return c.CallFunction(this, newThis, rest)
}

// nativeFuncApply implements Function.prototype.apply.
func nativeFuncApply(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
	if !this.IsCallable() {
		return value.Undefined(), value.ThrowTypeError("Function.apply on non-function")
	}
	var newThis value.Value
	var rest []value.Value
	if len(args) > 0 {
		newThis = args[0]
	} else {
		newThis = value.Undefined()
	}
	if len(args) > 1 && args[1].IsObject() && args[1].Object().IsArray() {
		// A copy: a native callee may run callbacks that change the
		// array while it reads its arguments.
		rest = slices.Clone(args[1].Object().Elems)
	}
	return c.CallFunction(this, newThis, rest)
}
