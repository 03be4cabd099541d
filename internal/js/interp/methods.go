package interp

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/js/value"
)

// propWrite, propRead and objectNew fire their event on the hooks of a
// Caller that is the interpreter (always, in practice).
func propWrite(c value.Caller, o *value.Object, key string) {
	if in, ok := c.(*Interp); ok && len(in.hooks.propWrite) != 0 {
		in.hooks.firePropWrite(o, key, nil)
	}
}

func propRead(c value.Caller, o *value.Object, key string) {
	if in, ok := c.(*Interp); ok && len(in.hooks.propRead) != 0 {
		in.hooks.firePropRead(o, key, nil)
	}
}

func objectNew(c value.Caller, o *value.Object) {
	if in, ok := c.(*Interp); ok && len(in.hooks.objectNew) != 0 {
		in.hooks.fireObjectNew(o)
	}
}

// callbackArgs is the argument slice a native hands its callbacks
// (forEach, map, a sort comparator, ...): made on the first callback and
// reused for every later one, since a callee copies what it keeps of its
// arguments.
type callbackArgs struct{ buf []value.Value }

func (cb *callbackArgs) set(args ...value.Value) []value.Value {
	if cb.buf == nil {
		cb.buf = make([]value.Value, len(args))
	}
	copy(cb.buf, args)
	return cb.buf
}

func thisArray(this value.Value) (*value.Object, *value.Thrown) {
	if !this.IsObject() || !this.Object().IsArray() {
		return nil, value.ThrowTypeError("receiver is not an array")
	}
	return this.Object(), nil
}

// methodKey names one builtin method: its table and its name.
type methodKey struct {
	table *map[string]value.NativeFn
	name  string
}

// method returns this interpreter's function object for the method name
// of table, making it on first access; false when table has no such
// method.
func (in *Interp) method(table *map[string]value.NativeFn, name string) (value.Value, bool) {
	k := methodKey{table, name}
	o := in.methods[k]
	if o == nil {
		fn, ok := (*table)[name]
		if !ok {
			return value.Undefined(), false
		}
		o = value.NewNative(name, fn)
		in.methods[k] = o
	}
	return value.ObjectVal(o), true
}

// Arg returns args[i], or undefined past the end: a missing argument
// reads as undefined, as in JavaScript.
func Arg(args []value.Value, i int) value.Value {
	if i < len(args) {
		return args[i]
	}
	return value.Undefined()
}

// arrayMethods implements the Array.prototype subset.
var arrayMethods = map[string]value.NativeFn{
	"push": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		for _, v := range args {
			a.Elems = append(a.Elems, v)
			propWrite(c, a, indexKey(len(a.Elems)-1))
		}
		return value.Int(len(a.Elems)), nil
	},
	"pop": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		if len(a.Elems) == 0 {
			return value.Undefined(), nil
		}
		v := a.Elems[len(a.Elems)-1]
		a.Elems = a.Elems[:len(a.Elems)-1]
		propWrite(c, a, "length")
		return v, nil
	},
	"shift": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		if len(a.Elems) == 0 {
			return value.Undefined(), nil
		}
		v := a.Elems[0]
		a.Elems = append(a.Elems[:0], a.Elems[1:]...)
		propWrite(c, a, "length")
		return v, nil
	},
	"unshift": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		a.Elems = append(append([]value.Value{}, args...), a.Elems...)
		propWrite(c, a, "length")
		return value.Int(len(a.Elems)), nil
	},
	"slice": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		n := len(a.Elems)
		start := sliceIndex(Arg(args, 0), 0, n)
		end := n
		if len(args) > 1 && !args[1].IsUndefined() {
			end = sliceIndex(args[1], n, n)
		}
		if start > end {
			start = end
		}
		out := value.NewArray(append([]value.Value{}, a.Elems[start:end]...)...)
		objectNew(c, out)
		return value.ObjectVal(out), nil
	},
	"splice": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		n := len(a.Elems)
		start := sliceIndex(Arg(args, 0), 0, n)
		del := n - start
		if len(args) > 1 {
			del = int(args[1].ToNumber())
		}
		if del < 0 {
			del = 0
		}
		if start+del > n {
			del = n - start
		}
		removed := append([]value.Value{}, a.Elems[start:start+del]...)
		var ins []value.Value
		if len(args) > 2 {
			ins = args[2:]
		}
		rest := append([]value.Value{}, a.Elems[start+del:]...)
		a.Elems = append(a.Elems[:start], append(append([]value.Value{}, ins...), rest...)...)
		propWrite(c, a, "length")
		out := value.NewArray(removed...)
		objectNew(c, out)
		return value.ObjectVal(out), nil
	},
	"concat": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		elems := append([]value.Value{}, a.Elems...)
		for _, arg := range args {
			if arg.IsObject() && arg.Object().IsArray() {
				elems = append(elems, arg.Object().Elems...)
			} else {
				elems = append(elems, arg)
			}
		}
		out := value.NewArray(elems...)
		objectNew(c, out)
		return value.ObjectVal(out), nil
	},
	"join": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		sep := ","
		if len(args) > 0 && !args[0].IsUndefined() {
			sep = args[0].ToString()
		}
		parts := make([]string, len(a.Elems))
		for i, e := range a.Elems {
			if !e.IsNullish() {
				parts[i] = e.ToString()
			}
		}
		return value.String(strings.Join(parts, sep)), nil
	},
	"indexOf": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		target := Arg(args, 0)
		for i, e := range a.Elems {
			if value.StrictEquals(e, target) {
				return value.Int(i), nil
			}
		}
		return value.Int(-1), nil
	},
	"lastIndexOf": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		target := Arg(args, 0)
		for i := len(a.Elems) - 1; i >= 0; i-- {
			if value.StrictEquals(a.Elems[i], target) {
				return value.Int(i), nil
			}
		}
		return value.Int(-1), nil
	},
	"reverse": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		for i, j := 0, len(a.Elems)-1; i < j; i, j = i+1, j-1 {
			a.Elems[i], a.Elems[j] = a.Elems[j], a.Elems[i]
			propWrite(c, a, indexKey(i))
			propWrite(c, a, indexKey(j))
		}
		return this, nil
	},
	"fill": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		v := Arg(args, 0)
		for i := range a.Elems {
			a.Elems[i] = v
			propWrite(c, a, indexKey(i))
		}
		return this, nil
	},
	"sort": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		cmp := Arg(args, 0)
		var sortErr error
		var cb callbackArgs
		sort.SliceStable(a.Elems, func(i, j int) bool {
			if sortErr != nil {
				return false
			}
			x, y := a.Elems[i], a.Elems[j]
			if cmp.IsCallable() {
				r, err := c.CallFunction(cmp, value.Undefined(), cb.set(x, y))
				if err != nil {
					sortErr = err
					return false
				}
				return r.ToNumber() < 0
			}
			return x.ToString() < y.ToString()
		})
		for i := range a.Elems {
			propWrite(c, a, indexKey(i))
		}
		return this, sortErr
	},
	"map": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		fn := Arg(args, 0)
		var cb callbackArgs
		out := make([]value.Value, len(a.Elems))
		for i, e := range a.Elems {
			propRead(c, a, indexKey(i))
			r, err := c.CallFunction(fn, value.Undefined(), cb.set(e, value.Int(i), this))
			if err != nil {
				return value.Undefined(), err
			}
			out[i] = r
		}
		res := value.NewArray(out...)
		objectNew(c, res)
		return value.ObjectVal(res), nil
	},
	"forEach": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		fn := Arg(args, 0)
		var cb callbackArgs
		for i, e := range a.Elems {
			propRead(c, a, indexKey(i))
			if _, err := c.CallFunction(fn, value.Undefined(), cb.set(e, value.Int(i), this)); err != nil {
				return value.Undefined(), err
			}
		}
		return value.Undefined(), nil
	},
	"filter": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		fn := Arg(args, 0)
		var cb callbackArgs
		var out []value.Value
		for i, e := range a.Elems {
			r, err := c.CallFunction(fn, value.Undefined(), cb.set(e, value.Int(i), this))
			if err != nil {
				return value.Undefined(), err
			}
			if r.ToBool() {
				out = append(out, e)
			}
		}
		res := value.NewArray(out...)
		objectNew(c, res)
		return value.ObjectVal(res), nil
	},
	"reduce": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		fn := Arg(args, 0)
		var cb callbackArgs
		i := 0
		var acc value.Value
		if len(args) > 1 {
			acc = args[1]
		} else {
			if len(a.Elems) == 0 {
				return value.Undefined(), value.ThrowTypeError("reduce of empty array with no initial value")
			}
			acc = a.Elems[0]
			i = 1
		}
		for ; i < len(a.Elems); i++ {
			r, err := c.CallFunction(fn, value.Undefined(), cb.set(acc, a.Elems[i], value.Int(i), this))
			if err != nil {
				return value.Undefined(), err
			}
			acc = r
		}
		return acc, nil
	},
	"every": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		fn := Arg(args, 0)
		var cb callbackArgs
		for i, e := range a.Elems {
			r, err := c.CallFunction(fn, value.Undefined(), cb.set(e, value.Int(i), this))
			if err != nil {
				return value.Undefined(), err
			}
			if !r.ToBool() {
				return value.Bool(false), nil
			}
		}
		return value.Bool(true), nil
	},
	"some": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a, thr := thisArray(this)
		if thr != nil {
			return value.Undefined(), thr
		}
		fn := Arg(args, 0)
		var cb callbackArgs
		for i, e := range a.Elems {
			r, err := c.CallFunction(fn, value.Undefined(), cb.set(e, value.Int(i), this))
			if err != nil {
				return value.Undefined(), err
			}
			if r.ToBool() {
				return value.Bool(true), nil
			}
		}
		return value.Bool(false), nil
	},
}

func sliceIndex(v value.Value, def, n int) int {
	if v.IsUndefined() {
		return def
	}
	i := int(v.ToNumber())
	if i < 0 {
		i += n
	}
	if i < 0 {
		i = 0
	}
	if i > n {
		i = n
	}
	return i
}

// stringMember resolves property/method access on string primitives.
func (in *Interp) stringMember(s, key string) value.Value {
	switch key {
	case "length":
		return value.Int(len(s))
	}
	if i, ok := value.ArrayIndex(key); ok {
		if i < len(s) {
			return value.String(s[i : i+1])
		}
		return value.Undefined()
	}
	m, _ := in.method(&stringMethods, key)
	return m
}

func thisString(this value.Value) string { return this.ToString() }

var stringMethods = map[string]value.NativeFn{
	"charAt": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		s := thisString(this)
		i := int(Arg(args, 0).ToNumber())
		if i < 0 || i >= len(s) {
			return value.String(""), nil
		}
		return value.String(s[i : i+1]), nil
	},
	"charCodeAt": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		s := thisString(this)
		i := int(Arg(args, 0).ToNumber())
		if i < 0 || i >= len(s) {
			return value.Number(math.NaN()), nil
		}
		return value.Int(int(s[i])), nil
	},
	"indexOf": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Int(strings.Index(thisString(this), Arg(args, 0).ToString())), nil
	},
	"lastIndexOf": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Int(strings.LastIndex(thisString(this), Arg(args, 0).ToString())), nil
	},
	"substring": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		s := thisString(this)
		n := len(s)
		a := clampInt(int(Arg(args, 0).ToNumber()), 0, n)
		b := n
		if len(args) > 1 && !args[1].IsUndefined() {
			b = clampInt(int(args[1].ToNumber()), 0, n)
		}
		if a > b {
			a, b = b, a
		}
		return value.String(s[a:b]), nil
	},
	"substr": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		s := thisString(this)
		n := len(s)
		a := int(Arg(args, 0).ToNumber())
		if a < 0 {
			a += n
		}
		a = clampInt(a, 0, n)
		l := n - a
		if len(args) > 1 && !args[1].IsUndefined() {
			l = clampInt(int(args[1].ToNumber()), 0, n-a)
		}
		return value.String(s[a : a+l]), nil
	},
	"slice": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		s := thisString(this)
		n := len(s)
		a := sliceIndex(Arg(args, 0), 0, n)
		b := n
		if len(args) > 1 && !args[1].IsUndefined() {
			b = sliceIndex(args[1], n, n)
		}
		if a > b {
			a = b
		}
		return value.String(s[a:b]), nil
	},
	"split": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		s := thisString(this)
		sep := Arg(args, 0)
		var parts []string
		if sep.IsUndefined() {
			parts = []string{s}
		} else if sep.ToString() == "" {
			for i := 0; i < len(s); i++ {
				parts = append(parts, s[i:i+1])
			}
		} else {
			parts = strings.Split(s, sep.ToString())
		}
		elems := make([]value.Value, len(parts))
		for i, p := range parts {
			elems[i] = value.String(p)
		}
		out := value.NewArray(elems...)
		objectNew(c, out)
		return value.ObjectVal(out), nil
	},
	"toUpperCase": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.String(strings.ToUpper(thisString(this))), nil
	},
	"toLowerCase": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.String(strings.ToLower(thisString(this))), nil
	},
	"trim": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.String(strings.TrimSpace(thisString(this))), nil
	},
	"replace": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		// non-regex single replacement, like JS with a string pattern
		s := thisString(this)
		return value.String(strings.Replace(s, Arg(args, 0).ToString(), Arg(args, 1).ToString(), 1)), nil
	},
	"concat": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		s := thisString(this)
		for _, a := range args {
			s += a.ToString()
		}
		return value.String(s), nil
	},
	"toString": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.String(thisString(this)), nil
	},
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// numberMethods implements the Number.prototype subset.
var numberMethods = map[string]value.NativeFn{
	"toFixed": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		digits := int(Arg(args, 0).ToNumber())
		return value.String(strconv.FormatFloat(this.ToNumber(), 'f', digits, 64)), nil
	},
	"toString": func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		if len(args) > 0 && !args[0].IsUndefined() {
			base := int(args[0].ToNumber())
			if base >= 2 && base <= 36 {
				return value.String(strconv.FormatInt(int64(this.ToNumber()), base)), nil
			}
		}
		return value.String(this.ToString()), nil
	},
}
