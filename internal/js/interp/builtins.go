package interp

import (
	"math"
	"slices"
	"strings"

	"repro/internal/js/value"
)

// installGlobals wires the standard library into the global scope:
// Math, console, performance (virtual high-resolution timer, cf. the
// paper's use of the HR-time API in §3.1), constructors, and the usual
// top-level conversion functions.
func (in *Interp) installGlobals() {
	// Pristine snapshots must be taken eagerly, at install time: a lazy
	// snapshot on first use would bake any earlier user mutation into
	// the baseline and defeat GlobalIsPristine.
	in.pristine = make(map[string]value.Value, 24)
	in.pristineProps = make(map[string]map[string]value.Value, 8)
	g := func(name string, v value.Value) {
		in.Globals.declare(name, v)
		in.pristine[name] = v
		if v.IsObject() {
			o := v.Object()
			snap := make(map[string]value.Value, o.NumProps())
			for _, k := range o.OwnKeys() {
				pv, _ := o.GetOwn(k)
				snap[k] = pv
			}
			in.pristineProps[name] = snap
		}
	}
	native := func(name string, fn value.NativeFn) value.Value {
		return value.ObjectVal(value.NewNative(name, fn))
	}

	// ---- Math ----
	m := value.NewObject()
	m.Set("PI", value.Number(math.Pi))
	m.Set("E", value.Number(math.E))
	m.Set("LN2", value.Number(math.Ln2))
	m.Set("SQRT2", value.Number(math.Sqrt2))
	m1 := func(name string, f func(float64) float64) {
		m.Set(name, native("Math."+name, func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			return value.Number(f(Arg(args, 0).ToNumber())), nil
		}))
	}
	m1("abs", math.Abs)
	m1("floor", math.Floor)
	m1("ceil", math.Ceil)
	m1("sqrt", math.Sqrt)
	m1("sin", math.Sin)
	m1("cos", math.Cos)
	m1("tan", math.Tan)
	m1("asin", math.Asin)
	m1("acos", math.Acos)
	m1("atan", math.Atan)
	m1("exp", math.Exp)
	m1("log", math.Log)
	m1("round", func(f float64) float64 { return math.Floor(f + 0.5) })
	m.Set("pow", native("Math.pow", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Number(math.Pow(Arg(args, 0).ToNumber(), Arg(args, 1).ToNumber())), nil
	}))
	m.Set("atan2", native("Math.atan2", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Number(math.Atan2(Arg(args, 0).ToNumber(), Arg(args, 1).ToNumber())), nil
	}))
	m.Set("min", native("Math.min", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			f := a.ToNumber()
			if math.IsNaN(f) {
				return value.Number(math.NaN()), nil
			}
			if f < out {
				out = f
			}
		}
		return value.Number(out), nil
	}))
	m.Set("max", native("Math.max", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			f := a.ToNumber()
			if math.IsNaN(f) {
				return value.Number(math.NaN()), nil
			}
			if f > out {
				out = f
			}
		}
		return value.Number(out), nil
	}))
	m.Set("random", native("Math.random", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Number(in.Random()), nil
	}))
	g("Math", value.ObjectVal(m))

	// ---- console ----
	console := value.NewObject()
	logFn := native("console.log", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.ToString()
		}
		if len(in.console) < in.consoleCap {
			in.console = append(in.console, strings.Join(parts, " "))
		}
		return value.Undefined(), nil
	})
	console.Set("log", logFn)
	console.Set("warn", logFn)
	console.Set("error", logFn)
	g("console", value.ObjectVal(console))

	// ---- performance.now (virtual clock, ms with ns precision) ----
	perf := value.NewObject()
	perf.Set("now", native("performance.now", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Number(float64(in.Now()) / 1e6), nil
	}))
	g("performance", value.ObjectVal(perf))

	// ---- Date.now ----
	date := value.NewNative("Date", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		o := in.NewObject()
		o.Set("getTime", native("getTime", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			return value.Number(float64(in.Now()) / 1e6), nil
		}))
		return value.ObjectVal(o), nil
	})
	date.Set("now", native("Date.now", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Number(float64(in.Now()) / 1e6), nil
	}))
	g("Date", value.ObjectVal(date))

	// ---- conversions ----
	g("parseInt", native("parseInt", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Number(value.ParseInt(Arg(args, 0).ToString(), Arg(args, 1).ToInt32())), nil
	}))
	g("parseFloat", native("parseFloat", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Number(value.ParseFloat(Arg(args, 0).ToString())), nil
	}))
	g("isNaN", native("isNaN", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Bool(math.IsNaN(Arg(args, 0).ToNumber())), nil
	}))
	g("isFinite", native("isFinite", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		f := Arg(args, 0).ToNumber()
		return value.Bool(!math.IsNaN(f) && !math.IsInf(f, 0)), nil
	}))
	g("NaN", value.Number(math.NaN()))
	g("Infinity", value.Number(math.Inf(1)))

	// ---- constructors ----
	arrayCtor := value.NewNative("Array", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		if len(args) == 1 && args[0].IsNumber() {
			// A length is a uint32 (ES5 §15.4.2.2): -1, NaN, ±Infinity,
			// 1.5 and 2^32 are not one.
			n := args[0].ToNumber()
			if float64(args[0].ToUint32()) != n {
				in.throwError("RangeError", "Invalid array length")
			}
			return value.ObjectVal(in.NewArray(make([]value.Value, int(n))...)), nil
		}
		// The array keeps its elements: copy them out of the window.
		return value.ObjectVal(in.NewArray(slices.Clone(args)...)), nil
	})
	arrayCtor.Set("isArray", native("Array.isArray", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a := Arg(args, 0)
		return value.Bool(a.IsObject() && a.Object().IsArray()), nil
	}))
	g("Array", value.ObjectVal(arrayCtor))

	objectCtor := value.NewNative("Object", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.ObjectVal(in.NewObject()), nil
	})
	objectCtor.Set("keys", native("Object.keys", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		a := Arg(args, 0)
		if !a.IsObject() {
			return value.ObjectVal(in.NewArray()), nil
		}
		keys := a.Object().OwnKeys()
		elems := make([]value.Value, len(keys))
		for i, k := range keys {
			elems[i] = value.String(k)
		}
		return value.ObjectVal(in.NewArray(elems...)), nil
	}))
	objectCtor.Set("create", native("Object.create", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		o := in.NewObject()
		if p := Arg(args, 0); p.IsObject() {
			o.Proto = p.Object()
		}
		return value.ObjectVal(o), nil
	}))
	g("Object", value.ObjectVal(objectCtor))

	stringCtor := value.NewNative("String", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.String(Arg(args, 0).ToString()), nil
	})
	stringCtor.Set("fromCharCode", native("String.fromCharCode", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		var sb strings.Builder
		for _, a := range args {
			sb.WriteByte(byte(int(a.ToNumber())))
		}
		return value.String(sb.String()), nil
	}))
	g("String", value.ObjectVal(stringCtor))

	g("Number", native("Number", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Number(Arg(args, 0).ToNumber()), nil
	}))
	g("Boolean", native("Boolean", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		return value.Bool(Arg(args, 0).ToBool()), nil
	}))
	g("Error", native("Error", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		o := in.newObjectOfClass(value.ClassError)
		o.Set("name", value.String("Error"))
		o.Set("message", value.String(Arg(args, 0).ToString()))
		return value.ObjectVal(o), nil
	}))
}
