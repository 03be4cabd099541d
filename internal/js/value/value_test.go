package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCoercionsToBool(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Undefined(), false},
		{Null(), false},
		{Bool(true), true},
		{Bool(false), false},
		{Number(0), false},
		{Number(math.NaN()), false},
		{Number(1), true},
		{Number(-0.5), true},
		{String(""), false},
		{String("0"), true}, // non-empty strings are truthy, even "0"
		{ObjectVal(NewObject()), true},
		{ObjectVal(NewArray()), true},
	}
	for _, c := range cases {
		if got := c.v.ToBool(); got != c.want {
			t.Errorf("ToBool(%s) = %v, want %v", c.v.Inspect(), got, c.want)
		}
	}
}

func TestCoercionsToNumber(t *testing.T) {
	if !math.IsNaN(Undefined().ToNumber()) {
		t.Error("undefined -> NaN")
	}
	if Null().ToNumber() != 0 {
		t.Error("null -> 0")
	}
	if Bool(true).ToNumber() != 1 || Bool(false).ToNumber() != 0 {
		t.Error("bool coercion")
	}
	if String("  42 ").ToNumber() != 42 {
		t.Error("string trim")
	}
	if String("").ToNumber() != 0 {
		t.Error("empty string -> 0")
	}
	if String("0x10").ToNumber() != 16 {
		t.Error("hex string")
	}
	if !math.IsNaN(String("12px").ToNumber()) {
		t.Error("junk suffix -> NaN (unlike parseInt)")
	}
}

func TestToString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Number(1), "1"},
		{Number(1.5), "1.5"},
		{Number(-0.25), "-0.25"},
		{Number(math.Copysign(0, -1)), "0"},
		{Number(1e21), "1e+21"},
		{Number(2.5e25), "2.5e+25"},
		{Number(1234567.5), "1234567.5"},
		{Number(0.00001), "0.00001"},
		{Number(1e-7), "1e-7"},
		{Number(123456789.125), "123456789.125"},
		{Number(-0.0000123), "-0.0000123"},
		{Number(1.5e-10), "1.5e-10"},
		{Number(0.000001), "0.000001"},
		{Number(1e20), "100000000000000000000"},
		{Number(123456789012345680000.5), "123456789012345680000"},
		{Number(-1.5e300), "-1.5e+300"},
		{Number(math.NaN()), "NaN"},
		{Number(math.Inf(1)), "Infinity"},
		{Number(math.Inf(-1)), "-Infinity"},
		{Bool(true), "true"},
		{Undefined(), "undefined"},
		{Null(), "null"},
		{ObjectVal(NewArray(Int(1), Int(2))), "1,2"},
		{ObjectVal(NewObject()), "[object Object]"},
	}
	for _, c := range cases {
		if got := c.v.ToString(); got != c.want {
			t.Errorf("ToString = %q, want %q", got, c.want)
		}
	}
}

func TestInt32Semantics(t *testing.T) {
	if Number(2.9).ToInt32() != 2 || Number(-2.9).ToInt32() != -2 {
		t.Error("truncation")
	}
	if Number(math.NaN()).ToInt32() != 0 || Number(math.Inf(1)).ToInt32() != 0 {
		t.Error("NaN/Inf -> 0")
	}
	if Number(4294967296+5).ToInt32() != 5 {
		t.Error("wraparound")
	}
	if Number(-1).ToUint32() != 4294967295 {
		t.Error("uint32 of -1")
	}
	// Beyond ±2⁶³ the value still wraps modulo 2³²: 1e20 | 0, -1e20 | 0,
	// 1e20 >>> 0 and 1.5e19 | 0 as JavaScript evaluates them.
	for _, c := range []struct {
		f     float64
		int32 int32
	}{
		{1e20, 1661992960},
		{-1e20, -1661992960},
		{1.5e19, -824442880},
		{-1.5e19, 824442880},
		{1 << 63, 0},
		{-1 << 63, 0},
		{1e300, 0},
		{4294967296 * 3.5, -2147483648},
	} {
		if got := Number(c.f).ToInt32(); got != c.int32 {
			t.Errorf("ToInt32(%g) = %d, want %d", c.f, got, c.int32)
		}
		if got := Int32(c.f); got != c.int32 {
			t.Errorf("Int32(%g) = %d, want %d", c.f, got, c.int32)
		}
	}
	if got := Number(1e20).ToUint32(); got != 1661992960 {
		t.Errorf("ToUint32(1e20) = %d, want 1661992960", got)
	}
	if got := Number(-1e20).ToUint32(); got != 2632974336 {
		t.Errorf("ToUint32(-1e20) = %d, want 2632974336", got)
	}
}

func TestStrictVsLooseEquality(t *testing.T) {
	if !LooseEquals(Number(1), String("1")) {
		t.Error(`1 == "1"`)
	}
	if StrictEquals(Number(1), String("1")) {
		t.Error(`1 === "1" must be false`)
	}
	if !LooseEquals(Null(), Undefined()) {
		t.Error("null == undefined")
	}
	if StrictEquals(Null(), Undefined()) {
		t.Error("null === undefined must be false")
	}
	if !LooseEquals(Bool(true), Number(1)) {
		t.Error("true == 1")
	}
	o := NewObject()
	if !StrictEquals(ObjectVal(o), ObjectVal(o)) {
		t.Error("object identity")
	}
	if StrictEquals(ObjectVal(NewObject()), ObjectVal(NewObject())) {
		t.Error("distinct objects")
	}
	arr := NewArray(Int(1))
	if !LooseEquals(ObjectVal(arr), String("1")) {
		t.Error(`[1] == "1" (ToPrimitive)`)
	}
}

func TestEqualityProperties(t *testing.T) {
	gen := func(tag uint8, f float64, s string) Value {
		switch tag % 6 {
		case 0:
			return Undefined()
		case 1:
			return Null()
		case 2:
			return Bool(f > 0)
		case 3:
			return Number(f)
		case 4:
			return String(s)
		default:
			return ObjectVal(NewArray(Number(f)))
		}
	}
	// strict equality is symmetric
	sym := func(ta, tb uint8, fa, fb float64, sa, sb string) bool {
		a, b := gen(ta, fa, sa), gen(tb, fb, sb)
		return StrictEquals(a, b) == StrictEquals(b, a) &&
			LooseEquals(a, b) == LooseEquals(b, a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
	// strict implies loose
	impl := func(ta, tb uint8, fa, fb float64, sa, sb string) bool {
		a, b := gen(ta, fa, sa), gen(tb, fb, sb)
		if StrictEquals(a, b) {
			return LooseEquals(a, b)
		}
		return true
	}
	if err := quick.Check(impl, nil); err != nil {
		t.Error(err)
	}
}

func TestObjectProperties(t *testing.T) {
	o := NewObject()
	o.Set("a", Int(1))
	o.Set("b", Int(2))
	o.Set("a", Int(3)) // overwrite keeps insertion order
	if v, ok := o.Get("a"); !ok || v.Num() != 3 {
		t.Error("get a")
	}
	keys := o.OwnKeys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("keys = %v", keys)
	}
	if !o.Delete("a") || o.Delete("a") {
		t.Error("delete semantics")
	}
	if _, ok := o.Get("a"); ok {
		t.Error("a still present")
	}
	if o.NumProps() != 1 {
		t.Errorf("props = %d", o.NumProps())
	}
}

func TestPrototypeChain(t *testing.T) {
	proto := NewObject()
	proto.Set("shared", Int(7))
	o := NewObject()
	o.Proto = proto
	if v, ok := o.Get("shared"); !ok || v.Num() != 7 {
		t.Error("prototype lookup")
	}
	if _, ok := o.GetOwn("shared"); ok {
		t.Error("GetOwn must not follow the chain")
	}
	o.Set("shared", Int(8)) // shadow
	if v, _ := o.Get("shared"); v.Num() != 8 {
		t.Error("shadowing")
	}
	if v, _ := proto.Get("shared"); v.Num() != 7 {
		t.Error("prototype mutated by shadowing write")
	}
}

func TestArraySemantics(t *testing.T) {
	a := NewArray(Int(10), Int(20))
	if v, _ := a.Get("length"); v.Num() != 2 {
		t.Error("length")
	}
	a.Set("5", Int(99)) // grows with undefined holes
	if v, _ := a.Get("length"); v.Num() != 6 {
		t.Error("grow via index")
	}
	if v, _ := a.Get("3"); !v.IsUndefined() {
		t.Error("hole must be undefined")
	}
	a.Set("length", Int(1)) // truncate
	if len(a.Elems) != 1 || a.Elems[0].Num() != 10 {
		t.Errorf("truncate: %v", a.Elems)
	}
	// non-index keys become named props
	a.Set("name", String("arr"))
	if v, _ := a.Get("name"); v.Str() != "arr" {
		t.Error("named prop on array")
	}
	// canonical indices only: "01" is a named property
	a.Set("01", Int(5))
	if len(a.Elems) != 1 {
		t.Error(`"01" treated as index`)
	}
}

func TestArrayIndexParsing(t *testing.T) {
	cases := map[string]bool{
		"0": true, "1": true, "42": true, "999999": true,
		"": false, "01": false, "-1": false, "1.5": false, "x": false,
		"12345678901": false, // too long
	}
	a := NewArrayN(0)
	for key, isIdx := range cases {
		a.Elems = a.Elems[:0]
		a.Set(key, Int(1))
		grew := len(a.Elems) > 0
		if grew != isIdx {
			t.Errorf("key %q treated as index=%v, want %v", key, grew, isIdx)
		}
		a.props = nil
		a.keys = nil
	}
}

func TestTypeOf(t *testing.T) {
	cases := map[string]Value{
		"undefined": Undefined(),
		"object":    Null(),
		"boolean":   Bool(true),
		"number":    Number(1),
		"string":    String("x"),
		"function":  ObjectVal(NewNative("f", nil)),
	}
	for want, v := range cases {
		if got := v.TypeOf(); got != want {
			t.Errorf("TypeOf(%s) = %q, want %q", v.Inspect(), got, want)
		}
	}
	if ObjectVal(NewObject()).TypeOf() != "object" {
		t.Error("plain object typeof")
	}
}

func TestFormatNumberProperty(t *testing.T) {
	// integers in safe range have no decimal point or exponent
	f := func(n int32) bool {
		s := FormatNumber(float64(n))
		for _, c := range s {
			if c == '.' || c == 'e' || c == 'E' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThrownError(t *testing.T) {
	thr := ThrowTypeError("bad receiver")
	if got := thr.Error(); got != "js: TypeError: bad receiver" {
		t.Errorf("Error() = %q", got)
	}
	plain := Throw(String("boom"))
	if got := plain.Error(); got != `js: uncaught boom` {
		t.Errorf("Error() = %q", got)
	}
}

func TestInspect(t *testing.T) {
	o := NewObject()
	o.Set("a", Int(1))
	o.Set("s", String("x"))
	if got := o; got == nil {
		t.Fatal("nil")
	}
	s := ObjectVal(o).Inspect()
	if s != `{a: 1, s: "x"}` {
		t.Errorf("Inspect = %q", s)
	}
	arr := ObjectVal(NewArray(Int(1), String("b"))).Inspect()
	if arr != `[1, "b"]` {
		t.Errorf("array Inspect = %q", arr)
	}
}
