// Package value implements the dynamic value model of the JavaScript
// subset: undefined, null, booleans, IEEE-754 numbers, strings, and
// heap objects (plain objects, arrays, functions).
//
// Values are small tagged structs (not interfaces) so that arithmetic in
// the interpreter does not allocate. A Value is 24 bytes: one pointer
// word, one payload word and the kind. For a number the payload is its
// float64 bits, for a boolean 0 or 1, and for a string its byte length
// with the pointer at its bytes; an object is its *Object in the pointer
// word. Three rules keep that layout safe:
//
//   - The accessors (Num, Str, Object) return the zero value
//     unless the kind matches, so no caller reads one kind's payload as
//     another's.
//   - Values are not comparable: == would compare a string's data
//     pointer rather than its contents, so it does not compile. Use
//     StrictEquals or SameValue.
//   - unsafe is confined to this file; no other package file imports it.
//
// Heap objects carry an opaque Aux slot that JS-CERES uses for creation
// stamps — the Go analogue of the paper's ES-Proxy wrapping (§3.3).
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic types of the language.
type Kind uint8

// The dynamic types.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
)

func (k Kind) String() string {
	switch k {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		return "object"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single JavaScript value. See the package comment for its
// layout.
type Value struct {
	_    [0]func() // not comparable
	ptr  unsafe.Pointer
	bits uint64
	kind Kind
}

// Payload readers for code that has already switched on the kind.

func (v Value) num() float64 { return math.Float64frombits(v.bits) }
func (v Value) b() bool      { return v.bits != 0 }
func (v Value) str() string  { return unsafe.String((*byte)(v.ptr), int(v.bits)) }
func (v Value) obj() *Object { return (*Object)(v.ptr) }

// Constructors.

// Undefined returns the undefined value.
func Undefined() Value { return Value{kind: KindUndefined} }

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, bits: 1}
	}
	return Value{kind: KindBool}
}

// Number returns a numeric value.
func Number(f float64) Value { return Value{kind: KindNumber, bits: math.Float64bits(f)} }

// Int returns a numeric value from an int.
func Int(i int) Value { return Number(float64(i)) }

// String returns a string value. An empty one keeps no pointer, so it
// never holds a parent string's bytes alive.
func String(s string) Value {
	if len(s) == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, ptr: unsafe.Pointer(unsafe.StringData(s)), bits: uint64(len(s))}
}

// ObjectVal wraps a heap object.
func ObjectVal(o *Object) Value {
	if o == nil {
		return Null()
	}
	return Value{kind: KindObject, ptr: unsafe.Pointer(o)}
}

// Accessors.

// Kind reports the dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether v is undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsNullish reports undefined-or-null.
func (v Value) IsNullish() bool { return v.kind == KindUndefined || v.kind == KindNull }

// IsNumber reports whether v is a number.
func (v Value) IsNumber() bool { return v.kind == KindNumber }

// IsString reports whether v is a string.
func (v Value) IsString() bool { return v.kind == KindString }

// IsObject reports whether v is a heap object.
func (v Value) IsObject() bool { return v.kind == KindObject }

// Num returns the float64 payload (0 unless KindNumber).
func (v Value) Num() float64 {
	if v.kind != KindNumber {
		return 0
	}
	return v.num()
}

// Str returns the string payload ("" unless KindString).
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return v.str()
}

// Object returns the heap object (nil unless KindObject).
func (v Value) Object() *Object {
	if v.kind != KindObject {
		return nil
	}
	return v.obj()
}

// IsCallable reports whether v is a function object.
func (v Value) IsCallable() bool { return v.kind == KindObject && v.obj() != nil && v.obj().Fn != nil }

// String renders v for %v and test failures; it is Inspect.
func (v Value) String() string { return v.Inspect() }

// ---- Coercions (ES5 semantics for the subset) ----

// ToBool implements ToBoolean.
func (v Value) ToBool() bool {
	switch v.kind {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.b()
	case KindNumber:
		return v.num() != 0 && !math.IsNaN(v.num())
	case KindString:
		return v.str() != ""
	default:
		return true
	}
}

// ToNumber implements ToNumber.
func (v Value) ToNumber() float64 {
	switch v.kind {
	case KindUndefined:
		return math.NaN()
	case KindNull:
		return 0
	case KindBool:
		if v.b() {
			return 1
		}
		return 0
	case KindNumber:
		return v.num()
	case KindString:
		return stringToNumber(v.str())
	default:
		// object: ToPrimitive via ToString for arrays, NaN otherwise
		if v.obj() != nil && v.obj().Class == ClassArray {
			return stringToNumber(v.ToString())
		}
		return math.NaN()
	}
}

// ToString implements ToString.
func (v Value) ToString() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		if v.b() {
			return "true"
		}
		return "false"
	case KindNumber:
		return FormatNumber(v.num())
	case KindString:
		return v.str()
	default:
		return v.obj().toDisplayString(0)
	}
}

// FormatNumber renders a float64 the way JavaScript's ToString does
// (ES5 §9.8.1): integers below 1e21 without a decimal point, "0" for
// either zero, NaN/Infinity spelled out, and any other number from its
// shortest round-tripping digits — in fixed notation when its decimal
// exponent n (value = 0.d₁d₂… × 10ⁿ) satisfies -6 < n ≤ 21, and as
// d.ddde±x otherwise.
func FormatNumber(f float64) string {
	switch {
	case f == 0:
		return "0"
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e21:
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	s := strconv.FormatFloat(f, 'e', -1, 64) // [-]d[.ddd]e±xx
	sign := ""
	if s[0] == '-' {
		sign, s = "-", s[1:]
	}
	e := strings.IndexByte(s, 'e')
	exp, _ := strconv.Atoi(s[e+1:])
	digits := strings.Replace(s[:e], ".", "", 1)
	// Integers with n ≤ 21 took the branch above, so here a fixed layout
	// always has digits after the point.
	switch n := exp + 1; {
	case 0 < n && n <= 21:
		return sign + digits[:n] + "." + digits[n:]
	case -6 < n && n <= 0:
		return sign + "0." + strings.Repeat("0", -n) + digits
	}
	mant := digits[:1]
	if len(digits) > 1 {
		mant += "." + digits[1:]
	}
	esign := "+"
	if exp < 0 {
		esign, exp = "-", -exp
	}
	return sign + mant + "e" + esign + strconv.Itoa(exp)
}

// Int32 is ToInt32 on a number: NaN and ±Infinity give 0, any other
// value truncates toward zero and wraps modulo 2³² into the int32 range.
func Int32(f float64) int32 {
	if -1<<63 <= f && f < 1<<63 { // false for NaN and ±Infinity
		return int32(int64(f))
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	// |f| ≥ 2⁶³ is an integer; fmod is exact and leaves |f| < 2³².
	return int32(int64(math.Mod(f, 1<<32)))
}

// ToInt32 implements ToInt32 (for bitwise operators).
func (v Value) ToInt32() int32 { return Int32(v.ToNumber()) }

// ToUint32 implements ToUint32 (for >>>): the same 32 bits as ToInt32,
// read unsigned.
func (v Value) ToUint32() uint32 { return uint32(Int32(v.ToNumber())) }

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		if v.IsCallable() {
			return "function"
		}
		return "object"
	}
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return a.b() == b.b()
	case KindNumber:
		return a.num() == b.num() // NaN !== NaN falls out naturally
	case KindString:
		return a.str() == b.str()
	default:
		return a.obj() == b.obj()
	}
}

// SameValue implements the ES SameValue comparison: like StrictEquals
// except NaN equals NaN and +0 does not equal -0 — the comparison
// analyzers need when "the same bits" is the question (pristine-global
// detection, misspeculation checks).
func SameValue(a, b Value) bool {
	if a.kind == KindNumber && b.kind == KindNumber {
		x, y := a.num(), b.num()
		if x == y {
			return math.Signbit(x) == math.Signbit(y)
		}
		return x != x && y != y
	}
	return StrictEquals(a, b)
}

// LooseEquals implements == for the subset.
func LooseEquals(a, b Value) bool {
	if a.kind == b.kind {
		return StrictEquals(a, b)
	}
	switch {
	case a.IsNullish() && b.IsNullish():
		return true
	case a.kind == KindNumber && b.kind == KindString:
		return a.num() == b.ToNumber()
	case a.kind == KindString && b.kind == KindNumber:
		return a.ToNumber() == b.num()
	case a.kind == KindBool:
		return LooseEquals(Number(a.ToNumber()), b)
	case b.kind == KindBool:
		return LooseEquals(a, Number(b.ToNumber()))
	case (a.kind == KindNumber || a.kind == KindString) && b.kind == KindObject:
		return LooseEquals(a, String(b.ToString()))
	case a.kind == KindObject && (b.kind == KindNumber || b.kind == KindString):
		return LooseEquals(String(a.ToString()), b)
	}
	return false
}

// ---- Objects ----

// Object classes.
const (
	ClassObject   = "Object"
	ClassArray    = "Array"
	ClassFunction = "Function"
	ClassError    = "Error"
	ClassHost     = "Host" // DOM nodes, canvas contexts, ...
)

// Caller abstracts the interpreter so native functions can call back into
// JavaScript (e.g. Array.prototype.map invoking its callback).
type Caller interface {
	CallFunction(fn Value, this Value, args []Value) (Value, error)
}

// NativeFn is a builtin implemented in Go.
type NativeFn func(c Caller, this Value, args []Value) (Value, error)

// Function is the callable payload of a function object.
type Function struct {
	Name   string
	Params []string
	// Decl and Env drive interpreted functions; Env is the defining scope
	// (*interp.Scope, opaque here to break the import cycle).
	Decl any
	Env  any
	// Compiled is the pre-resolved compiled form of Decl (*interp.cfunc,
	// opaque here like Env); the interpreter calls through it.
	Compiled any
	// Native, when non-nil, short-circuits interpretation.
	Native NativeFn
}

// Object is a heap object: plain object, array, function, or host object.
type Object struct {
	Class string
	Fn    *Function
	Proto *Object

	props map[string]Value
	keys  []string // insertion order, for for-in and display

	// Elems is the dense element storage for arrays.
	Elems []Value

	// Host points at a substrate-side peer (DOM node, canvas context...).
	Host any

	// Aux is reserved for JS-CERES: the creation-stamp and per-property
	// write-stamp records live here so the analyzer can find them in O(1).
	Aux any
}

// NewObject returns an empty plain object.
func NewObject() *Object {
	return &Object{Class: ClassObject}
}

// NewArray returns an array object with the given elements.
func NewArray(elems ...Value) *Object {
	return &Object{Class: ClassArray, Elems: elems}
}

// NewFunction returns an interpreted function object.
func NewFunction(name string, params []string, decl, env any) *Object {
	return &Object{Class: ClassFunction, Fn: &Function{Name: name, Params: params, Decl: decl, Env: env}}
}

// NewNative returns a builtin function object.
func NewNative(name string, fn NativeFn) *Object {
	return &Object{Class: ClassFunction, Fn: &Function{Name: name, Native: fn}}
}

// IsArray reports whether the object is an array.
func (o *Object) IsArray() bool { return o.Class == ClassArray }

// ArrayIndex parses key as a canonical array index, returning (i, true)
// when it is one. String indexing ("abc"[k]) uses the same rule.
func ArrayIndex(key string) (int, bool) {
	if key == "" || len(key) > 10 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if len(key) > 1 && key[0] == '0' {
		return 0, false
	}
	return n, true
}

// Get looks a property up, following the prototype chain.
func (o *Object) Get(key string) (Value, bool) {
	if o.IsArray() {
		if key == "length" {
			return Int(len(o.Elems)), true
		}
		if i, ok := ArrayIndex(key); ok {
			if i < len(o.Elems) {
				return o.Elems[i], true
			}
			return Undefined(), false
		}
	}
	if o.props != nil {
		if v, ok := o.props[key]; ok {
			return v, true
		}
	}
	if o.Proto != nil {
		return o.Proto.Get(key)
	}
	return Undefined(), false
}

// GetOwn looks a property up without the prototype chain.
func (o *Object) GetOwn(key string) (Value, bool) {
	if o.IsArray() {
		if key == "length" {
			return Int(len(o.Elems)), true
		}
		if i, ok := ArrayIndex(key); ok {
			if i < len(o.Elems) {
				return o.Elems[i], true
			}
			return Undefined(), false
		}
	}
	if o.props != nil {
		v, ok := o.props[key]
		return v, ok
	}
	return Undefined(), false
}

// Set stores a property on the object itself.
func (o *Object) Set(key string, v Value) {
	if o.IsArray() {
		if key == "length" {
			n := int(v.ToNumber())
			if n < 0 {
				n = 0
			}
			for len(o.Elems) < n {
				o.Elems = append(o.Elems, Undefined())
			}
			o.Elems = o.Elems[:n]
			return
		}
		if i, ok := ArrayIndex(key); ok {
			for len(o.Elems) <= i {
				o.Elems = append(o.Elems, Undefined())
			}
			o.Elems[i] = v
			return
		}
	}
	if o.props == nil {
		o.props = make(map[string]Value, 8)
	}
	if _, exists := o.props[key]; !exists {
		o.keys = append(o.keys, key)
	}
	o.props[key] = v
}

// Delete removes an own property; it reports whether it existed.
func (o *Object) Delete(key string) bool {
	if o.IsArray() {
		if i, ok := ArrayIndex(key); ok && i < len(o.Elems) {
			o.Elems[i] = Undefined()
			return true
		}
	}
	if o.props == nil {
		return false
	}
	if _, ok := o.props[key]; !ok {
		return false
	}
	delete(o.props, key)
	for i, k := range o.keys {
		if k == key {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
	return true
}

// Has reports whether key resolves on o or its prototype chain.
func (o *Object) Has(key string) bool {
	_, ok := o.Get(key)
	if ok {
		return true
	}
	if o.IsArray() && key == "length" {
		return true
	}
	return false
}

// OwnKeys returns the enumerable own keys in for-in order: array indices
// first, then named properties in insertion order.
func (o *Object) OwnKeys() []string {
	var out []string
	if o.IsArray() {
		for i := range o.Elems {
			out = append(out, strconv.Itoa(i))
		}
	}
	out = append(out, o.keys...)
	return out
}

// NumProps returns the number of own named properties.
func (o *Object) NumProps() int { return len(o.keys) }

func (o *Object) toDisplayString(depth int) string {
	if o == nil {
		return "null"
	}
	if o.Fn != nil {
		if o.Fn.Name != "" {
			return "function " + o.Fn.Name
		}
		return "function"
	}
	if depth > 2 {
		return "..."
	}
	if o.IsArray() {
		var sb strings.Builder
		for i, e := range o.Elems {
			if i > 0 {
				sb.WriteByte(',')
			}
			if e.IsNullish() {
				continue
			}
			if e.kind == KindObject {
				sb.WriteString(e.obj().toDisplayString(depth + 1))
			} else {
				sb.WriteString(e.ToString())
			}
		}
		return sb.String()
	}
	return "[object " + o.Class + "]"
}

// Inspect renders a debugging view of the value (object literals expanded
// one level).
func (v Value) Inspect() string {
	if v.kind != KindObject {
		if v.kind == KindString {
			return strconv.Quote(v.str())
		}
		return v.ToString()
	}
	o := v.obj()
	if o.Fn != nil {
		return v.ToString()
	}
	if o.IsArray() {
		var sb strings.Builder
		sb.WriteByte('[')
		for i, e := range o.Elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			if i > 16 {
				sb.WriteString("...")
				break
			}
			sb.WriteString(e.Inspect())
		}
		sb.WriteByte(']')
		return sb.String()
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range o.keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		if i > 16 {
			sb.WriteString("...")
			break
		}
		sb.WriteString(k)
		sb.WriteString(": ")
		pv := o.props[k]
		if pv.kind == KindObject && pv.obj().Fn == nil {
			sb.WriteString("{...}")
		} else {
			sb.WriteString(pv.Inspect())
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
