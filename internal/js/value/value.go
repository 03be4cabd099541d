// Package value implements the dynamic value model of the JavaScript
// subset: undefined, null, booleans, IEEE-754 numbers, strings, and
// heap objects (plain objects, arrays, functions).
//
// Values are small tagged structs (not interfaces) so that arithmetic in
// the interpreter does not allocate. Heap objects carry an opaque Aux slot
// that JS-CERES uses for creation stamps — the Go analogue of the paper's
// ES-Proxy wrapping (§3.3).
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
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

// Value is a single JavaScript value.
type Value struct {
	kind Kind
	b    bool
	num  float64
	str  string
	obj  *Object
}

// Constructors.

// Undefined returns the undefined value.
func Undefined() Value { return Value{kind: KindUndefined} }

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Number returns a numeric value.
func Number(f float64) Value { return Value{kind: KindNumber, num: f} }

// Int returns a numeric value from an int.
func Int(i int) Value { return Value{kind: KindNumber, num: float64(i)} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// ObjectVal wraps a heap object.
func ObjectVal(o *Object) Value {
	if o == nil {
		return Null()
	}
	return Value{kind: KindObject, obj: o}
}

// Accessors.

// Kind reports the dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether v is undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNullish reports undefined-or-null.
func (v Value) IsNullish() bool { return v.kind == KindUndefined || v.kind == KindNull }

// IsNumber reports whether v is a number.
func (v Value) IsNumber() bool { return v.kind == KindNumber }

// IsString reports whether v is a string.
func (v Value) IsString() bool { return v.kind == KindString }

// IsObject reports whether v is a heap object.
func (v Value) IsObject() bool { return v.kind == KindObject }

// Num returns the float64 payload (0 unless KindNumber).
func (v Value) Num() float64 { return v.num }

// Str returns the string payload ("" unless KindString).
func (v Value) Str() string { return v.str }

// BoolVal returns the bool payload (false unless KindBool).
func (v Value) BoolVal() bool { return v.b }

// Object returns the heap object (nil unless KindObject).
func (v Value) Object() *Object { return v.obj }

// IsCallable reports whether v is a function object.
func (v Value) IsCallable() bool { return v.kind == KindObject && v.obj != nil && v.obj.Fn != nil }

// ---- Coercions (ES5 semantics for the subset) ----

// ToBool implements ToBoolean.
func (v Value) ToBool() bool {
	switch v.kind {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.b
	case KindNumber:
		return v.num != 0 && !math.IsNaN(v.num)
	case KindString:
		return v.str != ""
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
		if v.b {
			return 1
		}
		return 0
	case KindNumber:
		return v.num
	case KindString:
		s := strings.TrimSpace(v.str)
		if s == "" {
			return 0
		}
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			if n, err := strconv.ParseUint(s[2:], 16, 64); err == nil {
				return float64(n)
			}
			return math.NaN()
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
		return math.NaN()
	default:
		// object: ToPrimitive via ToString for arrays, NaN otherwise
		if v.obj != nil && v.obj.Class == ClassArray {
			return String(v.ToString()).ToNumber()
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
		if v.b {
			return "true"
		}
		return "false"
	case KindNumber:
		return FormatNumber(v.num)
	case KindString:
		return v.str
	default:
		return v.obj.toDisplayString(0)
	}
}

// FormatNumber renders a float64 the way JavaScript does for the common
// cases (integers without a decimal point, NaN/Infinity spellings).
func FormatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e21:
		return strconv.FormatFloat(f, 'f', -1, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// ToInt32 implements ToInt32 (for bitwise operators).
func (v Value) ToInt32() int32 {
	f := v.ToNumber()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(uint32(int64(math.Trunc(f))))
}

// ToUint32 implements ToUint32 (for >>>).
func (v Value) ToUint32() uint32 {
	f := v.ToNumber()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return uint32(int64(math.Trunc(f)))
}

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
		return a.b == b.b
	case KindNumber:
		return a.num == b.num // NaN !== NaN falls out naturally
	case KindString:
		return a.str == b.str
	default:
		return a.obj == b.obj
	}
}

// SameValue implements the ES SameValue comparison: like StrictEquals
// except NaN equals NaN and +0 does not equal -0 — the comparison
// analyzers need when "the same bits" is the question (pristine-global
// detection, misspeculation checks).
func SameValue(a, b Value) bool {
	if a.kind == KindNumber && b.kind == KindNumber {
		x, y := a.num, b.num
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
		return a.num == b.ToNumber()
	case a.kind == KindString && b.kind == KindNumber:
		return a.ToNumber() == b.num
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

// NewArrayN returns an array of n undefined elements.
func NewArrayN(n int) *Object {
	return &Object{Class: ClassArray, Elems: make([]Value, n)}
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

// arrayIndex parses key as a canonical array index, returning (i, true)
// when it is one.
func arrayIndex(key string) (int, bool) {
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
		if i, ok := arrayIndex(key); ok {
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

// GetNumber reads a property coerced to number (NaN-safe 0 when absent).
func (o *Object) GetNumber(key string) float64 {
	v, ok := o.Get(key)
	if !ok {
		return 0
	}
	return v.ToNumber()
}

// GetString reads a property coerced to string ("" when absent).
func (o *Object) GetString(key string) string {
	v, ok := o.Get(key)
	if !ok {
		return ""
	}
	return v.ToString()
}

// GetOwn looks a property up without the prototype chain.
func (o *Object) GetOwn(key string) (Value, bool) {
	if o.IsArray() {
		if key == "length" {
			return Int(len(o.Elems)), true
		}
		if i, ok := arrayIndex(key); ok {
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
		if i, ok := arrayIndex(key); ok {
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
		if i, ok := arrayIndex(key); ok && i < len(o.Elems) {
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

// SortedKeys returns own named keys sorted lexicographically (stable
// display order for reports).
func (o *Object) SortedKeys() []string {
	out := append([]string(nil), o.keys...)
	sort.Strings(out)
	return out
}

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
				sb.WriteString(e.obj.toDisplayString(depth + 1))
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
			return strconv.Quote(v.str)
		}
		return v.ToString()
	}
	o := v.obj
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
		if pv.kind == KindObject && pv.obj.Fn == nil {
			sb.WriteString("{...}")
		} else {
			sb.WriteString(pv.Inspect())
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
