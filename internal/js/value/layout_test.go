package value

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// parentString is a heap string whose contents are a function of i, so
// a test can drop it and rebuild what it held.
func parentString(i int) string {
	return strings.Repeat(string(rune('a'+i%26)), 48) + strconv.Itoa(i) + strings.Repeat("-", 16)
}

// stringValues builds Values from substrings and concatenations of
// parent strings and keeps nothing else: on return, each Value's pointer
// word is the only thing holding its bytes.
func stringValues(n int) ([]Value, *Object) {
	vals := make([]Value, 0, 4*n)
	arr := NewArray()
	for i := 0; i < n; i++ {
		p, q := parentString(i), parentString(i+1)
		vals = append(vals,
			String(p[8:40]),
			String(p[len(p)-5:]),
			String(p[:10]+q[len(q)-10:]),
			String(p[5:5]),
		)
		arr.Set(strconv.Itoa(i), String(q[40:]))
	}
	return vals, arr
}

// TestStringValueSurvivesGC holds that a string Value's data pointer
// keeps its bytes alive: substrings, concatenations and "" read back
// intact after their parents are dropped, collected and their memory
// reused.
func TestStringValueSurvivesGC(t *testing.T) {
	const n = 200
	vals, arr := stringValues(n)
	runtime.GC()
	var sink []string
	for k := 0; k < 4*n; k++ {
		sink = append(sink, strings.Repeat("z", 60+k%8))
	}
	runtime.GC()
	for i := 0; i < n; i++ {
		p, q := parentString(i), parentString(i+1)
		want := []string{p[8:40], p[len(p)-5:], p[:10] + q[len(q)-10:], ""}
		for j, w := range want {
			if got := vals[4*i+j].Str(); got != w {
				t.Fatalf("value %d of parent %d reads %q, want %q", j, i, got, w)
			}
		}
		if got := arr.Elems[i].Str(); got != q[40:] {
			t.Fatalf("array element %d reads %q, want %q", i, got, q[40:])
		}
	}
	runtime.KeepAlive(sink)
}

// plainDecimal reports whether s has only the bytes of a decimal
// literal. On such strings Go's float grammar and JavaScript's agree, so
// strconv is a reference for ToNumber.
func plainDecimal(s string) bool {
	for i := 0; i < len(s); i++ {
		if !strings.ContainsRune("0123456789.eE+-", rune(s[i])) {
			return false
		}
	}
	return s != ""
}

// sameBits is SameValue on float64s computed from their bits.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// FuzzValueRoundTrip holds each constructor's accessor, ToString,
// ToNumber, SameValue and StrictEquals to a reference computed from the
// plain Go value, for any float bits (NaN payloads and -0 included), any
// string and either bool; and every accessor of another kind reads zero.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(uint64(0), "", false)
	f.Add(uint64(1)<<63, "0", true)                 // -0
	f.Add(uint64(0x7ff8000000000001), "NaN", false) // NaN with a payload
	f.Add(math.Float64bits(math.Inf(-1)), "-Infinity", true)
	f.Add(math.Float64bits(1e21), " 0x10 ", false)
	f.Add(math.Float64bits(0.1), "héllo", true)
	f.Add(math.Float64bits(5e-324), "1e1000", false)
	f.Add(math.Float64bits(-1.5e-7), ".5e-3", true)
	f.Fuzz(func(t *testing.T, bits uint64, s string, b bool) {
		x := math.Float64frombits(bits)
		num := Number(x)
		if num.Kind() != KindNumber || math.Float64bits(num.Num()) != bits || math.Float64bits(num.ToNumber()) != bits {
			t.Fatalf("Number(%#x) reads back %#x", bits, math.Float64bits(num.Num()))
		}
		if num.ToString() != FormatNumber(x) || fmt.Sprint(num) != FormatNumber(x) {
			t.Fatalf("Number(%v) prints %q / %v", x, num.ToString(), num)
		}
		if num.ToBool() != (x != 0 && x == x) {
			t.Fatalf("ToBool(%v) = %v", x, num.ToBool())
		}
		// A number's string converts back to it (-0 prints as "0").
		if back := String(num.ToString()).ToNumber(); back != x && !(x != x && back != back) {
			t.Fatalf("ToNumber(%q) = %v, want %v", num.ToString(), back, x)
		}
		for _, y := range []float64{x, -x, 0, math.Float64frombits(bits ^ 1)} {
			if got := StrictEquals(num, Number(y)); got != (x == y) {
				t.Fatalf("StrictEquals(%v, %v) = %v", x, y, got)
			}
			if got := SameValue(num, Number(y)); got != sameBits(x, y) {
				t.Fatalf("SameValue(%v, %v) = %v", x, y, got)
			}
		}

		str := String(s)
		other := String(string([]byte(s))) // same contents, other bytes
		if str.Kind() != KindString || str.Str() != s || str.ToString() != s || fmt.Sprint(str) != strconv.Quote(s) {
			t.Fatalf("String(%q) reads back %q", s, str.Str())
		}
		if str.ToBool() != (s != "") {
			t.Fatalf("ToBool(%q) = %v", s, str.ToBool())
		}
		if !StrictEquals(str, other) || !SameValue(str, other) || StrictEquals(str, String(s+"\x00")) || StrictEquals(str, num) {
			t.Fatalf("string equality of %q", s)
		}
		if !sameBits(str.ToNumber(), other.ToNumber()) {
			t.Fatalf("ToNumber(%q) depends on where its bytes are", s)
		}
		if plainDecimal(s) {
			want, err := strconv.ParseFloat(s, 64)
			if err != nil && !errors.Is(err, strconv.ErrRange) {
				want = math.NaN()
			}
			if got := str.ToNumber(); !sameBits(got, want) {
				t.Fatalf("ToNumber(%q) = %v, want %v", s, got, want)
			}
		}
		if len(s) > 1 && String(s[1:]).Str() != s[1:] {
			t.Fatalf("String(%q[1:]) reads back %q", s, String(s[1:]).Str())
		}

		bv := Bool(b)
		if bv.Kind() != KindBool || bv.b() != b || bv.ToBool() != b || bv.ToString() != strconv.FormatBool(b) {
			t.Fatalf("Bool(%v) reads back %v", b, bv.b())
		}
		if n := bv.ToNumber(); (b && n != 1) || (!b && n != 0) {
			t.Fatalf("ToNumber(%v) = %v", b, n)
		}
		if !StrictEquals(bv, Bool(b)) || StrictEquals(bv, Bool(!b)) || StrictEquals(bv, num) {
			t.Fatalf("bool equality of %v", b)
		}

		for _, v := range []Value{num, str, bv, ObjectVal(NewObject()), Undefined(), Null()} {
			if (v.Kind() != KindNumber && v.Num() != 0) || (v.Kind() != KindString && v.Str() != "") ||
				(v.Kind() != KindObject && v.Object() != nil) {
				t.Fatalf("a %s reads another kind's payload", v.Kind())
			}
		}
	})
}
