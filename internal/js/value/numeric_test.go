package value

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseIntRadixes(t *testing.T) {
	for _, c := range []struct {
		s     string
		radix int32
		want  float64
	}{
		{"ff", 16, 255},
		{"0xFF", 0, 255},
		{"-0x10", 16, -16},
		{"0x_1", 16, math.NaN()},
		{"777", 8, 511},
		{"1010", 2, 10},
		{"zz", 36, 1295},
		{"129", 2, 1},
		{"20000000000001", 16, 1 << 53}, // 2^53+1 rounds to even
		{"20000000000003", 16, 1<<53 + 4},
		{"9007199254740993", 10, 1 << 53},
		{"12", 1, math.NaN()},
	} {
		if got := ParseInt(c.s, c.radix); !sameBits(got, c.want) {
			t.Errorf("ParseInt(%q, %d) = %v, want %v", c.s, c.radix, got, c.want)
		}
	}
	for _, c := range []struct {
		s    string
		want float64
	}{
		{"0x1f", 31},
		{"0x_1", math.NaN()},
		{"0x1_0", math.NaN()},
		{"0x1p3", math.NaN()},
		{"0x20000000000001", 1 << 53},
	} {
		if got := stringToNumber(c.s); !sameBits(got, c.want) {
			t.Errorf("ToNumber(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

// A script can hand Number, parseInt and parseFloat a string of many
// MiB, so each must cost time linear in its length.
func TestLongDigitStrings(t *testing.T) {
	const n = 4 << 20
	nines, effs := strings.Repeat("9", n), strings.Repeat("f", n)
	for _, c := range []struct {
		name string
		f    func() float64
		want float64
	}{
		{"ToNumber(hex)", func() float64 { return stringToNumber("0x" + effs) }, math.Inf(1)},
		{"ToNumber(decimal)", func() float64 { return stringToNumber(nines) }, math.Inf(1)},
		{"ToNumber(fraction)", func() float64 { return stringToNumber("0." + nines) }, 1},
		{"parseFloat", func() float64 { return ParseFloat(nines + "x") }, math.Inf(1)},
		{"parseInt(10)", func() float64 { return ParseInt(nines, 10) }, math.Inf(1)},
		{"parseInt(0x)", func() float64 { return ParseInt("-0x"+effs, 0) }, math.Inf(-1)},
		{"parseInt(16)", func() float64 { return ParseInt(effs, 16) }, math.Inf(1)},
		{"parseInt(36)", func() float64 { return ParseInt(effs, 36) }, math.Inf(1)},
	} {
		start := time.Now()
		got := c.f()
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("%s of %d digits took %v", c.name, n, elapsed)
		}
		if !sameBits(got, c.want) {
			t.Errorf("%s of %d digits = %v, want %v", c.name, n, got, c.want)
		}
	}
}
