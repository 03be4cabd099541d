package value

import (
	"math"
	"strconv"
	"strings"
)

// Numeric strings follow the ES5 grammar (§9.3.1, §15.1.2.2–3), not
// Go's: strconv alone would also take "inf", "nan", "1_000" and hex
// floats, and would refuse digit strings past 2⁶⁴ or 1.8e308 instead of
// rounding them. Each entry point below checks the JavaScript grammar
// first and hands strconv only what it spells the same way. Every path
// is linear in the length of its input.

// stringToNumber is ToNumber applied to a string (ES5 §9.3.1).
func stringToNumber(s string) float64 {
	s = strings.TrimFunc(s, isJSSpace)
	if s == "" {
		return 0
	}
	if len(s) > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		if digitsPrefix(s[2:], 16) < len(s)-2 {
			return math.NaN()
		}
		return hexValue(s[2:])
	}
	if decimalPrefix(s) == len(s) {
		f, _ := strconv.ParseFloat(s, 64)
		return f
	}
	return math.NaN()
}

// ParseFloat is the global parseFloat (ES5 §15.1.2.3): the value of the
// longest decimal literal after leading white space, NaN if there is
// none.
func ParseFloat(s string) float64 {
	s = strings.TrimLeftFunc(s, isJSSpace)
	n := decimalPrefix(s)
	if n == 0 {
		return math.NaN()
	}
	f, _ := strconv.ParseFloat(s[:n], 64)
	return f
}

// ParseInt is the global parseInt (ES5 §15.1.2.2) for a radix already
// converted by ToInt32: 0 means 10, or 16 when the digits (after any
// sign) start with 0x; outside 2–36 the result is NaN.
func ParseInt(s string, radix int32) float64 {
	s = strings.TrimLeftFunc(s, isJSSpace)
	neg := false
	if s != "" && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		s = s[1:]
	}
	base := int(radix)
	if base != 0 && (base < 2 || base > 36) {
		return math.NaN()
	}
	if (base == 0 || base == 16) && len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s, base = s[2:], 16
	}
	if base == 0 {
		base = 10
	}
	digits := s[:digitsPrefix(s, base)]
	if digits == "" {
		return math.NaN()
	}
	var f float64
	switch base {
	case 10:
		f, _ = strconv.ParseFloat(digits, 64)
	case 16:
		f = hexValue(digits)
	default:
		for i := 0; i < len(digits); i++ {
			f = f*float64(base) + float64(digitValue(digits[i]))
		}
	}
	if neg {
		f = -f
	}
	return f
}

// hexValue is the integer that digits, a non-empty run of hex digits,
// denotes, rounded once to the nearest double: +Inf past the largest.
// With a zero binary exponent the digits are a Go hex float, which
// strconv rounds correctly; it would also take underscores, which
// digits has none of.
func hexValue(digits string) float64 {
	f, _ := strconv.ParseFloat("0x"+digits+"p0", 64)
	return f
}

// digitsPrefix returns the length of the run of base digits that s
// starts with.
func digitsPrefix(s string, base int) int {
	i := 0
	for i < len(s) && digitValue(s[i]) < base {
		i++
	}
	return i
}

// decimalPrefix returns the length of the longest prefix of s that is
// a StrDecimalLiteral: an optional sign, then Infinity, or digits with
// an optional fraction and exponent. It is 0 when there is none.
func decimalPrefix(s string) int {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	if strings.HasPrefix(s[i:], "Infinity") {
		return i + len("Infinity")
	}
	start := i
	i = skipDigits(s, i)
	digits := i - start
	if i < len(s) && s[i] == '.' {
		j := skipDigits(s, i+1)
		digits += j - (i + 1)
		i = j
	}
	if digits == 0 {
		return 0
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if k := skipDigits(s, j); k > j {
			i = k
		}
	}
	return i
}

func skipDigits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// digitValue is c's value as a digit of bases up to 36, or 36 when c is
// not one.
func digitValue(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'z':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'Z':
		return int(c-'A') + 10
	}
	return 36
}

// isJSSpace reports whether r is a StrWhiteSpaceChar: white space or a
// line terminator (ES5 §7.2–7.3). Unlike unicode.IsSpace it includes the
// byte-order mark and excludes U+0085.
func isJSSpace(r rune) bool {
	switch r {
	case '\t', '\n', '\v', '\f', '\r', ' ', 0xA0, 0x1680, 0x2028, 0x2029, 0x202F, 0x205F, 0x3000, 0xFEFF:
		return true
	}
	return 0x2000 <= r && r <= 0x200A
}
