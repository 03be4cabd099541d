package parser_test

import (
	"strings"
	"testing"

	"repro/internal/js/parser"
)

// TestErrorText pins the full error text of a parse, byte for byte, for
// every kind of token an error can name after "found": an identifier, a
// number, a string (plain, escaped and unterminated), a keyword, a
// punctuator, EOF and an illegal character, plus a literal that is not a
// number and the lexer's own errors.
func TestErrorText(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"var x = {y z};", `parse 1:12: expected :, found IDENT("z")`},
		{"foo(a b);", "parse 1:7: expected ), found IDENT(\"b\")\nparse 1:8: unexpected token )"},
		{"var 1.5e3;", `parse 1:5: expected IDENT, found NUMBER("1.5e3")`},
		{"var x = {1: 2 3};", "parse 1:15: expected }, found NUMBER(\"3\")\nparse 1:16: unexpected token }"},
		{"var 'a';", `parse 1:5: expected IDENT, found STRING("a")`},
		{`var "a\tb\x41\u00e9";`, `parse 1:5: expected IDENT, found STRING("a\tbAé")`},
		{"var 'it\\'s", "parse 1:5: expected IDENT, found STRING(\"it's\")\nlex 1:5: unterminated string literal"},
		{"var var;", "parse 1:5: expected IDENT, found var\nparse 1:8: expected IDENT, found ;"},
		{"var (;", "parse 1:5: expected IDENT, found (\nparse 1:6: unexpected token ;\nparse 1:7: expected ), found EOF"},
		{"var", "parse 1:4: expected IDENT, found EOF"},
		{"a.;", "parse 1:3: expected property name, found ;"},
		{"x = {,};", "parse 1:6: expected object key, found ,"},
		{"var #;", "parse 1:5: expected IDENT, found ILLEGAL\nparse 1:5: illegal token \"#\"\nlex 1:5: unexpected character \"#\""},
		{"x = 0x;", "parse 1:5: bad number \"0x\": strconv.ParseFloat: parsing \"0xp0\": invalid syntax\nlex 1:5: malformed hex literal"},
		{"x = 'a\\x4' + \"\\uD800\";", "lex 1:5: malformed \\x escape (want two hex digits)\nlex 1:14: malformed \\u escape (want four hex digits, surrogates in pairs)"},
		{"/* open", "lex 1:1: unterminated block comment"},
	} {
		_, err := parser.Parse(tc.src)
		if err == nil {
			t.Errorf("%q parsed", tc.src)
		} else if err.Error() != tc.want {
			t.Errorf("%q:\n got %q\nwant %q", tc.src, err.Error(), tc.want)
		}
	}
}

// TestStrayCharacterIsOneToken: a character the grammar has no use for is
// one ILLEGAL token however many bytes its UTF-8 takes, and both the
// lexer and the parser quote it as itself. Columns count bytes.
func TestStrayCharacterIsOneToken(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"var é = 1;", "parse 1:5: expected IDENT, found ILLEGAL\nparse 1:5: illegal token \"é\"\nparse 1:8: unexpected token =\nlex 1:5: unexpected character \"é\""},
		{"\xef\xbb\xbfvar x;", "parse 1:1: illegal token \"\\ufeff\"\nlex 1:1: unexpected character \"\\ufeff\""},
		{"var \xff;", "parse 1:5: expected IDENT, found ILLEGAL\nparse 1:5: illegal token \"\\xff\"\nlex 1:5: unexpected character \"\\xff\""},
		{"x = 1 + 名;", "parse 1:9: unexpected token ILLEGAL\nlex 1:9: unexpected character \"名\""},
		{"f(😀);", "parse 1:3: unexpected token ILLEGAL\nlex 1:3: unexpected character \"😀\""},
	} {
		_, err := parser.Parse(tc.src)
		if err == nil {
			t.Errorf("%q parsed", tc.src)
			continue
		}
		if msg := err.Error(); msg != tc.want {
			t.Errorf("%q:\n got %q\nwant %q", tc.src, msg, tc.want)
		}
		if lex := strings.Count(err.Error(), "lex "); lex != 1 {
			t.Errorf("%q: %d lexer errors, want 1", tc.src, lex)
		}
		if strings.Contains(err.Error(), "Ã") {
			t.Errorf("%q: an error names a byte of the character as Latin-1", tc.src)
		}
	}
}
