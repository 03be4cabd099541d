package lexer

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/js/token"
)

func kinds(t *testing.T, src string) []token.Type {
	t.Helper()
	toks, errs := ScanAll(src)
	if len(errs) > 0 {
		t.Fatalf("scan %q: %v", src, errs)
	}
	out := make([]token.Type, len(toks))
	for i, tk := range toks {
		out[i] = tk.Type
	}
	return out
}

func TestOperators(t *testing.T) {
	cases := map[string]token.Type{
		"+": token.PLUS, "-": token.MINUS, "*": token.STAR, "/": token.SLASH,
		"%": token.PERCENT, "=": token.ASSIGN, "==": token.EQ, "===": token.STRICTEQ,
		"!": token.NOT, "!=": token.NEQ, "!==": token.STRICTNE,
		"<": token.LT, "<=": token.LE, ">": token.GT, ">=": token.GE,
		"<<": token.SHL, ">>": token.SHR, ">>>": token.USHR,
		"&": token.AND, "&&": token.LAND, "|": token.OR, "||": token.LOR,
		"^": token.XOR, "~": token.BITNOT,
		"++": token.INC, "--": token.DEC,
		"+=": token.PLUSASSIGN, "-=": token.MINUSASSIGN, "*=": token.STARASSIGN,
		"/=": token.SLASHASSIGN, "%=": token.PERCENTASSIGN,
		"<<=": token.SHLASSIGN, ">>=": token.SHRASSIGN, ">>>=": token.USHRASSIGN,
		"&=": token.ANDASSIGN, "|=": token.ORASSIGN, "^=": token.XORASSIGN,
		"(": token.LPAREN, ")": token.RPAREN, "{": token.LBRACE, "}": token.RBRACE,
		"[": token.LBRACKET, "]": token.RBRACKET, ",": token.COMMA, ";": token.SEMI,
		":": token.COLON, "?": token.QUESTION, ".": token.DOT,
	}
	for src, want := range cases {
		got := kinds(t, src)
		if len(got) != 1 || got[0] != want {
			t.Errorf("%q -> %v, want [%v]", src, got, want)
		}
	}
}

func TestKeywordsVsIdentifiers(t *testing.T) {
	got := kinds(t, "var function if else for while do break continue return new delete typeof instanceof in this null true false undefined switch case default throw try catch finally")
	want := []token.Type{
		token.VAR, token.FUNCTION, token.IF, token.ELSE, token.FOR, token.WHILE,
		token.DO, token.BREAK, token.CONTINUE, token.RETURN, token.NEW, token.DELETE,
		token.TYPEOF, token.INSTANCEOF, token.IN, token.THIS, token.NULL, token.TRUE,
		token.FALSE, token.UNDEFINED, token.SWITCH, token.CASE, token.DEFAULT,
		token.THROW, token.TRY, token.CATCH, token.FINALLY,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	// near-keywords are identifiers
	for _, id := range []string{"vars", "iffy", "ForEach", "newish", "_var", "$do"} {
		got := kinds(t, id)
		if len(got) != 1 || got[0] != token.IDENT {
			t.Errorf("%q -> %v, want IDENT", id, got)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []string{"0", "42", "3.14", ".5", "1e3", "1e-3", "2.5E+7", "0xFF", "0x0", "0Xabc"}
	for _, src := range cases {
		toks, errs := ScanAll(src)
		if len(errs) > 0 {
			t.Errorf("%q: %v", src, errs)
			continue
		}
		if len(toks) != 1 || toks[0].Type != token.NUMBER {
			t.Errorf("%q -> %v, want one NUMBER", src, toks)
		}
		if text := toks[0].Text(src); text != src {
			t.Errorf("%q text %q", src, text)
		}
	}
}

func TestStrings(t *testing.T) {
	cases := map[string]string{
		`"hello"`:      "hello",
		`'world'`:      "world",
		`"a\"b"`:       `a"b`,
		`'a\'b'`:       "a'b",
		`"tab\there"`:  "tab\there",
		`"nl\nnl"`:     "nl\nnl",
		`"cr\rcr"`:     "cr\rcr",
		`"back\\"`:     `back\`,
		`""`:           "",
		`"unicode ok"`: "unicode ok",
		// Escapes the scanner used to drop the backslash of.
		`"\b\f\v"`:          "\b\f\v",
		`"\x41\x7a\x00"`:    "Az\x00",
		`"\u0041\u00e9"`:    "A\u00e9",
		`"\xe9"`:            "\u00e9", // a code point, stored as UTF-8
		`'\u2028\uFFFD'`:    "\u2028\uFFFD",
		`"\uD83D\uDE00"`:    "\U0001F600", // surrogate pair → one code point
		`"\uabCD"`:          "\uabcd",
		`"\q\/\0"`:          "q/\x00",        // unknown escapes are the char itself
		"\"raw \xff byte\"": "raw \xff byte", // bytes that are not UTF-8 pass through
	}
	for src, want := range cases {
		toks, errs := ScanAll(src)
		if len(errs) > 0 {
			t.Errorf("%q: %v", src, errs)
			continue
		}
		if len(toks) != 1 || toks[0].Type != token.STRING || StringValue(src, toks[0]) != want {
			t.Errorf("%q -> %+v, want STRING %q", src, toks, want)
		}
	}
}

// TestMalformedEscapes: a \x or \u escape the scanner cannot decode is an
// error on the string's position, and scanning goes on to the closing
// quote so one bad escape is one error.
func TestMalformedEscapes(t *testing.T) {
	for _, src := range []string{
		`"\x4"`, `"\xZZ"`, `"\x"`, `"\u004"`, `"\u00G1"`, `"\u"`,
		`"\uD83D"`, `"\uD83Dx"`, `"\uD83D\n"`, `"\uD83D\u0041"`, `"\uDE00"`, `"\uD83D\uD83D"`,
	} {
		src += " ok"
		toks, errs := ScanAll(src)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "lex 1:1: malformed") {
			t.Errorf("%s: errors %v, want one malformed-escape error at 1:1", src, errs)
		}
		if len(toks) != 2 || toks[0].Type != token.STRING || toks[1].Text(src) != "ok" {
			t.Errorf("%s: tokens %v, want STRING then ok", src, toks)
		}
	}
}

func TestComments(t *testing.T) {
	got := kinds(t, `
// a line comment
var x = 1; // trailing
/* block
   comment */ var y /* inline */ = 2;
`)
	want := []token.Type{
		token.VAR, token.IDENT, token.ASSIGN, token.NUMBER, token.SEMI,
		token.VAR, token.IDENT, token.ASSIGN, token.NUMBER, token.SEMI,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPositions(t *testing.T) {
	src := "var x;\n  y = 2;"
	toks, _ := ScanAll(src)
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("var at %v", toks[0].Pos)
	}
	// y is on line 2, col 3
	var yTok token.Token
	for _, tk := range toks {
		if tk.Text(src) == "y" {
			yTok = tk
		}
	}
	if yTok.Pos.Line != 2 || yTok.Pos.Col != 3 {
		t.Errorf("y at %v, want 2:3", yTok.Pos)
	}
}

// TestOffsets: src[tok.Off:tok.End] is the token's own text, comments
// and space excluded, for every token class including decoded strings;
// EOF sits at len(src).
func TestOffsets(t *testing.T) {
	src := "var s = 'a\\n\\u0041', n=0x1F; // c\n/* b */ for(;;) { s >>>= 1e3 }\n"
	want := []string{"var", "s", "=", `'a\n\u0041'`, ",", "n", "=", "0x1F", ";",
		"for", "(", ";", ";", ")", "{", "s", ">>>=", "1e3", "}"}
	toks, errs := ScanAll(src)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, tk := range toks {
		if got := src[tk.Off:tk.End]; got != want[i] {
			t.Errorf("token %d spans %q, want %q", i, got, want[i])
		}
	}
	l := New("x  ")
	l.Next()
	if eof := l.Next(); eof.Off != 3 || eof.End != 3 {
		t.Errorf("EOF at [%d,%d), want [3,3)", eof.Off, eof.End)
	}
}

func TestErrors(t *testing.T) {
	_, errs := ScanAll(`"unterminated`)
	if len(errs) == 0 {
		t.Error("unterminated string not reported")
	}
	_, errs = ScanAll("/* open block")
	if len(errs) == 0 {
		t.Error("unterminated block comment not reported")
	}
	toks, errs := ScanAll("a # b")
	if len(errs) == 0 {
		t.Error("illegal character not reported")
	}
	hasIllegal := false
	for _, tk := range toks {
		if tk.Type == token.ILLEGAL {
			hasIllegal = true
		}
	}
	if !hasIllegal {
		t.Error("no ILLEGAL token emitted")
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("x")
	l.Next() // x
	for i := 0; i < 3; i++ {
		if tk := l.Next(); tk.Type != token.EOF {
			t.Fatalf("Next after end = %v, want EOF", tk)
		}
	}
}

// Property: joining token literals with spaces re-lexes to the same kinds
// (a weak but broad lexer stability property).
func TestRelexProperty(t *testing.T) {
	vocab := []string{
		"var", "x", "=", "1", "+", "2.5", ";", "(", ")", "{", "}", "[", "]",
		"&&", "||", "!", "===", "foo", `"str"`, "0xFF", "<<", ">>>", "?", ":",
		"typeof", "instanceof", "++", "--",
	}
	f := func(idxs []uint8) bool {
		if len(idxs) > 40 {
			idxs = idxs[:40]
		}
		parts := make([]string, len(idxs))
		for i, ix := range idxs {
			parts[i] = vocab[int(ix)%len(vocab)]
		}
		src := strings.Join(parts, " ")
		t1, errs1 := ScanAll(src)
		if len(errs1) > 0 {
			return false
		}
		// print back the decoded stream and re-lex
		lits := make([]string, len(t1))
		for i, tk := range t1 {
			if tk.Type == token.STRING {
				lits[i] = `"` + StringValue(src, tk) + `"`
			} else {
				lits[i] = tk.Text(src)
			}
		}
		t2, errs2 := ScanAll(strings.Join(lits, " "))
		if len(errs2) > 0 || len(t1) != len(t2) {
			return false
		}
		for i := range t1 {
			if t1[i].Type != t2[i].Type {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
