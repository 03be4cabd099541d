// Package lexer implements a hand-written scanner for the JavaScript
// subset. It produces the token stream consumed by the parser.
package lexer

import (
	"fmt"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/js/token"
)

// Lexer scans JavaScript source text into tokens.
type Lexer struct {
	src  string
	pos  int // byte offset of next unread char
	line int
	// lineStart is the offset just past the last newline consumed: a
	// token at offset off is in column off-lineStart+1.
	lineStart int
	errs      []error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Errors returns the scan errors accumulated so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(p token.Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("lex %s: %s", p, fmt.Sprintf(format, args...)))
}

func (l *Lexer) here() token.Pos {
	return token.Pos{Line: l.line, Col: l.pos - l.lineStart + 1}
}

// peek returns the next byte, or 0 at the end of input; a NUL byte in the
// source therefore ends the token stream.
func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(n int) byte {
	if l.pos+n >= len(l.src) {
		return 0
	}
	return l.src[l.pos+n]
}

// advance consumes one byte. A newline can be consumed only between
// tokens, in a comment, or after a backslash in a string, so only those
// places call it; everything else moves pos directly.
func (l *Lexer) advance() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.lineStart = l.pos
	}
	return c
}

// Byte classes.
const (
	cSpace      = 1 << iota // blank other than newline
	cIdentStart             // may begin an identifier
	cDigit
	cHex
	cIdentPart = cIdentStart | cDigit
)

var class = func() (t [256]uint8) {
	for _, c := range " \t\r" {
		t[c] = cSpace
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = cIdentStart, cIdentStart
	}
	t['_'], t['$'] = cIdentStart, cIdentStart
	for c := '0'; c <= '9'; c++ {
		t[c] = cDigit | cHex
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] |= cHex
		t[c-'a'+'A'] |= cHex
	}
	return t
}()

func isDigit(c byte) bool    { return class[c]&cDigit != 0 }
func isHexDigit(c byte) bool { return class[c]&cHex != 0 }

// skip moves pos past the run of bytes in class mask.
func (l *Lexer) skip(mask uint8) {
	i := l.pos
	for i < len(l.src) && class[l.src[i]]&mask != 0 {
		i++
	}
	l.pos = i
}

func (l *Lexer) skipSpaceAndComments() {
	for {
		l.skip(cSpace)
		c := l.peek()
		switch {
		case c == '\n':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.peek() != '\n' && l.peek() != 0 {
				l.pos++
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.here()
			l.pos += 2
			closed := false
			for l.peek() != 0 {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.pos += 2
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Scan scans the next token into t. After EOF it keeps scanning EOF.
func (l *Lexer) Scan(t *token.Token) {
	l.skipSpaceAndComments()
	t.Pos, t.Off = l.here(), l.pos
	c := l.peek()
	switch {
	case c == 0:
		t.Type = token.EOF
	case class[c]&cIdentStart != 0:
		l.skip(cIdentPart)
		t.Type = token.Lookup(l.src[t.Off:l.pos])
	case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
		t.Type = token.NUMBER
		l.scanNumber(t.Pos)
	case c == '"' || c == '\'':
		t.Type = token.STRING
		l.scanString(t.Pos)
	default:
		l.pos++
		if t.Type = l.punct(c); t.Type == token.ILLEGAL {
			// One character, however many bytes it takes; a byte that
			// starts no UTF-8 sequence is one on its own.
			_, n := utf8.DecodeRuneInString(l.src[t.Off:])
			l.pos = t.Off + n
			l.errorf(t.Pos, "unexpected character %q", l.src[t.Off:l.pos])
		}
	}
	t.End = l.pos
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	var t token.Token
	l.Scan(&t)
	return t
}

// match consumes the next byte if it is b.
func (l *Lexer) match(b byte) bool {
	if l.peek() == b {
		l.pos++
		return true
	}
	return false
}

// punct is the operator or punctuator that starts with c, which has been
// consumed, or ILLEGAL.
func (l *Lexer) punct(c byte) token.Type {
	switch c {
	case '(':
		return token.LPAREN
	case ')':
		return token.RPAREN
	case '{':
		return token.LBRACE
	case '}':
		return token.RBRACE
	case '[':
		return token.LBRACKET
	case ']':
		return token.RBRACKET
	case ',':
		return token.COMMA
	case ';':
		return token.SEMI
	case ':':
		return token.COLON
	case '?':
		return token.QUESTION
	case '.':
		return token.DOT
	case '~':
		return token.BITNOT
	case '+':
		if l.match('+') {
			return token.INC
		}
		if l.match('=') {
			return token.PLUSASSIGN
		}
		return token.PLUS
	case '-':
		if l.match('-') {
			return token.DEC
		}
		if l.match('=') {
			return token.MINUSASSIGN
		}
		return token.MINUS
	case '*':
		if l.match('=') {
			return token.STARASSIGN
		}
		return token.STAR
	case '/':
		if l.match('=') {
			return token.SLASHASSIGN
		}
		return token.SLASH
	case '%':
		if l.match('=') {
			return token.PERCENTASSIGN
		}
		return token.PERCENT
	case '&':
		if l.match('&') {
			return token.LAND
		}
		if l.match('=') {
			return token.ANDASSIGN
		}
		return token.AND
	case '|':
		if l.match('|') {
			return token.LOR
		}
		if l.match('=') {
			return token.ORASSIGN
		}
		return token.OR
	case '^':
		if l.match('=') {
			return token.XORASSIGN
		}
		return token.XOR
	case '!':
		if l.match('=') {
			if l.match('=') {
				return token.STRICTNE
			}
			return token.NEQ
		}
		return token.NOT
	case '=':
		if l.match('=') {
			if l.match('=') {
				return token.STRICTEQ
			}
			return token.EQ
		}
		return token.ASSIGN
	case '<':
		if l.match('<') {
			if l.match('=') {
				return token.SHLASSIGN
			}
			return token.SHL
		}
		if l.match('=') {
			return token.LE
		}
		return token.LT
	case '>':
		if l.match('>') {
			if l.match('>') {
				if l.match('=') {
					return token.USHRASSIGN
				}
				return token.USHR
			}
			if l.match('=') {
				return token.SHRASSIGN
			}
			return token.SHR
		}
		if l.match('=') {
			return token.GE
		}
		return token.GT
	}
	return token.ILLEGAL
}

func (l *Lexer) scanNumber(pos token.Pos) {
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.pos += 2
		if !isHexDigit(l.peek()) {
			l.errorf(pos, "malformed hex literal")
		}
		l.skip(cHex)
		return
	}
	l.skip(cDigit)
	if l.peek() == '.' {
		l.pos++
		l.skip(cDigit)
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.pos
		l.pos++
		if l.peek() == '+' || l.peek() == '-' {
			l.pos++
		}
		if isDigit(l.peek()) {
			l.skip(cDigit)
		} else {
			// not an exponent after all (e.g. `1e` followed by ident char)
			l.pos = save
		}
	}
}

// scanString finds the end of a quoted literal. One that closes before
// any escape is scanned here. Any other goes through unquote, which
// reports its malformed escapes; the newlines it escaped are counted
// after.
func (l *Lexer) scanString(pos token.Pos) {
	start := l.pos
	quote := l.src[start]
	i := start + 1
	for i < len(l.src) && l.src[i] != quote && l.src[i] != '\\' && l.src[i] != '\n' && l.src[i] != 0 {
		i++
	}
	if i < len(l.src) && l.src[i] == quote {
		l.pos = i + 1
		return
	}
	end, closed := unquote(l.src, start, nil, func(msg string) { l.errorf(pos, "%s", msg) })
	for j := i; j < end; j++ {
		if l.src[j] == '\n' {
			l.line++
			l.lineStart = j + 1
		}
	}
	l.pos = end
	if !closed {
		l.errorf(pos, "unterminated string literal")
	}
}

// StringValue is the value of the STRING token t scanned from src: the
// text between its quotes, escapes decoded. A literal without an escape
// is a slice of src.
func StringValue(src string, t token.Token) string {
	body := src[t.Off+1 : t.End]
	if strings.IndexByte(body, '\\') < 0 {
		if body != "" && body[len(body)-1] == src[t.Off] {
			body = body[:len(body)-1] // closed: drop the closing quote
		}
		return body
	}
	var sb strings.Builder
	unquote(src, t.Off, &sb, nil)
	return sb.String()
}

// unquote walks the string literal whose opening quote is src[off], for
// the lexer (bad non-nil: report each malformed escape) and for
// StringValue (sb non-nil: write the decoded value). \xHH and \uHHHH
// name code points and are written as UTF-8, like any non-ASCII
// character typed directly into the source; a malformed one is reported,
// never dropped. It returns the offset just past the literal, which is
// past the closing quote if closed, else at the newline, NUL or end of
// src that ends it.
func unquote(src string, off int, sb *strings.Builder, bad func(msg string)) (end int, closed bool) {
	quote := src[off]
	i := off + 1
	for i < len(src) && src[i] != 0 && src[i] != '\n' {
		c := src[i]
		i++
		if c == quote {
			return i, true
		}
		if c != '\\' {
			if sb != nil {
				sb.WriteByte(c)
			}
			continue
		}
		var e byte // at the end of src the escaped byte reads as NUL
		if i < len(src) {
			e = src[i] // may be a newline
			i++
		}
		r, ok := rune(e), true
		switch e {
		case 'n':
			r = '\n'
		case 't':
			r = '\t'
		case 'r':
			r = '\r'
		case '0':
			r = 0
		case 'b':
			r = '\b'
		case 'f':
			r = '\f'
		case 'v':
			r = '\v'
		case 'x':
			if r, i, ok = hexRune(src, i, 2); !ok && bad != nil {
				bad(`malformed \x escape (want two hex digits)`)
			}
		case 'u':
			if r, i, ok = unicodeEscape(src, i); !ok && bad != nil {
				bad(`malformed \u escape (want four hex digits, surrogates in pairs)`)
			}
		default:
			// \q is q, as are \\ \' \", and a byte that is not UTF-8
			// passes through as itself.
			if sb != nil {
				sb.WriteByte(e)
			}
			continue
		}
		if ok && sb != nil {
			sb.WriteRune(r)
		}
	}
	return i, false
}

// hexRune reads exactly n hex digits at src[i:] as a code point, and
// returns the offset past the digits it read.
func hexRune(src string, i, n int) (rune, int, bool) {
	var r rune
	for ; n > 0; n-- {
		if i >= len(src) {
			return 0, i, false
		}
		c := src[i]
		switch {
		case isDigit(c):
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, i, false
		}
		i++
	}
	return r, i, true
}

// unicodeEscape reads the HHHH of a \uHHHH escape at src[i:]. Strings
// here are UTF-8 text, so a surrogate pair written as two escapes becomes
// the one code point it spells, and a lone surrogate, which UTF-8 cannot
// hold, is refused.
func unicodeEscape(src string, i int) (rune, int, bool) {
	r, i, ok := hexRune(src, i, 4)
	if !ok || !utf16.IsSurrogate(r) {
		return r, i, ok
	}
	if i+1 >= len(src) || src[i] != '\\' || src[i+1] != 'u' {
		return 0, i, false
	}
	lo, i, ok := hexRune(src, i+2, 4)
	if r = utf16.DecodeRune(r, lo); !ok || r == '\uFFFD' {
		return 0, i, false
	}
	return r, i, true
}

// ScanAll tokenizes the whole input, excluding the trailing EOF token.
func ScanAll(src string) ([]token.Token, []error) {
	l := New(src)
	var out []token.Token
	for {
		t := l.Next()
		if t.Type == token.EOF {
			break
		}
		out = append(out, t)
	}
	return out, l.Errors()
}
