// Package lexer implements a hand-written scanner for the JavaScript
// subset. It produces the token stream consumed by the parser.
package lexer

import (
	"fmt"
	"strings"
	"unicode/utf16"

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

// Next scans and returns the next token. After EOF it keeps returning EOF.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos, off := l.here(), l.pos
	c := l.peek()
	if c == 0 {
		return token.Token{Type: token.EOF, Pos: pos, Off: off, End: off}
	}

	switch {
	case class[c]&cIdentStart != 0:
		l.skip(cIdentPart)
		lit := l.src[off:l.pos]
		return token.Token{Type: token.Lookup(lit), Literal: lit, Pos: pos, Off: off, End: l.pos}
	case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
		return l.scanNumber(pos)
	case c == '"' || c == '\'':
		return l.scanString(pos)
	}

	l.pos++
	mk := func(t token.Type) token.Token {
		return token.Token{Type: t, Literal: t.String(), Pos: pos, Off: off, End: l.pos}
	}
	// two/three-char operator helper: consume if next chars match
	match := func(b byte) bool {
		if l.peek() == b {
			l.pos++
			return true
		}
		return false
	}

	switch c {
	case '(':
		return mk(token.LPAREN)
	case ')':
		return mk(token.RPAREN)
	case '{':
		return mk(token.LBRACE)
	case '}':
		return mk(token.RBRACE)
	case '[':
		return mk(token.LBRACKET)
	case ']':
		return mk(token.RBRACKET)
	case ',':
		return mk(token.COMMA)
	case ';':
		return mk(token.SEMI)
	case ':':
		return mk(token.COLON)
	case '?':
		return mk(token.QUESTION)
	case '.':
		return mk(token.DOT)
	case '~':
		return mk(token.BITNOT)
	case '+':
		if match('+') {
			return mk(token.INC)
		}
		if match('=') {
			return mk(token.PLUSASSIGN)
		}
		return mk(token.PLUS)
	case '-':
		if match('-') {
			return mk(token.DEC)
		}
		if match('=') {
			return mk(token.MINUSASSIGN)
		}
		return mk(token.MINUS)
	case '*':
		if match('=') {
			return mk(token.STARASSIGN)
		}
		return mk(token.STAR)
	case '/':
		if match('=') {
			return mk(token.SLASHASSIGN)
		}
		return mk(token.SLASH)
	case '%':
		if match('=') {
			return mk(token.PERCENTASSIGN)
		}
		return mk(token.PERCENT)
	case '&':
		if match('&') {
			return mk(token.LAND)
		}
		if match('=') {
			return mk(token.ANDASSIGN)
		}
		return mk(token.AND)
	case '|':
		if match('|') {
			return mk(token.LOR)
		}
		if match('=') {
			return mk(token.ORASSIGN)
		}
		return mk(token.OR)
	case '^':
		if match('=') {
			return mk(token.XORASSIGN)
		}
		return mk(token.XOR)
	case '!':
		if match('=') {
			if match('=') {
				return mk(token.STRICTNE)
			}
			return mk(token.NEQ)
		}
		return mk(token.NOT)
	case '=':
		if match('=') {
			if match('=') {
				return mk(token.STRICTEQ)
			}
			return mk(token.EQ)
		}
		return mk(token.ASSIGN)
	case '<':
		if match('<') {
			if match('=') {
				return mk(token.SHLASSIGN)
			}
			return mk(token.SHL)
		}
		if match('=') {
			return mk(token.LE)
		}
		return mk(token.LT)
	case '>':
		if match('>') {
			if match('>') {
				if match('=') {
					return mk(token.USHRASSIGN)
				}
				return mk(token.USHR)
			}
			if match('=') {
				return mk(token.SHRASSIGN)
			}
			return mk(token.SHR)
		}
		if match('=') {
			return mk(token.GE)
		}
		return mk(token.GT)
	}

	l.errorf(pos, "unexpected character %q", string(c))
	return token.Token{Type: token.ILLEGAL, Literal: string(c), Pos: pos, Off: off, End: l.pos}
}

func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.pos
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.pos += 2
		if !isHexDigit(l.peek()) {
			l.errorf(pos, "malformed hex literal")
		}
		l.skip(cHex)
		return token.Token{Type: token.NUMBER, Literal: l.src[start:l.pos], Pos: pos, Off: start, End: l.pos}
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
	return token.Token{Type: token.NUMBER, Literal: l.src[start:l.pos], Pos: pos, Off: start, End: l.pos}
}

// scanString decodes a quoted literal. \xHH and \uHHHH name code points
// and are stored as UTF-8, like any non-ASCII character typed directly
// into the source; a malformed one is a scan error, never dropped.
func (l *Lexer) scanString(pos token.Pos) token.Token {
	start := l.pos
	quote := l.src[start]
	l.pos++
	// A literal that closes before any escape is a slice of the source.
	i := l.pos
	for i < len(l.src) && l.src[i] != quote && l.src[i] != '\\' && l.src[i] != '\n' && l.src[i] != 0 {
		i++
	}
	if i < len(l.src) && l.src[i] == quote {
		l.pos = i + 1
		return token.Token{Type: token.STRING, Literal: l.src[start+1 : i], Pos: pos, Off: start, End: l.pos}
	}
	var sb strings.Builder
	sb.WriteString(l.src[l.pos:i])
	l.pos = i
	for {
		c := l.peek()
		if c == 0 || c == '\n' {
			l.errorf(pos, "unterminated string literal")
			break
		}
		l.pos++
		if c == quote {
			break
		}
		if c == '\\' {
			e := l.advance() // may be a newline
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '0':
				sb.WriteByte(0)
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'v':
				sb.WriteByte('\v')
			case 'x':
				if r, ok := l.scanHex(2); ok {
					sb.WriteRune(r)
				} else {
					l.errorf(pos, `malformed \x escape (want two hex digits)`)
				}
			case 'u':
				if r, ok := l.scanUnicodeEscape(); ok {
					sb.WriteRune(r)
				} else {
					l.errorf(pos, `malformed \u escape (want four hex digits, surrogates in pairs)`)
				}
			default:
				sb.WriteByte(e) // \q is q, as are \\ \' \"
			}
			continue
		}
		sb.WriteByte(c)
	}
	return token.Token{Type: token.STRING, Literal: sb.String(), Pos: pos, Off: start, End: l.pos}
}

// scanHex reads exactly n hex digits as a code point.
func (l *Lexer) scanHex(n int) (rune, bool) {
	var r rune
	for i := 0; i < n; i++ {
		c := l.peek()
		switch {
		case isDigit(c):
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, false
		}
		l.pos++
	}
	return r, true
}

// scanUnicodeEscape reads the HHHH of a \uHHHH escape. Strings here are
// UTF-8 text, so a surrogate pair written as two escapes becomes the one
// code point it spells, and a lone surrogate, which UTF-8 cannot hold, is
// refused.
func (l *Lexer) scanUnicodeEscape() (rune, bool) {
	r, ok := l.scanHex(4)
	if !ok || !utf16.IsSurrogate(r) {
		return r, ok
	}
	if l.peek() != '\\' || l.peekAt(1) != 'u' {
		return 0, false
	}
	l.pos += 2
	lo, ok := l.scanHex(4)
	if r = utf16.DecodeRune(r, lo); !ok || r == '\uFFFD' {
		return 0, false
	}
	return r, true
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
