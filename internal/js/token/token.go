// Package token defines the lexical tokens of the JavaScript subset
// understood by the analysis engine.
//
// The subset is ES5-flavoured: it covers the language features the paper's
// case-study workloads exercise (functions, closures, objects, arrays,
// prototypal method calls, all loop forms, the full operator set) while
// omitting features irrelevant to the study (regex literals, with, eval).
package token

import "fmt"

// Type identifies the lexical class of a token.
type Type int

// Token types. Operator tokens are grouped by precedence tier to keep the
// parser's binding-power table readable.
const (
	ILLEGAL Type = iota
	EOF

	// Literals and identifiers.
	IDENT  // foo
	NUMBER // 12, 1.5, 0xFF, 1e-3
	STRING // "abc", 'abc'

	// Punctuation.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	COMMA    // ,
	SEMI     // ;
	COLON    // :
	QUESTION // ?
	DOT      // .

	// Assignment operators.
	ASSIGN        // =
	PLUSASSIGN    // +=
	MINUSASSIGN   // -=
	STARASSIGN    // *=
	SLASHASSIGN   // /=
	PERCENTASSIGN // %=
	ANDASSIGN     // &=
	ORASSIGN      // |=
	XORASSIGN     // ^=
	SHLASSIGN     // <<=
	SHRASSIGN     // >>=
	USHRASSIGN    // >>>=

	// Binary / unary operators.
	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	LAND     // &&
	LOR      // ||
	AND      // &
	OR       // |
	XOR      // ^
	SHL      // <<
	SHR      // >>
	USHR     // >>>
	NOT      // !
	BITNOT   // ~
	LT       // <
	GT       // >
	LE       // <=
	GE       // >=
	EQ       // ==
	NEQ      // !=
	STRICTEQ // ===
	STRICTNE // !==
	INC      // ++
	DEC      // --

	// Keywords.
	VAR
	FUNCTION
	RETURN
	IF
	ELSE
	FOR
	WHILE
	DO
	BREAK
	CONTINUE
	NEW
	DELETE
	TYPEOF
	INSTANCEOF
	IN
	THIS
	NULL
	TRUE
	FALSE
	UNDEFINED
	SWITCH
	CASE
	DEFAULT
	THROW
	TRY
	CATCH
	FINALLY
)

// names is indexed by Type, the spelling String and Lookup use.
var names = [...]string{
	ILLEGAL:       "ILLEGAL",
	EOF:           "EOF",
	IDENT:         "IDENT",
	NUMBER:        "NUMBER",
	STRING:        "STRING",
	LPAREN:        "(",
	RPAREN:        ")",
	LBRACE:        "{",
	RBRACE:        "}",
	LBRACKET:      "[",
	RBRACKET:      "]",
	COMMA:         ",",
	SEMI:          ";",
	COLON:         ":",
	QUESTION:      "?",
	DOT:           ".",
	ASSIGN:        "=",
	PLUSASSIGN:    "+=",
	MINUSASSIGN:   "-=",
	STARASSIGN:    "*=",
	SLASHASSIGN:   "/=",
	PERCENTASSIGN: "%=",
	ANDASSIGN:     "&=",
	ORASSIGN:      "|=",
	XORASSIGN:     "^=",
	SHLASSIGN:     "<<=",
	SHRASSIGN:     ">>=",
	USHRASSIGN:    ">>>=",
	PLUS:          "+",
	MINUS:         "-",
	STAR:          "*",
	SLASH:         "/",
	PERCENT:       "%",
	LAND:          "&&",
	LOR:           "||",
	AND:           "&",
	OR:            "|",
	XOR:           "^",
	SHL:           "<<",
	SHR:           ">>",
	USHR:          ">>>",
	NOT:           "!",
	BITNOT:        "~",
	LT:            "<",
	GT:            ">",
	LE:            "<=",
	GE:            ">=",
	EQ:            "==",
	NEQ:           "!=",
	STRICTEQ:      "===",
	STRICTNE:      "!==",
	INC:           "++",
	DEC:           "--",
	VAR:           "var",
	FUNCTION:      "function",
	RETURN:        "return",
	IF:            "if",
	ELSE:          "else",
	FOR:           "for",
	WHILE:         "while",
	DO:            "do",
	BREAK:         "break",
	CONTINUE:      "continue",
	NEW:           "new",
	DELETE:        "delete",
	TYPEOF:        "typeof",
	INSTANCEOF:    "instanceof",
	IN:            "in",
	THIS:          "this",
	NULL:          "null",
	TRUE:          "true",
	FALSE:         "false",
	UNDEFINED:     "undefined",
	SWITCH:        "switch",
	CASE:          "case",
	DEFAULT:       "default",
	THROW:         "throw",
	TRY:           "try",
	CATCH:         "catch",
	FINALLY:       "finally",
}

// String returns the canonical spelling of the token type.
func (t Type) String() string {
	if t >= 0 && int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// keywordAt is a perfect hash of the keyword spellings: no two of them
// share a keywordSlot (TestLookup finds every keyword through it), so
// Lookup compares an identifier with at most one spelling instead of
// hashing it into a map.
var keywordAt [64]Type

// keywordSlot hashes a spelling of at least two bytes; every keyword has.
func keywordSlot(s string) int { return (int(s[0]) + 3*int(s[1]) + 3*len(s)) & 63 }

func init() {
	for t := VAR; t <= FINALLY; t++ {
		keywordAt[keywordSlot(names[t])] = t
	}
}

// Lookup maps an identifier spelling to its keyword type, or IDENT.
func Lookup(ident string) Type {
	if len(ident) >= 2 {
		if t := keywordAt[keywordSlot(ident)]; t != ILLEGAL && names[t] == ident {
			return t
		}
	}
	return IDENT
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token: its type, where it starts, and the
// byte offsets of its text, source[Off:End]. It holds no pointer, so the
// parser keeps its two tokens by value and the lexer fills them in place
// without a write barrier. A string's value, quotes stripped and escapes
// decoded, is lexer.StringValue.
type Token struct {
	Type     Type
	Pos      Pos
	Off, End int
}

// Text is the token's own text in src, the source it was scanned from.
func (t Token) Text(src string) string { return src[t.Off:t.End] }

// IsAssign reports whether the token is an assignment operator.
func (t Type) IsAssign() bool {
	return t >= ASSIGN && t <= USHRASSIGN
}

// CompoundOp returns the underlying binary operator of a compound
// assignment (e.g. PLUS for "+="). It panics for plain ASSIGN.
func (t Type) CompoundOp() Type {
	switch t {
	case PLUSASSIGN:
		return PLUS
	case MINUSASSIGN:
		return MINUS
	case STARASSIGN:
		return STAR
	case SLASHASSIGN:
		return SLASH
	case PERCENTASSIGN:
		return PERCENT
	case ANDASSIGN:
		return AND
	case ORASSIGN:
		return OR
	case XORASSIGN:
		return XOR
	case SHLASSIGN:
		return SHL
	case SHRASSIGN:
		return SHR
	case USHRASSIGN:
		return USHR
	}
	panic("token: CompoundOp on non-compound " + t.String())
}
