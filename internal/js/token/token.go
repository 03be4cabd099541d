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

// names is indexed by Type: String runs once per punctuation token the
// lexer makes, so it is an array index, not a map probe.
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

// keywordsBy lists the keyword types by first letter, so Lookup compares
// an identifier with the few spellings in names it could be instead of
// hashing it.
var keywordsBy [26][]Type

func init() {
	for t := VAR; t <= FINALLY; t++ {
		keywordsBy[names[t][0]-'a'] = append(keywordsBy[names[t][0]-'a'], t)
	}
}

// Lookup maps an identifier spelling to its keyword type, or IDENT.
func Lookup(ident string) Type {
	if ident == "" || ident[0] < 'a' || ident[0] > 'z' {
		return IDENT // keywords are lowercase letters
	}
	for _, t := range keywordsBy[ident[0]-'a'] {
		if names[t] == ident {
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

// Token is a single lexical token with its source position and literal
// text. Off and End are byte offsets, for tools that edit the source: the
// token's own text is source[Off:End], which Literal differs from for
// strings (quotes stripped, escapes decoded).
type Token struct {
	Type     Type
	Literal  string
	Pos      Pos
	Off, End int
}

func (t Token) String() string {
	switch t.Type {
	case IDENT, NUMBER, STRING:
		return fmt.Sprintf("%s(%q)", names[t.Type], t.Literal)
	default:
		return t.Type.String()
	}
}

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
