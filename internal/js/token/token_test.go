package token

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestLookup(t *testing.T) {
	if Lookup("while") != WHILE || Lookup("function") != FUNCTION {
		t.Error("keyword lookup")
	}
	if Lookup("whilee") != IDENT || Lookup("Function") != IDENT || Lookup("") != IDENT {
		t.Error("non-keywords must be IDENT")
	}
	// Lookup hashes only spellings of two bytes or more; every keyword is
	// one. A keyword sharing another's slot would be overwritten in
	// keywordAt and fail here.
	for want := VAR; want <= FINALLY; want++ {
		if got := Lookup(want.String()); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", want.String(), got, want)
		}
	}
	for tt := ILLEGAL; tt < VAR; tt++ {
		if got := Lookup(tt.String()); got != IDENT {
			t.Errorf("Lookup(%q) = %v, want IDENT", tt.String(), got)
		}
	}
	if Lookup("instanceofx") != IDENT || Lookup("i") != IDENT || Lookup("If") != IDENT {
		t.Error("near-keywords must be IDENT")
	}
}

func TestIsAssign(t *testing.T) {
	yes := []Type{ASSIGN, PLUSASSIGN, MINUSASSIGN, STARASSIGN, SLASHASSIGN,
		PERCENTASSIGN, ANDASSIGN, ORASSIGN, XORASSIGN, SHLASSIGN, SHRASSIGN, USHRASSIGN}
	for _, tt := range yes {
		if !tt.IsAssign() {
			t.Errorf("%v.IsAssign() = false", tt)
		}
	}
	no := []Type{PLUS, EQ, LT, IDENT, NUMBER, INC, LAND}
	for _, tt := range no {
		if tt.IsAssign() {
			t.Errorf("%v.IsAssign() = true", tt)
		}
	}
}

func TestCompoundOp(t *testing.T) {
	cases := map[Type]Type{
		PLUSASSIGN: PLUS, MINUSASSIGN: MINUS, STARASSIGN: STAR,
		SLASHASSIGN: SLASH, PERCENTASSIGN: PERCENT, ANDASSIGN: AND,
		ORASSIGN: OR, XORASSIGN: XOR, SHLASSIGN: SHL, SHRASSIGN: SHR,
		USHRASSIGN: USHR,
	}
	for compound, want := range cases {
		if got := compound.CompoundOp(); got != want {
			t.Errorf("%v.CompoundOp() = %v, want %v", compound, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CompoundOp on plain ASSIGN must panic")
		}
	}()
	ASSIGN.CompoundOp()
}

func TestStrings(t *testing.T) {
	if PLUS.String() != "+" || USHRASSIGN.String() != ">>>=" || FUNCTION.String() != "function" {
		t.Error("type strings")
	}
	if Type(9999).String() != "Type(9999)" || Type(-1).String() != "Type(-1)" {
		t.Error("out-of-table type strings")
	}
	for tt := ILLEGAL; tt <= FINALLY; tt++ {
		if names[tt] == "" {
			t.Errorf("Type(%d) has no name", int(tt))
		}
	}
	tok := Token{Type: NUMBER, Pos: Pos{Line: 3, Col: 7}, Off: 4, End: 6}
	if tok.Text("x = 42;") != "42" {
		t.Errorf("token text = %q", tok.Text("x = 42;"))
	}
	if tok.Pos.String() != "3:7" {
		t.Errorf("pos = %q", tok.Pos.String())
	}
}

// TestTokenLayout gates the token's size and shape: the lexer fills the
// parser's two tokens in place on every advance, which stays a plain
// copy of a few words only while no field holds a pointer (a pointer
// would make each copy pay the collector's write barrier).
func TestTokenLayout(t *testing.T) {
	if size := unsafe.Sizeof(Token{}); size > 40 {
		t.Errorf("token.Token is %d bytes, budget 40", size)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, ty.Kind())
		}
	}
	walk("Token", reflect.TypeOf(Token{}))
}
