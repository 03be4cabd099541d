package token

import "testing"

func TestLookup(t *testing.T) {
	if Lookup("while") != WHILE || Lookup("function") != FUNCTION {
		t.Error("keyword lookup")
	}
	if Lookup("whilee") != IDENT || Lookup("Function") != IDENT || Lookup("") != IDENT {
		t.Error("non-keywords must be IDENT")
	}
	// Lookup only compares spellings that start with a lowercase letter;
	// every keyword must.
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
	tok := Token{Type: NUMBER, Literal: "42", Pos: Pos{Line: 3, Col: 7}}
	if tok.String() != `NUMBER("42")` {
		t.Errorf("token string = %q", tok.String())
	}
	if tok.Pos.String() != "3:7" {
		t.Errorf("pos = %q", tok.Pos.String())
	}
	if (Token{Type: LBRACE}).String() != "{" {
		t.Error("punct token string")
	}
}
