// Package ast defines the abstract syntax tree for the JavaScript subset.
//
// Every loop node carries a stable LoopID assigned by the parser; those IDs
// are the syntactic-loop identities used throughout JS-CERES (the paper's
// warning reports are lists of per-loop triples keyed by loop identity, cf.
// §3.3 of Radoi et al.).
package ast

import (
	"strings"
	"sync"

	"repro/internal/js/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// LoopID uniquely identifies a syntactic loop within a Program.
type LoopID int

// NoLoop is the zero LoopID, meaning "not a loop".
const NoLoop LoopID = 0

// Program is a parsed compilation unit. A source rewriter's Program
// (instrument.Parse, from parser.Loops) has Source and Loops only: its
// Body is nil.
type Program struct {
	Body   []Stmt
	Loops  []LoopInfo // indexed by LoopID-1
	Source string     // the text that was parsed; LoopInfo and Splice offsets index it

	// Splices is a source rewriter's plan: text to insert into Source,
	// in the order it is to appear. The parser leaves it nil.
	Splices []Splice

	// lowered is what an evaluator compiled this tree into (interp's
	// unit; opaque here, as value.Function.Compiled is, to break the
	// import cycle). It is built at most once and collected with the
	// Program.
	lowerOnce sync.Once
	lowered   any
}

// Lowered returns the value build returned on the first call for this
// Program; every later call, and every concurrent one, gets that same
// value without running build again. The tree must not change once it
// has been lowered.
func (p *Program) Lowered(build func() any) any {
	p.lowerOnce.Do(func() { p.lowered = build() })
	return p.lowered
}

// Splice is Text inserted into Program.Source before byte offset Off.
type Splice struct {
	Off  int
	Text string
}

// LoopInfo describes one syntactic loop: its identity for reporting and
// where it sits in Program.Source for rewriting.
type LoopInfo struct {
	ID   LoopID
	Kind string // "for", "while", "do-while", "for-in"
	Line int

	// Byte offsets into Program.Source. The statement runs from its
	// keyword to the end of its last token (the `;` included when one
	// closes it), the body from its first token to the end of its last.
	Start, End         int
	BodyStart, BodyEnd int
}

// Label returns the human-readable identity used in warning reports,
// e.g. "for(line 6)".
func (li LoopInfo) Label() string {
	var sb strings.Builder
	sb.WriteString(li.Kind)
	sb.WriteString("(line ")
	writeInt(&sb, li.Line)
	sb.WriteString(")")
	return sb.String()
}

func writeInt(sb *strings.Builder, n int) {
	if n < 0 {
		sb.WriteByte('-')
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	sb.Write(buf[i:])
}

// ---- Statements ----

// VarDecl is `var a = 1, b;`.
type VarDecl struct {
	TokPos token.Pos
	Names  []string
	Inits  []Expr // same length as Names; nil entries mean no initializer
}

// FuncDecl is `function f(a, b) { ... }`.
type FuncDecl struct {
	TokPos token.Pos
	Name   string
	Fn     *FuncLit
}

// ExprStmt wraps an expression used as a statement.
type ExprStmt struct {
	X Expr
}

// BlockStmt is `{ ... }`.
type BlockStmt struct {
	TokPos token.Pos
	Body   []Stmt
}

// IfStmt is `if (cond) cons else alt`.
type IfStmt struct {
	TokPos   token.Pos
	BranchID int // stable ID for divergence profiling
	Cond     Expr
	Cons     Stmt
	Alt      Stmt // may be nil
}

// ForStmt is the C-style `for(init; cond; post) body`.
type ForStmt struct {
	TokPos token.Pos
	Loop   LoopID
	Init   Stmt // VarDecl or ExprStmt, may be nil
	Cond   Expr // may be nil
	Post   Expr // may be nil
	Body   Stmt
}

// WhileStmt is `while (cond) body`.
type WhileStmt struct {
	TokPos token.Pos
	Loop   LoopID
	Cond   Expr
	Body   Stmt
}

// DoWhileStmt is `do body while (cond);`.
type DoWhileStmt struct {
	TokPos token.Pos
	Loop   LoopID
	Cond   Expr
	Body   Stmt
}

// ForInStmt is `for (var k in obj) body`.
type ForInStmt struct {
	TokPos  token.Pos
	Loop    LoopID
	Declare bool // true when written `for (var k in ...)`
	Name    string
	Obj     Expr
	Body    Stmt
}

// ReturnStmt is `return x;`.
type ReturnStmt struct {
	TokPos token.Pos
	X      Expr // may be nil
}

// BreakStmt is `break;` (unlabelled only in this subset).
type BreakStmt struct{ TokPos token.Pos }

// ContinueStmt is `continue;`.
type ContinueStmt struct{ TokPos token.Pos }

// ThrowStmt is `throw x;`.
type ThrowStmt struct {
	TokPos token.Pos
	X      Expr
}

// TryStmt is `try {..} catch (e) {..} finally {..}`.
type TryStmt struct {
	TokPos    token.Pos
	Body      *BlockStmt
	CatchName string
	Catch     *BlockStmt // may be nil
	Finally   *BlockStmt // may be nil
}

// SwitchStmt is `switch (x) { case a: ...; default: ... }`.
type SwitchStmt struct {
	TokPos token.Pos
	Disc   Expr
	Cases  []SwitchCase
}

// SwitchCase is one `case expr:` (Test nil for default) arm.
type SwitchCase struct {
	Test Expr // nil means default
	Body []Stmt
}

// EmptyStmt is a stray `;`.
type EmptyStmt struct{ TokPos token.Pos }

func (*VarDecl) stmtNode()      {}
func (*FuncDecl) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*BlockStmt) stmtNode()    {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*ForInStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ThrowStmt) stmtNode()    {}
func (*TryStmt) stmtNode()      {}
func (*SwitchStmt) stmtNode()   {}
func (*EmptyStmt) stmtNode()    {}

func (s *VarDecl) Pos() token.Pos      { return s.TokPos }
func (s *FuncDecl) Pos() token.Pos     { return s.TokPos }
func (s *ExprStmt) Pos() token.Pos     { return s.X.Pos() }
func (s *BlockStmt) Pos() token.Pos    { return s.TokPos }
func (s *IfStmt) Pos() token.Pos       { return s.TokPos }
func (s *ForStmt) Pos() token.Pos      { return s.TokPos }
func (s *WhileStmt) Pos() token.Pos    { return s.TokPos }
func (s *DoWhileStmt) Pos() token.Pos  { return s.TokPos }
func (s *ForInStmt) Pos() token.Pos    { return s.TokPos }
func (s *ReturnStmt) Pos() token.Pos   { return s.TokPos }
func (s *BreakStmt) Pos() token.Pos    { return s.TokPos }
func (s *ContinueStmt) Pos() token.Pos { return s.TokPos }
func (s *ThrowStmt) Pos() token.Pos    { return s.TokPos }
func (s *TryStmt) Pos() token.Pos      { return s.TokPos }
func (s *SwitchStmt) Pos() token.Pos   { return s.TokPos }
func (s *EmptyStmt) Pos() token.Pos    { return s.TokPos }

// ---- Expressions ----

// Ident is a variable reference.
type Ident struct {
	TokPos token.Pos
	Name   string
}

// NumberLit is a numeric literal with its parsed value.
type NumberLit struct {
	TokPos token.Pos
	Value  float64
}

// StringLit is a string literal.
type StringLit struct {
	TokPos token.Pos
	Value  string
}

// BoolLit is true/false.
type BoolLit struct {
	TokPos token.Pos
	Value  bool
}

// NullLit is `null`.
type NullLit struct{ TokPos token.Pos }

// UndefinedLit is `undefined`.
type UndefinedLit struct{ TokPos token.Pos }

// ThisExpr is `this`.
type ThisExpr struct{ TokPos token.Pos }

// ArrayLit is `[a, b, c]`.
type ArrayLit struct {
	TokPos token.Pos
	Elems  []Expr
}

// ObjectLit is `{k: v, "s": w}`.
type ObjectLit struct {
	TokPos token.Pos
	Keys   []string
	Values []Expr
}

// FuncLit is `function (a, b) { ... }`.
type FuncLit struct {
	TokPos token.Pos
	Name   string // optional (named function expressions / declarations)
	Params []string
	Body   *BlockStmt
	// VarNames lists every `var` and inner function declaration in the
	// function body (not nested functions); the interpreter hoists these
	// to function scope, which the paper's §3.3 example relies on.
	VarNames []string

	src string // see Source
}

// Source is the literal's own text, from `function` through its closing
// `}`: a slice of the parsed Program.Source, so it costs no copy. It is
// "" when the parse was aborted inside the literal (nesting too deep).
func (e *FuncLit) Source() string { return e.src }

// SetSource records the literal's text; the parser calls it once the
// closing `}` is consumed.
func (e *FuncLit) SetSource(src string) { e.src = src }

// UnaryExpr is prefix `-x`, `!x`, `~x`, `+x`, `typeof x`, `delete x.f`.
type UnaryExpr struct {
	TokPos token.Pos
	Op     token.Type
	X      Expr
}

// UpdateExpr is `++x`, `x++`, `--x`, `x--`.
type UpdateExpr struct {
	TokPos token.Pos
	Op     token.Type // INC or DEC
	Prefix bool
	X      Expr // Ident, Member or Index
}

// BinaryExpr is a binary operator application.
type BinaryExpr struct {
	TokPos   token.Pos
	Op       token.Type
	BranchID int // for && and || divergence profiling (0 otherwise)
	L, R     Expr
}

// CondExpr is `c ? a : b`.
type CondExpr struct {
	TokPos   token.Pos
	BranchID int
	Cond     Expr
	Cons     Expr
	Alt      Expr
}

// AssignExpr is `lhs = rhs` or compound `lhs op= rhs`.
type AssignExpr struct {
	TokPos token.Pos
	Op     token.Type // ASSIGN or compound
	L      Expr       // Ident, Member or Index
	R      Expr
}

// CallExpr is `f(args...)` or `obj.m(args...)`.
type CallExpr struct {
	TokPos token.Pos
	Fn     Expr
	Args   []Expr
}

// NewExpr is `new F(args...)`.
type NewExpr struct {
	TokPos token.Pos
	Fn     Expr
	Args   []Expr
}

// MemberExpr is `x.name`.
type MemberExpr struct {
	TokPos token.Pos
	X      Expr
	Name   string
}

// IndexExpr is `x[i]`.
type IndexExpr struct {
	TokPos token.Pos
	X      Expr
	Index  Expr
}

// SeqExpr is the comma operator `a, b` (needed for for-loop posts).
type SeqExpr struct {
	TokPos token.Pos
	Exprs  []Expr
}

func (*Ident) exprNode()        {}
func (*NumberLit) exprNode()    {}
func (*StringLit) exprNode()    {}
func (*BoolLit) exprNode()      {}
func (*NullLit) exprNode()      {}
func (*UndefinedLit) exprNode() {}
func (*ThisExpr) exprNode()     {}
func (*ArrayLit) exprNode()     {}
func (*ObjectLit) exprNode()    {}
func (*FuncLit) exprNode()      {}
func (*UnaryExpr) exprNode()    {}
func (*UpdateExpr) exprNode()   {}
func (*BinaryExpr) exprNode()   {}
func (*CondExpr) exprNode()     {}
func (*AssignExpr) exprNode()   {}
func (*CallExpr) exprNode()     {}
func (*NewExpr) exprNode()      {}
func (*MemberExpr) exprNode()   {}
func (*IndexExpr) exprNode()    {}
func (*SeqExpr) exprNode()      {}

func (e *Ident) Pos() token.Pos        { return e.TokPos }
func (e *NumberLit) Pos() token.Pos    { return e.TokPos }
func (e *StringLit) Pos() token.Pos    { return e.TokPos }
func (e *BoolLit) Pos() token.Pos      { return e.TokPos }
func (e *NullLit) Pos() token.Pos      { return e.TokPos }
func (e *UndefinedLit) Pos() token.Pos { return e.TokPos }
func (e *ThisExpr) Pos() token.Pos     { return e.TokPos }
func (e *ArrayLit) Pos() token.Pos     { return e.TokPos }
func (e *ObjectLit) Pos() token.Pos    { return e.TokPos }
func (e *FuncLit) Pos() token.Pos      { return e.TokPos }
func (e *UnaryExpr) Pos() token.Pos    { return e.TokPos }
func (e *UpdateExpr) Pos() token.Pos   { return e.TokPos }
func (e *BinaryExpr) Pos() token.Pos   { return e.TokPos }
func (e *CondExpr) Pos() token.Pos     { return e.TokPos }
func (e *AssignExpr) Pos() token.Pos   { return e.TokPos }
func (e *CallExpr) Pos() token.Pos     { return e.TokPos }
func (e *NewExpr) Pos() token.Pos      { return e.TokPos }
func (e *MemberExpr) Pos() token.Pos   { return e.TokPos }
func (e *IndexExpr) Pos() token.Pos    { return e.TokPos }
func (e *SeqExpr) Pos() token.Pos      { return e.TokPos }
