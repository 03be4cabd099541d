// Package parser builds ASTs for the JavaScript subset.
//
// It is a recursive-descent parser with Pratt-style operator precedence for
// expressions. The parser assigns a stable ast.LoopID to every syntactic
// loop and a BranchID to every branching construct; JS-CERES keys its
// profiles and dependence warnings off these identities.
//
// The nodes and child lists of one Parse come from that parse's slabs
// (slab.go): a tree costs a few hundred allocations, not one per node,
// and is ordinary garbage once nothing refers into it.
package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/js/ast"
	"repro/internal/js/lexer"
	"repro/internal/js/token"
)

// Parser parses a single source file.
type Parser struct {
	lex  *lexer.Lexer
	cur  token.Token
	next token.Token
	// prevEnd is the byte offset just past the last token consumed.
	prevEnd int
	errs    []error

	loops    []ast.LoopInfo
	branchID int

	// vars collects hoisted names; those of the innermost enclosing
	// function start at varMark, which is -1 outside any function (the
	// top level's are TopLevelVars' to find).
	vars    lists[string]
	varMark int

	// depth counts the grammar's recursion (see descend); once it has
	// passed maxNesting the parse is aborted and reports nothing more.
	depth   int
	aborted bool

	// The node types and child lists a page is mostly made of.
	idents   slab[ast.Ident]
	numbers  slab[ast.NumberLit]
	binaries slab[ast.BinaryExpr]
	assigns  slab[ast.AssignExpr]
	calls    slab[ast.CallExpr]
	members  slab[ast.MemberExpr]
	indexes  slab[ast.IndexExpr]
	exprStmt slab[ast.ExprStmt]
	varDecls slab[ast.VarDecl]
	blocks   slab[ast.BlockStmt]
	exprs    lists[ast.Expr]
	stmts    lists[ast.Stmt]
	names    lists[string]
}

// maxNesting bounds how deep statements, parentheses, brackets, braces,
// function bodies and prefix/assignment/conditional chains may nest. The
// parser recurses on each, so without a bound a few megabytes of `(`
// overflow the goroutine stack, which no recover can contain.
const maxNesting = 1000

// descend enters one level of grammar recursion; the caller leaves it
// with p.depth--. Past maxNesting it reports the one error the parse
// ends with and swaps in an exhausted lexer, so every caller sees EOF,
// unwinds, and (errorf being muted) adds nothing.
func (p *Parser) descend() bool {
	if p.depth++; p.depth <= maxNesting {
		return true
	}
	if !p.aborted {
		p.errorf(p.cur.Pos, "nesting deeper than %d", maxNesting)
		p.errs = append(p.errs, p.lex.Errors()...)
		p.aborted, p.lex = true, lexer.New("")
		p.cur, p.next = p.lex.Next(), p.lex.Next()
	}
	return false
}

// Parse parses src and returns the Program. The returned error wraps all
// syntax errors encountered.
func Parse(src string) (*ast.Program, error) {
	p := &Parser{lex: lexer.New(src), varMark: -1}
	p.cur = p.lex.Next()
	p.next = p.lex.Next()

	prog := &ast.Program{Source: src}
	for p.cur.Type != token.EOF {
		if s := p.statement(); s != nil {
			p.stmts.push(s)
		}
		if len(p.errs) > 25 {
			break // avoid error cascades on badly broken input
		}
	}
	prog.Body = p.stmts.close(0)
	prog.Loops = p.loops
	p.errs = append(p.errs, p.lex.Errors()...)
	if len(p.errs) > 0 {
		msgs := make([]string, len(p.errs))
		for i, e := range p.errs {
			msgs[i] = e.Error()
		}
		return prog, errors.New(strings.Join(msgs, "\n"))
	}
	return prog, nil
}

// MustParse parses src and panics on error; for tests and embedded sources.
func MustParse(src string) *ast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	if p.aborted {
		return
	}
	p.errs = append(p.errs, fmt.Errorf("parse %s: %s", pos, fmt.Sprintf(format, args...)))
}

func (p *Parser) advance() token.Token {
	t := p.cur
	p.prevEnd = t.End
	p.cur = p.next
	p.next = p.lex.Next()
	return t
}

func (p *Parser) expect(t token.Type) token.Token {
	if p.cur.Type != t {
		p.errorf(p.cur.Pos, "expected %s, found %s", t, p.cur)
		// do not consume; caller-driven recovery
		return token.Token{Type: t, Pos: p.cur.Pos}
	}
	return p.advance()
}

func (p *Parser) accept(t token.Type) bool {
	if p.cur.Type == t {
		p.advance()
		return true
	}
	return false
}

// newLoop registers the loop whose keyword is kw and whose body starts
// at the current token. IDs follow the order of registration: a loop
// inside a header's function literal is numbered before the loop whose
// header it is in.
func (p *Parser) newLoop(kind string, kw token.Token) ast.LoopID {
	id := ast.LoopID(len(p.loops) + 1)
	p.loops = append(p.loops, ast.LoopInfo{ID: id, Kind: kind, Line: kw.Pos.Line,
		Start: kw.Off, BodyStart: p.cur.Off})
	return id
}

// loopBody parses the body of loop id and records where it ended, which
// for every loop but do-while is where the statement ends too.
func (p *Parser) loopBody(id ast.LoopID) ast.Stmt {
	body := p.statement()
	li := &p.loops[id-1]
	li.BodyEnd, li.End = p.prevEnd, p.prevEnd
	return body
}

func (p *Parser) newBranch() int {
	p.branchID++
	return p.branchID
}

func (p *Parser) hoist(name string) {
	if p.varMark < 0 {
		return
	}
	for _, n := range p.vars.open[p.varMark:] {
		if n == name {
			return
		}
	}
	p.vars.push(name)
}

// TopLevelVars returns the hoisted var names of the top-level scope. Valid
// only after Parse; exposed for the interpreter's global setup.
func TopLevelVars(prog *ast.Program) []string {
	var names []string
	seen := map[string]bool{}
	var scan func(s ast.Stmt)
	scan = func(s ast.Stmt) {
		switch x := s.(type) {
		case *ast.VarDecl:
			for _, n := range x.Names {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		case *ast.FuncDecl:
			if !seen[x.Name] {
				seen[x.Name] = true
				names = append(names, x.Name)
			}
		case *ast.BlockStmt:
			for _, s2 := range x.Body {
				scan(s2)
			}
		case *ast.IfStmt:
			scan(x.Cons)
			if x.Alt != nil {
				scan(x.Alt)
			}
		case *ast.ForStmt:
			if x.Init != nil {
				scan(x.Init)
			}
			scan(x.Body)
		case *ast.WhileStmt:
			scan(x.Body)
		case *ast.DoWhileStmt:
			scan(x.Body)
		case *ast.ForInStmt:
			if x.Declare && !seen[x.Name] {
				seen[x.Name] = true
				names = append(names, x.Name)
			}
			scan(x.Body)
		case *ast.TryStmt:
			scan(x.Body)
			if x.Catch != nil {
				scan(x.Catch)
			}
			if x.Finally != nil {
				scan(x.Finally)
			}
		case *ast.SwitchStmt:
			for _, c := range x.Cases {
				for _, s2 := range c.Body {
					scan(s2)
				}
			}
		}
	}
	for _, s := range prog.Body {
		scan(s)
	}
	return names
}

// ---- Statements ----

func (p *Parser) statement() ast.Stmt {
	if !p.descend() {
		return nil
	}
	defer func() { p.depth-- }()
	switch p.cur.Type {
	case token.SEMI:
		pos := p.advance().Pos
		return &ast.EmptyStmt{TokPos: pos}
	case token.LBRACE:
		return p.block()
	case token.VAR:
		s := p.varDecl()
		p.accept(token.SEMI)
		return s
	case token.FUNCTION:
		return p.funcDecl()
	case token.IF:
		return p.ifStmt()
	case token.FOR:
		return p.forStmt()
	case token.WHILE:
		return p.whileStmt()
	case token.DO:
		return p.doWhileStmt()
	case token.RETURN:
		pos := p.advance().Pos
		var x ast.Expr
		if p.cur.Type != token.SEMI && p.cur.Type != token.RBRACE && p.cur.Type != token.EOF {
			x = p.expression()
		}
		p.accept(token.SEMI)
		return &ast.ReturnStmt{TokPos: pos, X: x}
	case token.BREAK:
		pos := p.advance().Pos
		p.accept(token.SEMI)
		return &ast.BreakStmt{TokPos: pos}
	case token.CONTINUE:
		pos := p.advance().Pos
		p.accept(token.SEMI)
		return &ast.ContinueStmt{TokPos: pos}
	case token.THROW:
		pos := p.advance().Pos
		x := p.expression()
		p.accept(token.SEMI)
		return &ast.ThrowStmt{TokPos: pos, X: x}
	case token.TRY:
		return p.tryStmt()
	case token.SWITCH:
		return p.switchStmt()
	case token.ILLEGAL:
		p.errorf(p.cur.Pos, "illegal token %q", p.cur.Literal)
		p.advance()
		return nil
	default:
		x := p.expression()
		p.accept(token.SEMI)
		if x == nil {
			return nil
		}
		return p.exprStmt.put(ast.ExprStmt{X: x})
	}
}

func (p *Parser) block() *ast.BlockStmt {
	pos := p.expect(token.LBRACE).Pos
	mark := len(p.stmts.open)
	for p.cur.Type != token.RBRACE && p.cur.Type != token.EOF {
		before := p.cur.Off
		if s := p.statement(); s != nil {
			p.stmts.push(s)
		}
		if p.cur.Off == before && p.cur.Type != token.RBRACE {
			p.advance() // force progress on malformed input
		}
	}
	p.expect(token.RBRACE)
	return p.blocks.put(ast.BlockStmt{TokPos: pos, Body: p.stmts.close(mark)})
}

func (p *Parser) varDecl() *ast.VarDecl {
	pos := p.expect(token.VAR).Pos
	return p.declarators(pos, p.expect(token.IDENT).Literal)
}

// declarators parses the rest of the var statement at pos, whose first
// name has been consumed.
func (p *Parser) declarators(pos token.Pos, name string) *ast.VarDecl {
	names, inits := len(p.names.open), len(p.exprs.open)
	for {
		p.hoist(name)
		var init ast.Expr
		if p.accept(token.ASSIGN) {
			init = p.assignExpr()
		}
		p.names.push(name)
		p.exprs.push(init)
		if !p.accept(token.COMMA) {
			break
		}
		name = p.expect(token.IDENT).Literal
	}
	return p.varDecls.put(ast.VarDecl{TokPos: pos, Names: p.names.close(names), Inits: p.exprs.close(inits)})
}

func (p *Parser) funcDecl() ast.Stmt {
	pos := p.cur.Pos
	fn := p.funcLit()
	if fn.Name == "" {
		p.errorf(pos, "function declaration requires a name")
		fn.Name = "_anon"
	}
	p.hoist(fn.Name)
	return &ast.FuncDecl{TokPos: pos, Name: fn.Name, Fn: fn}
}

func (p *Parser) funcLit() *ast.FuncLit {
	pos := p.expect(token.FUNCTION).Pos
	f := &ast.FuncLit{TokPos: pos}
	if p.cur.Type == token.IDENT {
		f.Name = p.advance().Literal
	}
	p.expect(token.LPAREN)
	params := len(p.names.open)
	for p.cur.Type != token.RPAREN && p.cur.Type != token.EOF {
		p.names.push(p.expect(token.IDENT).Literal)
		if !p.accept(token.COMMA) {
			break
		}
	}
	f.Params = p.names.close(params)
	p.expect(token.RPAREN)
	outer := p.varMark
	p.varMark = len(p.vars.open)
	f.Body = p.block()
	f.VarNames = p.vars.close(p.varMark)
	p.varMark = outer
	return f
}

func (p *Parser) ifStmt() ast.Stmt {
	pos := p.expect(token.IF).Pos
	p.expect(token.LPAREN)
	cond := p.expression()
	p.expect(token.RPAREN)
	cons := p.statement()
	var alt ast.Stmt
	if p.accept(token.ELSE) {
		alt = p.statement()
	}
	return &ast.IfStmt{TokPos: pos, BranchID: p.newBranch(), Cond: cond, Cons: cons, Alt: alt}
}

func (p *Parser) forStmt() ast.Stmt {
	kw := p.expect(token.FOR)
	p.expect(token.LPAREN)

	// Distinguish for-in from C-style for.
	if p.cur.Type == token.VAR && p.next.Type == token.IDENT {
		// could be `for (var k in obj)` — need 3-token lookahead; parse the
		// var clause and check for IN before the first comma/semicolon.
		varPos := p.advance().Pos
		name := p.expect(token.IDENT).Literal
		if p.accept(token.IN) {
			p.hoist(name)
			obj := p.expression()
			p.expect(token.RPAREN)
			id := p.newLoop("for-in", kw)
			body := p.loopBody(id)
			return &ast.ForInStmt{TokPos: kw.Pos, Loop: id, Declare: true, Name: name, Obj: obj, Body: body}
		}
		return p.forTail(kw, p.declarators(varPos, name)) // C-style with var init
	}
	if p.cur.Type == token.IDENT && p.next.Type == token.IN {
		name := p.advance().Literal
		p.advance() // IN
		obj := p.expression()
		p.expect(token.RPAREN)
		id := p.newLoop("for-in", kw)
		body := p.loopBody(id)
		return &ast.ForInStmt{TokPos: kw.Pos, Loop: id, Declare: false, Name: name, Obj: obj, Body: body}
	}

	var init ast.Stmt
	if p.cur.Type != token.SEMI {
		init = p.exprStmt.put(ast.ExprStmt{X: p.expression()})
	}
	return p.forTail(kw, init)
}

// forTail parses `; cond ; post ) body` for C-style for loops.
func (p *Parser) forTail(kw token.Token, init ast.Stmt) ast.Stmt {
	p.expect(token.SEMI)
	var cond ast.Expr
	if p.cur.Type != token.SEMI {
		cond = p.expression()
	}
	p.expect(token.SEMI)
	var post ast.Expr
	if p.cur.Type != token.RPAREN {
		post = p.expression()
	}
	p.expect(token.RPAREN)
	id := p.newLoop("for", kw)
	body := p.loopBody(id)
	return &ast.ForStmt{TokPos: kw.Pos, Loop: id, Init: init, Cond: cond, Post: post, Body: body}
}

func (p *Parser) whileStmt() ast.Stmt {
	kw := p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.expression()
	p.expect(token.RPAREN)
	id := p.newLoop("while", kw)
	body := p.loopBody(id)
	return &ast.WhileStmt{TokPos: kw.Pos, Loop: id, Cond: cond, Body: body}
}

func (p *Parser) doWhileStmt() ast.Stmt {
	kw := p.expect(token.DO)
	id := p.newLoop("do-while", kw)
	body := p.loopBody(id)
	p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.expression()
	p.expect(token.RPAREN)
	p.accept(token.SEMI)
	p.loops[id-1].End = p.prevEnd
	return &ast.DoWhileStmt{TokPos: kw.Pos, Loop: id, Cond: cond, Body: body}
}

func (p *Parser) tryStmt() ast.Stmt {
	pos := p.expect(token.TRY).Pos
	body := p.block()
	t := &ast.TryStmt{TokPos: pos, Body: body}
	if p.accept(token.CATCH) {
		p.expect(token.LPAREN)
		t.CatchName = p.expect(token.IDENT).Literal
		p.expect(token.RPAREN)
		t.Catch = p.block()
	}
	if p.accept(token.FINALLY) {
		t.Finally = p.block()
	}
	if t.Catch == nil && t.Finally == nil {
		p.errorf(pos, "try requires catch or finally")
	}
	return t
}

func (p *Parser) switchStmt() ast.Stmt {
	pos := p.expect(token.SWITCH).Pos
	p.expect(token.LPAREN)
	disc := p.expression()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	s := &ast.SwitchStmt{TokPos: pos, Disc: disc}
	for p.cur.Type == token.CASE || p.cur.Type == token.DEFAULT {
		var c ast.SwitchCase
		if p.accept(token.CASE) {
			c.Test = p.expression()
		} else {
			p.expect(token.DEFAULT)
		}
		p.expect(token.COLON)
		mark := len(p.stmts.open)
		for p.cur.Type != token.CASE && p.cur.Type != token.DEFAULT &&
			p.cur.Type != token.RBRACE && p.cur.Type != token.EOF {
			if st := p.statement(); st != nil {
				p.stmts.push(st)
			}
		}
		c.Body = p.stmts.close(mark)
		s.Cases = append(s.Cases, c)
	}
	p.expect(token.RBRACE)
	return s
}

// ---- Expressions (Pratt) ----

// expression parses a full expression including the comma operator.
func (p *Parser) expression() ast.Expr {
	x := p.assignExpr()
	if p.cur.Type != token.COMMA {
		return x
	}
	mark := len(p.exprs.open)
	p.exprs.push(x)
	for p.accept(token.COMMA) {
		p.exprs.push(p.assignExpr())
	}
	return &ast.SeqExpr{TokPos: x.Pos(), Exprs: p.exprs.close(mark)}
}

func (p *Parser) assignExpr() ast.Expr {
	if !p.descend() {
		return &ast.UndefinedLit{TokPos: p.cur.Pos}
	}
	x := p.condExpr()
	if p.cur.Type.IsAssign() {
		op := p.advance()
		if !isAssignable(x) {
			p.errorf(op.Pos, "invalid assignment target")
		}
		x = p.assigns.put(ast.AssignExpr{TokPos: op.Pos, Op: op.Type, L: x, R: p.assignExpr()})
	}
	p.depth--
	return x
}

func isAssignable(x ast.Expr) bool {
	switch x.(type) {
	case *ast.Ident, *ast.MemberExpr, *ast.IndexExpr:
		return true
	}
	return false
}

func (p *Parser) condExpr() ast.Expr {
	cond := p.binaryExpr(0)
	if !p.accept(token.QUESTION) {
		return cond
	}
	cons := p.assignExpr()
	p.expect(token.COLON)
	alt := p.assignExpr()
	return &ast.CondExpr{TokPos: cond.Pos(), BranchID: p.newBranch(), Cond: cond, Cons: cons, Alt: alt}
}

// binding powers for binary operators
func precedence(t token.Type) int {
	switch t {
	case token.LOR:
		return 1
	case token.LAND:
		return 2
	case token.OR:
		return 3
	case token.XOR:
		return 4
	case token.AND:
		return 5
	case token.EQ, token.NEQ, token.STRICTEQ, token.STRICTNE:
		return 6
	case token.LT, token.GT, token.LE, token.GE, token.IN, token.INSTANCEOF:
		return 7
	case token.SHL, token.SHR, token.USHR:
		return 8
	case token.PLUS, token.MINUS:
		return 9
	case token.STAR, token.SLASH, token.PERCENT:
		return 10
	}
	return 0
}

func (p *Parser) binaryExpr(minPrec int) ast.Expr {
	left := p.unaryExpr()
	for {
		prec := precedence(p.cur.Type)
		if prec == 0 || prec < minPrec {
			return left
		}
		op := p.advance()
		right := p.binaryExpr(prec + 1)
		be := p.binaries.put(ast.BinaryExpr{TokPos: op.Pos, Op: op.Type, L: left, R: right})
		if op.Type == token.LAND || op.Type == token.LOR {
			be.BranchID = p.newBranch()
		}
		left = be
	}
}

func (p *Parser) unaryExpr() ast.Expr {
	switch p.cur.Type {
	case token.NOT, token.BITNOT, token.MINUS, token.PLUS, token.TYPEOF, token.DELETE:
		op := p.advance()
		return &ast.UnaryExpr{TokPos: op.Pos, Op: op.Type, X: p.operand()}
	case token.INC, token.DEC:
		op := p.advance()
		x := p.operand()
		if !isAssignable(x) {
			p.errorf(op.Pos, "invalid %s target", op.Type)
		}
		return &ast.UpdateExpr{TokPos: op.Pos, Op: op.Type, Prefix: true, X: x}
	}
	return p.postfixExpr()
}

// operand parses what a prefix operator applies to, one level deeper.
func (p *Parser) operand() ast.Expr {
	if !p.descend() {
		return &ast.UndefinedLit{TokPos: p.cur.Pos}
	}
	x := p.unaryExpr()
	p.depth--
	return x
}

func (p *Parser) postfixExpr() ast.Expr {
	x := p.callExpr()
	if p.cur.Type == token.INC || p.cur.Type == token.DEC {
		op := p.advance()
		if !isAssignable(x) {
			p.errorf(op.Pos, "invalid %s target", op.Type)
		}
		return &ast.UpdateExpr{TokPos: op.Pos, Op: op.Type, Prefix: false, X: x}
	}
	return x
}

func (p *Parser) callExpr() ast.Expr {
	var x ast.Expr
	if p.cur.Type == token.NEW {
		x = p.newExpr()
	} else {
		x = p.primaryExpr()
	}
	for {
		switch p.cur.Type {
		case token.DOT:
			pos := p.advance().Pos
			name := p.memberName()
			x = p.members.put(ast.MemberExpr{TokPos: pos, X: x, Name: name})
		case token.LBRACKET:
			pos := p.advance().Pos
			idx := p.expression()
			p.expect(token.RBRACKET)
			x = p.indexes.put(ast.IndexExpr{TokPos: pos, X: x, Index: idx})
		case token.LPAREN:
			pos := p.advance().Pos
			x = p.calls.put(ast.CallExpr{TokPos: pos, Fn: x, Args: p.arguments(token.RPAREN)})
		default:
			return x
		}
	}
}

// arguments parses comma-separated assignment expressions up to and
// including the closing token: call arguments or array elements.
func (p *Parser) arguments(closing token.Type) []ast.Expr {
	mark := len(p.exprs.open)
	for p.cur.Type != closing && p.cur.Type != token.EOF {
		p.exprs.push(p.assignExpr())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(closing)
	return p.exprs.close(mark)
}

// memberName accepts identifiers and keywords used as property names
// (`obj.length`, `caman.this` is not needed but `x.in` style occurs in the
// wild; we accept any keyword spelling after a dot).
func (p *Parser) memberName() string {
	t := p.cur
	if t.Type == token.IDENT || t.Literal != "" && isWordToken(t.Type) {
		p.advance()
		return t.Literal
	}
	p.errorf(t.Pos, "expected property name, found %s", t)
	return "_err"
}

func isWordToken(t token.Type) bool {
	switch t {
	case token.VAR, token.FUNCTION, token.RETURN, token.IF, token.ELSE, token.FOR,
		token.WHILE, token.DO, token.BREAK, token.CONTINUE, token.NEW, token.DELETE,
		token.TYPEOF, token.INSTANCEOF, token.IN, token.THIS, token.NULL, token.TRUE,
		token.FALSE, token.UNDEFINED, token.SWITCH, token.CASE, token.DEFAULT,
		token.THROW, token.TRY, token.CATCH, token.FINALLY:
		return true
	}
	return false
}

func (p *Parser) newExpr() ast.Expr {
	if !p.descend() {
		return &ast.UndefinedLit{TokPos: p.cur.Pos}
	}
	defer func() { p.depth-- }()
	pos := p.expect(token.NEW).Pos
	// new F, new F(), new a.b.C(...)
	var callee ast.Expr
	if p.cur.Type == token.NEW {
		callee = p.newExpr()
	} else {
		callee = p.primaryExpr()
	}
	for {
		switch p.cur.Type {
		case token.DOT:
			dp := p.advance().Pos
			name := p.memberName()
			callee = p.members.put(ast.MemberExpr{TokPos: dp, X: callee, Name: name})
		case token.LBRACKET:
			bp := p.advance().Pos
			idx := p.expression()
			p.expect(token.RBRACKET)
			callee = p.indexes.put(ast.IndexExpr{TokPos: bp, X: callee, Index: idx})
		default:
			goto args
		}
	}
args:
	var args []ast.Expr
	if p.accept(token.LPAREN) {
		args = p.arguments(token.RPAREN)
	}
	return &ast.NewExpr{TokPos: pos, Fn: callee, Args: args}
}

func (p *Parser) primaryExpr() ast.Expr {
	t := p.cur
	switch t.Type {
	case token.IDENT:
		p.advance()
		return p.idents.put(ast.Ident{TokPos: t.Pos, Name: t.Literal})
	case token.NUMBER:
		p.advance()
		v, err := parseNumber(t.Literal)
		if err != nil {
			p.errorf(t.Pos, "bad number %q: %v", t.Literal, err)
		}
		return p.numbers.put(ast.NumberLit{TokPos: t.Pos, Value: v})
	case token.STRING:
		p.advance()
		return &ast.StringLit{TokPos: t.Pos, Value: t.Literal}
	case token.TRUE:
		p.advance()
		return &ast.BoolLit{TokPos: t.Pos, Value: true}
	case token.FALSE:
		p.advance()
		return &ast.BoolLit{TokPos: t.Pos, Value: false}
	case token.NULL:
		p.advance()
		return &ast.NullLit{TokPos: t.Pos}
	case token.UNDEFINED:
		p.advance()
		return &ast.UndefinedLit{TokPos: t.Pos}
	case token.THIS:
		p.advance()
		return &ast.ThisExpr{TokPos: t.Pos}
	case token.LPAREN:
		p.advance()
		x := p.expression()
		p.expect(token.RPAREN)
		return x
	case token.LBRACKET:
		p.advance()
		return &ast.ArrayLit{TokPos: t.Pos, Elems: p.arguments(token.RBRACKET)}
	case token.LBRACE:
		p.advance()
		keys, values := len(p.names.open), len(p.exprs.open)
		for p.cur.Type != token.RBRACE && p.cur.Type != token.EOF {
			var key string
			switch p.cur.Type {
			case token.IDENT, token.STRING, token.NUMBER:
				key = p.advance().Literal
			default:
				if isWordToken(p.cur.Type) {
					key = p.advance().Literal
				} else {
					p.errorf(p.cur.Pos, "expected object key, found %s", p.cur)
					p.advance()
					continue
				}
			}
			p.expect(token.COLON)
			p.names.push(key)
			p.exprs.push(p.assignExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACE)
		return &ast.ObjectLit{TokPos: t.Pos, Keys: p.names.close(keys), Values: p.exprs.close(values)}
	case token.FUNCTION:
		return p.funcLit()
	default:
		p.errorf(t.Pos, "unexpected token %s", t)
		p.advance()
		return &ast.UndefinedLit{TokPos: t.Pos}
	}
}

func parseNumber(lit string) (float64, error) {
	if strings.HasPrefix(lit, "0x") || strings.HasPrefix(lit, "0X") {
		n, err := strconv.ParseUint(lit[2:], 16, 64)
		return float64(n), err
	}
	return strconv.ParseFloat(lit, 64)
}
