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
//
// Loops runs the same productions without keeping what they build: a
// source rewriter needs only the loop inventory and the verdict, and
// Loops(src) returns exactly Parse(src).Loops and Parse's error.
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
	src  string
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
	// interpreter's hoistInto finds the top level's when it runs).
	vars    lists[string]
	varMark int

	// depth counts the grammar's recursion (see descend); once it has
	// passed maxNesting the parse is aborted and reports nothing more.
	depth   int
	aborted bool

	// tree is false for Loops: every node of a type lands on the one
	// slot or stand-in of that type (slab.go) and no list is kept, so the
	// productions run, check and number loops as for Parse and build
	// nothing. Names are not hoisted and string values not decoded.
	tree bool

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
		p.lex.Scan(&p.cur)
		p.lex.Scan(&p.next)
	}
	return false
}

// Parse parses src and returns the Program. The returned error wraps all
// syntax errors encountered.
func Parse(src string) (*ast.Program, error) {
	p := &Parser{src: src, lex: lexer.New(src), varMark: -1, tree: true}
	body, err := p.program()
	return &ast.Program{Source: src, Body: body, Loops: p.loops}, err
}

// Loops is Parse(src)'s Loops and error, from the same productions run
// without building the tree.
func Loops(src string) ([]ast.LoopInfo, error) {
	p := &Parser{src: src, lex: lexer.New(src), varMark: -1}
	_, err := p.program()
	return p.loops, err
}

// program parses the source to its end and returns the top level's
// statements, with an error that wraps every syntax error met.
func (p *Parser) program() ([]ast.Stmt, error) {
	p.lex.Scan(&p.cur)
	p.lex.Scan(&p.next)
	for p.cur.Type != token.EOF {
		if s := p.statement(); s != nil {
			p.stmts.push(s)
		}
		if len(p.errs) > 25 {
			break // avoid error cascades on badly broken input
		}
	}
	body := p.stmts.close(0, p.tree)
	p.errs = append(p.errs, p.lex.Errors()...)
	if len(p.errs) == 0 {
		return body, nil
	}
	msgs := make([]string, len(p.errs))
	for i, e := range p.errs {
		msgs[i] = e.Error()
	}
	return body, errors.New(strings.Join(msgs, "\n"))
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

// advance consumes the current token. The lexer scans the one after the
// next straight into p.next: a caller that needs the consumed token
// copies p.cur first.
func (p *Parser) advance() {
	p.prevEnd = p.cur.End
	p.cur = p.next
	p.lex.Scan(&p.next)
}

// expect consumes a token of type t, or reports that the current one is
// not and leaves it for the caller's recovery. Either way it returns the
// current token's position.
func (p *Parser) expect(t token.Type) token.Pos {
	pos := p.cur.Pos
	if p.cur.Type != t {
		p.errorf(pos, "expected %s, found %s", t, p.describe(&p.cur))
		return pos
	}
	p.advance()
	return pos
}

// ident consumes an identifier and returns its name, or reports it
// missing, as expect does, and returns "".
func (p *Parser) ident() string {
	if p.cur.Type != token.IDENT {
		p.expect(token.IDENT)
		return ""
	}
	name := p.cur.Text(p.src)
	p.advance()
	return name
}

// describe spells t the way an error names what it found: the text of a
// word, number or string token, the type of any other.
func (p *Parser) describe(t *token.Token) string {
	switch t.Type {
	case token.IDENT, token.NUMBER:
		return fmt.Sprintf("%s(%q)", t.Type, t.Text(p.src))
	case token.STRING:
		return fmt.Sprintf("%s(%q)", t.Type, lexer.StringValue(p.src, *t))
	}
	return t.Type.String()
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
	if p.varMark < 0 || !p.tree {
		return
	}
	for _, n := range p.vars.open[p.varMark:] {
		if n == name {
			return
		}
	}
	p.vars.push(name)
}

// ---- Statements ----

func (p *Parser) statement() ast.Stmt {
	if !p.descend() {
		return nil
	}
	s := p.statementBody()
	p.depth--
	return s
}

func (p *Parser) statementBody() ast.Stmt {
	pos := p.cur.Pos
	switch p.cur.Type {
	case token.SEMI:
		p.advance()
		return node(p, &standIns.empty, ast.EmptyStmt{TokPos: pos})
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
		p.advance()
		var x ast.Expr
		if p.cur.Type != token.SEMI && p.cur.Type != token.RBRACE && p.cur.Type != token.EOF {
			x = p.expression()
		}
		p.accept(token.SEMI)
		return node(p, &standIns.ret, ast.ReturnStmt{TokPos: pos, X: x})
	case token.BREAK:
		p.advance()
		p.accept(token.SEMI)
		return node(p, &standIns.brk, ast.BreakStmt{TokPos: pos})
	case token.CONTINUE:
		p.advance()
		p.accept(token.SEMI)
		return node(p, &standIns.cont, ast.ContinueStmt{TokPos: pos})
	case token.THROW:
		p.advance()
		x := p.expression()
		p.accept(token.SEMI)
		return node(p, &standIns.throw, ast.ThrowStmt{TokPos: pos, X: x})
	case token.TRY:
		return p.tryStmt()
	case token.SWITCH:
		return p.switchStmt()
	case token.ILLEGAL:
		p.errorf(pos, "illegal token %q", p.cur.Text(p.src))
		p.advance()
		return nil
	default:
		x := p.expression()
		p.accept(token.SEMI)
		if x == nil {
			return nil
		}
		return p.exprStmt.put(ast.ExprStmt{X: x}, p.tree)
	}
}

func (p *Parser) block() *ast.BlockStmt {
	pos := p.expect(token.LBRACE)
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
	return p.blocks.put(ast.BlockStmt{TokPos: pos, Body: p.stmts.close(mark, p.tree)}, p.tree)
}

func (p *Parser) varDecl() *ast.VarDecl {
	pos := p.expect(token.VAR)
	return p.declarators(pos, p.ident())
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
		name = p.ident()
	}
	return p.varDecls.put(ast.VarDecl{TokPos: pos, Names: p.names.close(names, p.tree), Inits: p.exprs.close(inits, p.tree)}, p.tree)
}

func (p *Parser) funcDecl() ast.Stmt {
	pos := p.cur.Pos
	fn := p.funcLit(true)
	p.hoist(fn.Name)
	return node(p, &standIns.funcDecl, ast.FuncDecl{TokPos: pos, Name: fn.Name, Fn: fn})
}

// funcLit parses a function literal, or the function of a declaration
// (decl), which must be named: a nameless one is reported and named
// "_anon". The node is built once its body is parsed, as every node is.
func (p *Parser) funcLit(decl bool) *ast.FuncLit {
	kw := p.cur
	p.expect(token.FUNCTION)
	var name string
	if p.cur.Type == token.IDENT {
		name = p.ident()
	}
	p.expect(token.LPAREN)
	mark := len(p.names.open)
	for p.cur.Type != token.RPAREN && p.cur.Type != token.EOF {
		p.names.push(p.ident())
		if !p.accept(token.COMMA) {
			break
		}
	}
	params := p.names.close(mark, p.tree)
	p.expect(token.RPAREN)
	outer := p.varMark
	p.varMark = len(p.vars.open)
	body := p.block()
	vars := p.vars.close(p.varMark, p.tree)
	p.varMark = outer
	if decl && name == "" {
		p.errorf(kw.Pos, "function declaration requires a name")
		name = "_anon"
	}
	f := node(p, &standIns.funcLit, ast.FuncLit{TokPos: kw.Pos, Name: name, Params: params, Body: body, VarNames: vars})
	if p.tree && !p.aborted { // past an abort, prevEnd indexes the swapped-in lexer's ""
		f.SetSource(p.src[kw.Off:p.prevEnd])
	}
	return f
}

func (p *Parser) ifStmt() ast.Stmt {
	pos := p.expect(token.IF)
	p.expect(token.LPAREN)
	cond := p.expression()
	p.expect(token.RPAREN)
	cons := p.statement()
	var alt ast.Stmt
	if p.accept(token.ELSE) {
		alt = p.statement()
	}
	return node(p, &standIns.ifStmt, ast.IfStmt{TokPos: pos, BranchID: p.newBranch(), Cond: cond, Cons: cons, Alt: alt})
}

func (p *Parser) forStmt() ast.Stmt {
	kw := p.cur
	p.expect(token.FOR)
	p.expect(token.LPAREN)

	// Distinguish for-in from C-style for.
	if p.cur.Type == token.VAR && p.next.Type == token.IDENT {
		// could be `for (var k in obj)` — need 3-token lookahead; parse the
		// var clause and check for IN before the first comma/semicolon.
		varPos := p.cur.Pos
		p.advance()
		name := p.ident()
		if p.accept(token.IN) {
			p.hoist(name)
			obj := p.expression()
			p.expect(token.RPAREN)
			id := p.newLoop("for-in", kw)
			body := p.loopBody(id)
			return node(p, &standIns.forIn, ast.ForInStmt{TokPos: kw.Pos, Loop: id, Declare: true, Name: name, Obj: obj, Body: body})
		}
		return p.forTail(kw, p.declarators(varPos, name)) // C-style with var init
	}
	if p.cur.Type == token.IDENT && p.next.Type == token.IN {
		name := p.ident()
		p.advance() // IN
		obj := p.expression()
		p.expect(token.RPAREN)
		id := p.newLoop("for-in", kw)
		body := p.loopBody(id)
		return node(p, &standIns.forIn, ast.ForInStmt{TokPos: kw.Pos, Loop: id, Declare: false, Name: name, Obj: obj, Body: body})
	}

	var init ast.Stmt
	if p.cur.Type != token.SEMI {
		init = p.exprStmt.put(ast.ExprStmt{X: p.expression()}, p.tree)
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
	return node(p, &standIns.forStmt, ast.ForStmt{TokPos: kw.Pos, Loop: id, Init: init, Cond: cond, Post: post, Body: body})
}

func (p *Parser) whileStmt() ast.Stmt {
	kw := p.cur
	p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.expression()
	p.expect(token.RPAREN)
	id := p.newLoop("while", kw)
	body := p.loopBody(id)
	return node(p, &standIns.while, ast.WhileStmt{TokPos: kw.Pos, Loop: id, Cond: cond, Body: body})
}

func (p *Parser) doWhileStmt() ast.Stmt {
	kw := p.cur
	p.expect(token.DO)
	id := p.newLoop("do-while", kw)
	body := p.loopBody(id)
	p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.expression()
	p.expect(token.RPAREN)
	p.accept(token.SEMI)
	p.loops[id-1].End = p.prevEnd
	return node(p, &standIns.doWhile, ast.DoWhileStmt{TokPos: kw.Pos, Loop: id, Cond: cond, Body: body})
}

func (p *Parser) tryStmt() ast.Stmt {
	pos := p.expect(token.TRY)
	body := p.block()
	var name string
	var catch, finally *ast.BlockStmt
	if p.accept(token.CATCH) {
		p.expect(token.LPAREN)
		name = p.ident()
		p.expect(token.RPAREN)
		catch = p.block()
	}
	if p.accept(token.FINALLY) {
		finally = p.block()
	}
	if catch == nil && finally == nil {
		p.errorf(pos, "try requires catch or finally")
	}
	return node(p, &standIns.try, ast.TryStmt{TokPos: pos, Body: body, CatchName: name, Catch: catch, Finally: finally})
}

func (p *Parser) switchStmt() ast.Stmt {
	pos := p.expect(token.SWITCH)
	p.expect(token.LPAREN)
	disc := p.expression()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	var cases []ast.SwitchCase
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
		c.Body = p.stmts.close(mark, p.tree)
		if p.tree {
			cases = append(cases, c)
		}
	}
	p.expect(token.RBRACE)
	return node(p, &standIns.switchStmt, ast.SwitchStmt{TokPos: pos, Disc: disc, Cases: cases})
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
	return node(p, &standIns.seq, ast.SeqExpr{TokPos: x.Pos(), Exprs: p.exprs.close(mark, p.tree)})
}

func (p *Parser) assignExpr() ast.Expr {
	if !p.descend() {
		return node(p, &standIns.undef, ast.UndefinedLit{TokPos: p.cur.Pos})
	}
	x := p.condExpr()
	if op, pos := p.cur.Type, p.cur.Pos; op.IsAssign() {
		p.advance()
		if !isAssignable(x) {
			p.errorf(pos, "invalid assignment target")
		}
		x = p.assigns.put(ast.AssignExpr{TokPos: pos, Op: op, L: x, R: p.assignExpr()}, p.tree)
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
	return node(p, &standIns.cond, ast.CondExpr{TokPos: cond.Pos(), BranchID: p.newBranch(), Cond: cond, Cons: cons, Alt: alt})
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
		op, pos := p.cur.Type, p.cur.Pos
		p.advance()
		right := p.binaryExpr(prec + 1)
		var branch int
		if op == token.LAND || op == token.LOR {
			branch = p.newBranch()
		}
		left = p.binaries.put(ast.BinaryExpr{TokPos: pos, Op: op, BranchID: branch, L: left, R: right}, p.tree)
	}
}

func (p *Parser) unaryExpr() ast.Expr {
	op, pos := p.cur.Type, p.cur.Pos
	switch op {
	case token.NOT, token.BITNOT, token.MINUS, token.PLUS, token.TYPEOF, token.DELETE:
		p.advance()
		return node(p, &standIns.unary, ast.UnaryExpr{TokPos: pos, Op: op, X: p.operand()})
	case token.INC, token.DEC:
		p.advance()
		x := p.operand()
		if !isAssignable(x) {
			p.errorf(pos, "invalid %s target", op)
		}
		return node(p, &standIns.update, ast.UpdateExpr{TokPos: pos, Op: op, Prefix: true, X: x})
	}
	return p.postfixExpr()
}

// operand parses what a prefix operator applies to, one level deeper.
func (p *Parser) operand() ast.Expr {
	if !p.descend() {
		return node(p, &standIns.undef, ast.UndefinedLit{TokPos: p.cur.Pos})
	}
	x := p.unaryExpr()
	p.depth--
	return x
}

func (p *Parser) postfixExpr() ast.Expr {
	x := p.callExpr()
	if op, pos := p.cur.Type, p.cur.Pos; op == token.INC || op == token.DEC {
		p.advance()
		if !isAssignable(x) {
			p.errorf(pos, "invalid %s target", op)
		}
		return node(p, &standIns.update, ast.UpdateExpr{TokPos: pos, Op: op, Prefix: false, X: x})
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
		pos := p.cur.Pos
		switch p.cur.Type {
		case token.DOT:
			p.advance()
			name := p.memberName()
			x = p.members.put(ast.MemberExpr{TokPos: pos, X: x, Name: name}, p.tree)
		case token.LBRACKET:
			p.advance()
			idx := p.expression()
			p.expect(token.RBRACKET)
			x = p.indexes.put(ast.IndexExpr{TokPos: pos, X: x, Index: idx}, p.tree)
		case token.LPAREN:
			p.advance()
			x = p.calls.put(ast.CallExpr{TokPos: pos, Fn: x, Args: p.arguments(token.RPAREN)}, p.tree)
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
	return p.exprs.close(mark, p.tree)
}

// memberName accepts identifiers and keywords used as property names
// (`obj.length`, `caman.this` is not needed but `x.in` style occurs in the
// wild; we accept any keyword spelling after a dot).
func (p *Parser) memberName() string {
	if p.cur.Type == token.IDENT || isWordToken(p.cur.Type) {
		name := p.cur.Text(p.src)
		p.advance()
		return name
	}
	p.errorf(p.cur.Pos, "expected property name, found %s", p.describe(&p.cur))
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
		return node(p, &standIns.undef, ast.UndefinedLit{TokPos: p.cur.Pos})
	}
	x := p.newExprBody()
	p.depth--
	return x
}

func (p *Parser) newExprBody() ast.Expr {
	pos := p.expect(token.NEW)
	// new F, new F(), new a.b.C(...)
	var callee ast.Expr
	if p.cur.Type == token.NEW {
		callee = p.newExpr()
	} else {
		callee = p.primaryExpr()
	}
	for {
		dp := p.cur.Pos
		switch p.cur.Type {
		case token.DOT:
			p.advance()
			name := p.memberName()
			callee = p.members.put(ast.MemberExpr{TokPos: dp, X: callee, Name: name}, p.tree)
		case token.LBRACKET:
			p.advance()
			idx := p.expression()
			p.expect(token.RBRACKET)
			callee = p.indexes.put(ast.IndexExpr{TokPos: dp, X: callee, Index: idx}, p.tree)
		default:
			goto args
		}
	}
args:
	var args []ast.Expr
	if p.accept(token.LPAREN) {
		args = p.arguments(token.RPAREN)
	}
	return node(p, &standIns.newExpr, ast.NewExpr{TokPos: pos, Fn: callee, Args: args})
}

func (p *Parser) primaryExpr() ast.Expr {
	t := p.cur
	switch t.Type {
	case token.IDENT:
		p.advance()
		return p.idents.put(ast.Ident{TokPos: t.Pos, Name: t.Text(p.src)}, p.tree)
	case token.NUMBER:
		p.advance()
		lit := t.Text(p.src)
		v, err := parseNumber(lit)
		if err != nil {
			p.errorf(t.Pos, "bad number %q: %v", lit, err)
		}
		return p.numbers.put(ast.NumberLit{TokPos: t.Pos, Value: v}, p.tree)
	case token.STRING:
		p.advance()
		var v string
		if p.tree {
			v = lexer.StringValue(p.src, t)
		}
		return node(p, &standIns.str, ast.StringLit{TokPos: t.Pos, Value: v})
	case token.TRUE:
		p.advance()
		return node(p, &standIns.boolean, ast.BoolLit{TokPos: t.Pos, Value: true})
	case token.FALSE:
		p.advance()
		return node(p, &standIns.boolean, ast.BoolLit{TokPos: t.Pos, Value: false})
	case token.NULL:
		p.advance()
		return node(p, &standIns.null, ast.NullLit{TokPos: t.Pos})
	case token.UNDEFINED:
		p.advance()
		return node(p, &standIns.undef, ast.UndefinedLit{TokPos: t.Pos})
	case token.THIS:
		p.advance()
		return node(p, &standIns.this, ast.ThisExpr{TokPos: t.Pos})
	case token.LPAREN:
		p.advance()
		x := p.expression()
		p.expect(token.RPAREN)
		return x
	case token.LBRACKET:
		p.advance()
		return node(p, &standIns.array, ast.ArrayLit{TokPos: t.Pos, Elems: p.arguments(token.RBRACKET)})
	case token.LBRACE:
		p.advance()
		keys, values := len(p.names.open), len(p.exprs.open)
		for p.cur.Type != token.RBRACE && p.cur.Type != token.EOF {
			var key string
			switch {
			case p.cur.Type == token.STRING:
				if p.tree {
					key = lexer.StringValue(p.src, p.cur)
				}
			case p.cur.Type == token.IDENT || p.cur.Type == token.NUMBER || isWordToken(p.cur.Type):
				key = p.cur.Text(p.src)
			default:
				p.errorf(p.cur.Pos, "expected object key, found %s", p.describe(&p.cur))
				p.advance()
				continue
			}
			p.advance()
			p.expect(token.COLON)
			p.names.push(key)
			p.exprs.push(p.assignExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACE)
		return node(p, &standIns.object, ast.ObjectLit{TokPos: t.Pos, Keys: p.names.close(keys, p.tree), Values: p.exprs.close(values, p.tree)})
	case token.FUNCTION:
		return p.funcLit(false)
	default:
		p.errorf(t.Pos, "unexpected token %s", p.describe(&t))
		p.advance()
		return node(p, &standIns.undef, ast.UndefinedLit{TokPos: t.Pos})
	}
}

// parseNumber is the value of a NUMBER token, rounded once to the
// nearest double. Past the largest double a literal is ±Infinity, as in
// JavaScript, not a range error. The lexer admits only hex digits after
// 0x, so a zero binary exponent makes the literal a Go hex float, which
// strconv reads in linear time at any length. Most literals are short
// integers, which are exact as a double and are summed here instead.
func parseNumber(lit string) (float64, error) {
	if n, ok := smallInt(lit); ok {
		return float64(n), nil
	}
	if strings.HasPrefix(lit, "0x") || strings.HasPrefix(lit, "0X") {
		lit += "p0"
	}
	f, err := strconv.ParseFloat(lit, 64)
	if errors.Is(err, strconv.ErrRange) {
		err = nil
	}
	return f, err
}

// smallInt reads a decimal literal of at most 15 digits, or a hex one of
// at most 13 after the 0x: either is below 2^53, so the double it rounds
// to is the integer itself.
func smallInt(lit string) (uint64, bool) {
	var n uint64
	if len(lit) > 2 && lit[0] == '0' && lit[1]|0x20 == 'x' {
		if len(lit) > 15 {
			return 0, false
		}
		for _, c := range []byte(lit[2:]) {
			switch {
			case c >= '0' && c <= '9':
				n = n<<4 | uint64(c-'0')
			case c|0x20 >= 'a' && c|0x20 <= 'f':
				n = n<<4 | uint64(c|0x20-'a'+10)
			default:
				return 0, false
			}
		}
		return n, true
	}
	if len(lit) > 15 {
		return 0, false
	}
	for _, c := range []byte(lit) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}
