// Package printer renders ASTs back to JavaScript source: autopar ships
// closures to worker interpreters as printed text and refactor prints
// the programs it rewrites. What it prints must parse back to the tree
// it was given (the proxy's serving path splices source text and does
// not print); parse∘print round-trip tests hold it to that.
package printer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/js/ast"
	"repro/internal/js/token"
)

// Print renders a whole program.
func Print(p *ast.Program) string {
	pr := &printer{}
	for _, s := range p.Body {
		pr.stmt(s)
	}
	return pr.sb.String()
}

// PrintStmt renders one statement.
func PrintStmt(s ast.Stmt) string {
	pr := &printer{}
	pr.stmt(s)
	return pr.sb.String()
}

// PrintExpr renders one expression.
func PrintExpr(e ast.Expr) string { return printExprAt(e, 0) }

// printExprAt renders e, parenthesised if it binds looser than minPrec.
func printExprAt(e ast.Expr, minPrec int) string {
	pr := &printer{}
	pr.expr(e, minPrec)
	return pr.sb.String()
}

// startsStatementKeyword reports whether an expression's text opens with
// an object or function literal, which at the start of a statement would
// be read as a block or a declaration.
func startsStatementKeyword(text string) bool {
	return strings.HasPrefix(text, "{") ||
		strings.HasPrefix(text, "function(") || strings.HasPrefix(text, "function ")
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) line(format string, args ...any) {
	p.sb.WriteString(strings.Repeat("  ", p.indent))
	fmt.Fprintf(&p.sb, format, args...)
	p.sb.WriteByte('\n')
}

func (p *printer) open(format string, args ...any) {
	p.line(format, args...)
	p.indent++
}

func (p *printer) close(suffix string) {
	p.indent--
	p.line("}%s", suffix)
}

func (p *printer) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.EmptyStmt:
		p.line(";")
	case *ast.VarDecl:
		parts := make([]string, len(x.Names))
		for i, n := range x.Names {
			if x.Inits[i] != nil {
				parts[i] = n + " = " + printExprAt(x.Inits[i], 1) // `var a = (1, 2)` keeps its parens
			} else {
				parts[i] = n
			}
		}
		p.line("var %s;", strings.Join(parts, ", "))
	case *ast.FuncDecl:
		p.funcBody("function "+x.Name, x.Fn)
	case *ast.ExprStmt:
		text := PrintExpr(x.X)
		if startsStatementKeyword(text) {
			// `function () {…}();` and `{a: 1}.a;` would parse as a
			// declaration and a block.
			text = "(" + text + ")"
		}
		p.line("%s;", text)
	case *ast.BlockStmt:
		p.open("{")
		for _, st := range x.Body {
			p.stmt(st)
		}
		p.close("")
	case *ast.IfStmt:
		p.open("if (%s) {", PrintExpr(x.Cond))
		p.stmtInBlock(x.Cons)
		if x.Alt != nil {
			p.indent--
			p.line("} else {")
			p.indent++
			p.stmtInBlock(x.Alt)
		}
		p.close("")
	case *ast.ForStmt:
		init := ""
		if x.Init != nil {
			init = strings.TrimSuffix(strings.TrimSpace(PrintStmt(x.Init)), ";")
		}
		cond := ""
		if x.Cond != nil {
			cond = PrintExpr(x.Cond)
		}
		post := ""
		if x.Post != nil {
			post = PrintExpr(x.Post)
		}
		p.open("for (%s; %s; %s) {", init, cond, post)
		p.stmtInBlock(x.Body)
		p.close("")
	case *ast.WhileStmt:
		p.open("while (%s) {", PrintExpr(x.Cond))
		p.stmtInBlock(x.Body)
		p.close("")
	case *ast.DoWhileStmt:
		p.open("do {")
		p.stmtInBlock(x.Body)
		p.indent--
		p.line("} while (%s);", PrintExpr(x.Cond))
	case *ast.ForInStmt:
		decl := ""
		if x.Declare {
			decl = "var "
		}
		p.open("for (%s%s in %s) {", decl, x.Name, PrintExpr(x.Obj))
		p.stmtInBlock(x.Body)
		p.close("")
	case *ast.ReturnStmt:
		if x.X != nil {
			p.line("return %s;", PrintExpr(x.X))
		} else {
			p.line("return;")
		}
	case *ast.BreakStmt:
		p.line("break;")
	case *ast.ContinueStmt:
		p.line("continue;")
	case *ast.ThrowStmt:
		p.line("throw %s;", PrintExpr(x.X))
	case *ast.TryStmt:
		p.open("try {")
		p.stmtInBlock(x.Body)
		if x.Catch != nil {
			p.indent--
			p.line("} catch (%s) {", x.CatchName)
			p.indent++
			p.stmtInBlock(x.Catch)
		}
		if x.Finally != nil {
			p.indent--
			p.line("} finally {")
			p.indent++
			p.stmtInBlock(x.Finally)
		}
		p.close("")
	case *ast.SwitchStmt:
		p.open("switch (%s) {", PrintExpr(x.Disc))
		for _, c := range x.Cases {
			if c.Test != nil {
				p.line("case %s:", PrintExpr(c.Test))
			} else {
				p.line("default:")
			}
			p.indent++
			for _, st := range c.Body {
				p.stmt(st)
			}
			p.indent--
		}
		p.close("")
	default:
		p.line("/* unknown stmt %T */", s)
	}
}

// stmtInBlock prints a statement's contents, unwrapping blocks to avoid
// double braces.
func (p *printer) stmtInBlock(s ast.Stmt) {
	if b, ok := s.(*ast.BlockStmt); ok {
		for _, st := range b.Body {
			p.stmt(st)
		}
		return
	}
	p.stmt(s)
}

func (p *printer) funcBody(head string, fn *ast.FuncLit) {
	p.open("%s(%s) {", head, strings.Join(fn.Params, ", "))
	for _, st := range fn.Body.Body {
		p.stmt(st)
	}
	p.close("")
}

// precedence tiers for parenthesization.
func exprPrec(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.SeqExpr:
		return 0
	case *ast.AssignExpr:
		return 1
	case *ast.CondExpr:
		return 2
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LOR:
			return 3
		case token.LAND:
			return 4
		case token.OR:
			return 5
		case token.XOR:
			return 6
		case token.AND:
			return 7
		case token.EQ, token.NEQ, token.STRICTEQ, token.STRICTNE:
			return 8
		case token.LT, token.GT, token.LE, token.GE, token.IN, token.INSTANCEOF:
			return 9
		case token.SHL, token.SHR, token.USHR:
			return 10
		case token.PLUS, token.MINUS:
			return 11
		default:
			return 12
		}
	case *ast.UnaryExpr, *ast.UpdateExpr:
		return 13
	case *ast.NewExpr:
		return 14
	case *ast.CallExpr, *ast.MemberExpr, *ast.IndexExpr:
		return 15
	default:
		return 16
	}
}

func (p *printer) expr(e ast.Expr, minPrec int) {
	prec := exprPrec(e)
	if prec < minPrec {
		p.sb.WriteByte('(')
		defer p.sb.WriteByte(')')
	}
	switch x := e.(type) {
	case *ast.Ident:
		p.sb.WriteString(x.Name)
	case *ast.NumberLit:
		p.sb.WriteString(formatNumber(x.Value))
	case *ast.StringLit:
		quote(&p.sb, x.Value)
	case *ast.BoolLit:
		if x.Value {
			p.sb.WriteString("true")
		} else {
			p.sb.WriteString("false")
		}
	case *ast.NullLit:
		p.sb.WriteString("null")
	case *ast.UndefinedLit:
		p.sb.WriteString("undefined")
	case *ast.ThisExpr:
		p.sb.WriteString("this")
	case *ast.ArrayLit:
		p.sb.WriteByte('[')
		for i, el := range x.Elems {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.expr(el, 1)
		}
		p.sb.WriteByte(']')
	case *ast.ObjectLit:
		p.sb.WriteByte('{')
		for i, k := range x.Keys {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			if isIdentLike(k) {
				p.sb.WriteString(k)
			} else {
				p.sb.WriteString(strconv.Quote(k))
			}
			p.sb.WriteString(": ")
			p.expr(x.Values[i], 1)
		}
		p.sb.WriteByte('}')
	case *ast.FuncLit:
		name := ""
		if x.Name != "" {
			name = " " + x.Name
		}
		fmt.Fprintf(&p.sb, "function%s(%s) {\n", name, strings.Join(x.Params, ", "))
		sub := &printer{indent: p.indent + 1}
		for _, st := range x.Body.Body {
			sub.stmt(st)
		}
		p.sb.WriteString(sub.sb.String())
		p.sb.WriteString(strings.Repeat("  ", p.indent))
		p.sb.WriteByte('}')
	case *ast.UnaryExpr:
		switch x.Op {
		case token.TYPEOF, token.DELETE:
			p.sb.WriteString(x.Op.String())
			p.sb.WriteByte(' ')
		default:
			p.sb.WriteString(x.Op.String())
			// avoid gluing signs into -- or ++ ("-(-x)" not "--x")
			if needsUnarySpace(x.Op, x.X) {
				p.sb.WriteByte(' ')
			}
		}
		p.expr(x.X, 13)
	case *ast.UpdateExpr:
		if x.Prefix {
			p.sb.WriteString(x.Op.String())
			p.expr(x.X, 13)
		} else {
			p.expr(x.X, 15)
			p.sb.WriteString(x.Op.String())
		}
	case *ast.BinaryExpr:
		prec := exprPrec(x)
		p.expr(x.L, prec)
		fmt.Fprintf(&p.sb, " %s ", x.Op)
		p.expr(x.R, prec+1)
	case *ast.CondExpr:
		p.expr(x.Cond, 3)
		p.sb.WriteString(" ? ")
		p.expr(x.Cons, 1)
		p.sb.WriteString(" : ")
		p.expr(x.Alt, 1)
	case *ast.AssignExpr:
		p.expr(x.L, 13)
		fmt.Fprintf(&p.sb, " %s ", x.Op)
		p.expr(x.R, 1)
	case *ast.CallExpr:
		p.expr(x.Fn, 15)
		p.args(x.Args)
	case *ast.NewExpr:
		p.sb.WriteString("new ")
		if calleeHasCall(x.Fn) {
			// `new (f())()`: bare, the first call's parens would be
			// taken for the constructor's arguments.
			p.parens(x.Fn)
		} else {
			p.expr(x.Fn, 15)
		}
		p.args(x.Args)
	case *ast.MemberExpr:
		if _, num := x.X.(*ast.NumberLit); num {
			p.parens(x.X) // `(1).toFixed`: `1.` would lex as one number
		} else {
			p.expr(x.X, 15)
		}
		p.sb.WriteByte('.')
		p.sb.WriteString(x.Name)
	case *ast.IndexExpr:
		p.expr(x.X, 15)
		p.sb.WriteByte('[')
		p.expr(x.Index, 0)
		p.sb.WriteByte(']')
	case *ast.SeqExpr:
		for i, sub := range x.Exprs {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.expr(sub, 1)
		}
	default:
		fmt.Fprintf(&p.sb, "/* unknown expr %T */", e)
	}
}

func (p *printer) parens(e ast.Expr) {
	p.sb.WriteByte('(')
	p.expr(e, 0)
	p.sb.WriteByte(')')
}

func (p *printer) args(args []ast.Expr) {
	p.sb.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		p.expr(a, 1)
	}
	p.sb.WriteByte(')')
}

// calleeHasCall reports whether a call sits on the member chain of a
// `new` callee.
func calleeHasCall(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.CallExpr:
			return true
		case *ast.MemberExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// quote writes s as a string literal the lexer decodes back to exactly s.
// Unlike strconv.Quote it uses only escapes JavaScript has (no \a, no
// \U), and it passes bytes that are not UTF-8 through as they are, the
// way the lexer does.
func quote(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == '\u2028' || r == '\u2029' { // line terminators inside a literal
				fmt.Fprintf(sb, `\u%04x`, r)
			} else {
				sb.WriteString(s[i : i+n])
			}
			i += n
			continue
		}
		switch c {
		case '"', '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		case '\b':
			sb.WriteString(`\b`)
		case '\f':
			sb.WriteString(`\f`)
		case '\v':
			sb.WriteString(`\v`)
		default:
			if c < 0x20 || c == 0x7f {
				fmt.Fprintf(sb, `\x%02x`, c)
			} else {
				sb.WriteByte(c)
			}
		}
		i++
	}
	sb.WriteByte('"')
}

func needsUnarySpace(op token.Type, inner ast.Expr) bool {
	switch t := inner.(type) {
	case *ast.UnaryExpr:
		return t.Op == op && (op == token.MINUS || op == token.PLUS)
	case *ast.UpdateExpr:
		return t.Prefix && ((op == token.MINUS && t.Op == token.DEC) ||
			(op == token.PLUS && t.Op == token.INC))
	}
	return false
}

func formatNumber(f float64) string {
	if f == float64(int64(f)) && f >= -1e15 && f <= 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func isIdentLike(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
