package instrument

import (
	"repro/internal/js/ast"
)

// astTransform is the rewrite this package served before it spliced text:
// wrap every loop node of the tree in place (the caller dumps the result).
// It stays as the reference the splice is held to — the spliced text must
// parse to the tree astTransform makes — with two corrections: it reaches
// function literals in statement headers (conditions, for clauses, switch
// discriminants and case tests), which the served version never did, and
// a brace-less body always gets a block of its own, where the served
// version reused the wrapper block of a body that was itself a loop (the
// same program, one block flatter).
func astTransform(prog *ast.Program) {
	tr := &transformer{}
	for i := range prog.Body {
		prog.Body[i] = tr.stmt(prog.Body[i])
	}
}

type transformer struct{}

// stmt rewrites a statement tree, wrapping loops.
func (t *transformer) stmt(s ast.Stmt) ast.Stmt {
	switch x := s.(type) {
	case *ast.BlockStmt:
		for i := range x.Body {
			x.Body[i] = t.stmt(x.Body[i])
		}
		return x
	case *ast.IfStmt:
		t.expr(x.Cond)
		x.Cons = t.stmt(x.Cons)
		if x.Alt != nil {
			x.Alt = t.stmt(x.Alt)
		}
		return x
	case *ast.FuncDecl:
		t.funcLit(x.Fn)
		return x
	case *ast.ExprStmt:
		t.expr(x.X)
		return x
	case *ast.VarDecl:
		for _, init := range x.Inits {
			t.expr(init)
		}
		return x
	case *ast.ReturnStmt:
		t.expr(x.X)
		return x
	case *ast.ThrowStmt:
		t.expr(x.X)
		return x
	case *ast.TryStmt:
		t.stmt(x.Body)
		if x.Catch != nil {
			t.stmt(x.Catch)
		}
		if x.Finally != nil {
			t.stmt(x.Finally)
		}
		return x
	case *ast.SwitchStmt:
		t.expr(x.Disc)
		for i := range x.Cases {
			t.expr(x.Cases[i].Test)
			for j := range x.Cases[i].Body {
				x.Cases[i].Body[j] = t.stmt(x.Cases[i].Body[j])
			}
		}
		return x
	case *ast.ForStmt:
		if x.Init != nil {
			t.stmt(x.Init)
		}
		t.expr(x.Cond)
		t.expr(x.Post)
		x.Body = t.loopBody(x.Body, x.Loop)
		return t.wrapLoop(x, x.Loop)
	case *ast.WhileStmt:
		t.expr(x.Cond)
		x.Body = t.loopBody(x.Body, x.Loop)
		return t.wrapLoop(x, x.Loop)
	case *ast.DoWhileStmt:
		x.Body = t.loopBody(x.Body, x.Loop)
		t.expr(x.Cond)
		return t.wrapLoop(x, x.Loop)
	case *ast.ForInStmt:
		t.expr(x.Obj)
		x.Body = t.loopBody(x.Body, x.Loop)
		return t.wrapLoop(x, x.Loop)
	default:
		return s
	}
}

// expr descends into an expression (nil for an absent one) to reach
// function literals.
func (t *transformer) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			t.funcLit(fl)
			return false
		}
		return true
	})
}

func (t *transformer) funcLit(fn *ast.FuncLit) {
	for i := range fn.Body.Body {
		fn.Body.Body[i] = t.stmt(fn.Body.Body[i])
	}
}

func call(name string, id ast.LoopID) ast.Stmt {
	return &ast.ExprStmt{X: &ast.CallExpr{
		Fn:   &ast.Ident{Name: name},
		Args: []ast.Expr{&ast.NumberLit{Value: float64(id)}},
	}}
}

// loopBody rewrites a loop's body and puts the per-iteration callback at
// its top: inside the body's own block, or inside a fresh block around a
// brace-less body.
func (t *transformer) loopBody(body ast.Stmt, id ast.LoopID) ast.Stmt {
	blk, braced := body.(*ast.BlockStmt)
	body = t.stmt(body)
	if !braced {
		blk = &ast.BlockStmt{Body: []ast.Stmt{body}}
	}
	blk.Body = append([]ast.Stmt{call("__ceresIter", id)}, blk.Body...)
	return blk
}

// wrapLoop brackets the loop with enter/exit callbacks; exit is in a
// finally so break/return/throw cannot unbalance the open-loop counter.
func (t *transformer) wrapLoop(loop ast.Stmt, id ast.LoopID) ast.Stmt {
	return &ast.BlockStmt{Body: []ast.Stmt{
		call("__ceresEnter", id),
		&ast.TryStmt{
			Body:    &ast.BlockStmt{Body: []ast.Stmt{loop}},
			Finally: &ast.BlockStmt{Body: []ast.Stmt{call("__ceresExit", id)}},
		},
	}}
}
