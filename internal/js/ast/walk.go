package ast

// Inspect traverses the AST rooted at n in depth-first order, calling f for
// each node. If f returns false the children of that node are skipped.
// Nil children are not visited.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch x := n.(type) {
	case *VarDecl:
		for _, init := range x.Inits {
			if init != nil {
				Inspect(init, f)
			}
		}
	case *FuncDecl:
		Inspect(x.Fn, f)
	case *ExprStmt:
		Inspect(x.X, f)
	case *BlockStmt:
		for _, s := range x.Body {
			Inspect(s, f)
		}
	case *IfStmt:
		Inspect(x.Cond, f)
		Inspect(x.Cons, f)
		if x.Alt != nil {
			Inspect(x.Alt, f)
		}
	case *ForStmt:
		if x.Init != nil {
			Inspect(x.Init, f)
		}
		if x.Cond != nil {
			Inspect(x.Cond, f)
		}
		if x.Post != nil {
			Inspect(x.Post, f)
		}
		Inspect(x.Body, f)
	case *WhileStmt:
		Inspect(x.Cond, f)
		Inspect(x.Body, f)
	case *DoWhileStmt:
		Inspect(x.Body, f)
		Inspect(x.Cond, f)
	case *ForInStmt:
		Inspect(x.Obj, f)
		Inspect(x.Body, f)
	case *ReturnStmt:
		if x.X != nil {
			Inspect(x.X, f)
		}
	case *ThrowStmt:
		Inspect(x.X, f)
	case *TryStmt:
		Inspect(x.Body, f)
		if x.Catch != nil {
			Inspect(x.Catch, f)
		}
		if x.Finally != nil {
			Inspect(x.Finally, f)
		}
	case *SwitchStmt:
		Inspect(x.Disc, f)
		for _, c := range x.Cases {
			if c.Test != nil {
				Inspect(c.Test, f)
			}
			for _, s := range c.Body {
				Inspect(s, f)
			}
		}
	case *ArrayLit:
		for _, e := range x.Elems {
			Inspect(e, f)
		}
	case *ObjectLit:
		for _, v := range x.Values {
			Inspect(v, f)
		}
	case *FuncLit:
		Inspect(x.Body, f)
	case *UnaryExpr:
		Inspect(x.X, f)
	case *UpdateExpr:
		Inspect(x.X, f)
	case *BinaryExpr:
		Inspect(x.L, f)
		Inspect(x.R, f)
	case *CondExpr:
		Inspect(x.Cond, f)
		Inspect(x.Cons, f)
		Inspect(x.Alt, f)
	case *AssignExpr:
		Inspect(x.L, f)
		Inspect(x.R, f)
	case *CallExpr:
		Inspect(x.Fn, f)
		for _, a := range x.Args {
			Inspect(a, f)
		}
	case *NewExpr:
		Inspect(x.Fn, f)
		for _, a := range x.Args {
			Inspect(a, f)
		}
	case *MemberExpr:
		Inspect(x.X, f)
	case *IndexExpr:
		Inspect(x.X, f)
		Inspect(x.Index, f)
	case *SeqExpr:
		for _, e := range x.Exprs {
			Inspect(e, f)
		}
	}
}

// InspectProgram applies Inspect to every top-level statement.
func InspectProgram(p *Program, f func(Node) bool) {
	for _, s := range p.Body {
		Inspect(s, f)
	}
}
