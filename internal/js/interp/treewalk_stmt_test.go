package interp

import (
	"repro/internal/js/ast"
	"repro/internal/js/value"
)

// execStmt executes one statement and returns its completion.
func (in *Interp) execStmt(s ast.Stmt, env *Scope) ctrl {
	in.step()
	switch x := s.(type) {
	case *ast.EmptyStmt:
		return ctrlOK
	case *ast.VarDecl:
		for i, name := range x.Names {
			if x.Inits[i] == nil {
				continue
			}
			v := in.evalExpr(x.Inits[i], env)
			in.assignVar(env, name, v)
		}
		return ctrlOK
	case *ast.FuncDecl:
		// value was hoisted at scope setup; re-binding is a no-op unless the
		// declaration is nested in a block that re-executes.
		fn := in.makeFunction(x.Fn, env)
		in.assignVar(env, x.Name, value.ObjectVal(fn))
		return ctrlOK
	case *ast.ExprStmt:
		in.evalExpr(x.X, env)
		return ctrlOK
	case *ast.BlockStmt:
		return in.execBlock(x, env)
	case *ast.IfStmt:
		cond := in.evalExpr(x.Cond, env).ToBool()
		for _, h := range in.hooks.branchTaken {
			h.BranchTaken(x.BranchID, cond)
		}
		if cond {
			return in.execStmt(x.Cons, env)
		}
		if x.Alt != nil {
			return in.execStmt(x.Alt, env)
		}
		return ctrlOK
	case *ast.ForStmt:
		return in.execFor(x, env)
	case *ast.WhileStmt:
		return in.execWhile(x, env)
	case *ast.DoWhileStmt:
		return in.execDoWhile(x, env)
	case *ast.ForInStmt:
		return in.execForIn(x, env)
	case *ast.ReturnStmt:
		v := value.Undefined()
		if x.X != nil {
			v = in.evalExpr(x.X, env)
		}
		return ctrl{kind: ctrlReturn, val: v}
	case *ast.BreakStmt:
		return ctrl{kind: ctrlBreak}
	case *ast.ContinueStmt:
		return ctrl{kind: ctrlContinue}
	case *ast.ThrowStmt:
		v := in.evalExpr(x.X, env)
		in.throwValue(v)
		return ctrlOK // unreachable
	case *ast.TryStmt:
		return in.execTry(x, env)
	case *ast.SwitchStmt:
		return in.execSwitch(x, env)
	default:
		panic(&fatal{errUnknownNode(s)})
	}
}

func (in *Interp) execBlock(b *ast.BlockStmt, env *Scope) ctrl {
	for _, s := range b.Body {
		c := in.execStmt(s, env)
		if c.kind != ctrlNormal {
			return c
		}
	}
	return ctrlOK
}

// loopGuard brackets LoopEnter/LoopExit even when the body breaks, returns
// or throws.
func (in *Interp) execFor(x *ast.ForStmt, env *Scope) ctrl {
	if exits := in.enterLoop(x.Loop); exits != nil {
		defer exitLoop(exits, x.Loop)
	}
	if x.Init != nil {
		for _, h := range in.hooks.loopHeader {
			h.LoopHeader(x.Loop, true)
		}
		in.execStmt(x.Init, env)
		for _, h := range in.hooks.loopHeader {
			h.LoopHeader(x.Loop, false)
		}
	}
	for {
		if x.Cond != nil {
			if !in.evalExpr(x.Cond, env).ToBool() {
				return ctrlOK
			}
		}
		for _, h := range in.hooks.loopIter {
			h.LoopIter(x.Loop)
		}
		c := in.execStmt(x.Body, env)
		switch c.kind {
		case ctrlBreak:
			return ctrlOK
		case ctrlReturn:
			return c
		}
		if x.Post != nil {
			for _, h := range in.hooks.loopHeader {
				h.LoopHeader(x.Loop, true)
			}
			in.evalExpr(x.Post, env)
			for _, h := range in.hooks.loopHeader {
				h.LoopHeader(x.Loop, false)
			}
		}
	}
}

func (in *Interp) execWhile(x *ast.WhileStmt, env *Scope) ctrl {
	if exits := in.enterLoop(x.Loop); exits != nil {
		defer exitLoop(exits, x.Loop)
	}
	for {
		if !in.evalExpr(x.Cond, env).ToBool() {
			return ctrlOK
		}
		for _, h := range in.hooks.loopIter {
			h.LoopIter(x.Loop)
		}
		c := in.execStmt(x.Body, env)
		switch c.kind {
		case ctrlBreak:
			return ctrlOK
		case ctrlReturn:
			return c
		}
	}
}

func (in *Interp) execDoWhile(x *ast.DoWhileStmt, env *Scope) ctrl {
	if exits := in.enterLoop(x.Loop); exits != nil {
		defer exitLoop(exits, x.Loop)
	}
	for {
		for _, h := range in.hooks.loopIter {
			h.LoopIter(x.Loop)
		}
		c := in.execStmt(x.Body, env)
		switch c.kind {
		case ctrlBreak:
			return ctrlOK
		case ctrlReturn:
			return c
		}
		if !in.evalExpr(x.Cond, env).ToBool() {
			return ctrlOK
		}
	}
}

func (in *Interp) execForIn(x *ast.ForInStmt, env *Scope) ctrl {
	objV := in.evalExpr(x.Obj, env)
	if exits := in.enterLoop(x.Loop); exits != nil {
		defer exitLoop(exits, x.Loop)
	}
	if !objV.IsObject() {
		return ctrlOK // for-in over primitives iterates nothing here
	}
	keys := objV.Object().OwnKeys()
	for _, k := range keys {
		for _, h := range in.hooks.loopIter {
			h.LoopIter(x.Loop)
		}
		for _, h := range in.hooks.loopHeader {
			h.LoopHeader(x.Loop, true)
		}
		in.assignVar(env, x.Name, value.String(k))
		for _, h := range in.hooks.loopHeader {
			h.LoopHeader(x.Loop, false)
		}
		c := in.execStmt(x.Body, env)
		switch c.kind {
		case ctrlBreak:
			return ctrlOK
		case ctrlReturn:
			return c
		}
	}
	return ctrlOK
}

func (in *Interp) execTry(x *ast.TryStmt, env *Scope) ctrl {
	c, thrown := in.tryBlock(x.Body, env)
	if thrown != nil && x.Catch != nil {
		catchEnv := NewScope(env)
		in.declareVar(catchEnv, x.CatchName, thrown.val)
		c, thrown = in.tryBlock(x.Catch, catchEnv)
	}
	if x.Finally != nil {
		fc := in.execBlock(x.Finally, env)
		if fc.kind != ctrlNormal {
			return fc // abrupt finally overrides any pending throw/completion
		}
	}
	if thrown != nil {
		panic(thrown)
	}
	return c
}

// tryBlock executes a block, intercepting JS throws (but not fatals).
func (in *Interp) tryBlock(b *ast.BlockStmt, env *Scope) (c ctrl, thrown *jsThrow) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*jsThrow); ok {
				thrown = t
				return
			}
			panic(r)
		}
	}()
	return in.execBlock(b, env), nil
}

func (in *Interp) execSwitch(x *ast.SwitchStmt, env *Scope) ctrl {
	d := in.evalExpr(x.Disc, env)
	matched := -1
	for i, cs := range x.Cases {
		if cs.Test == nil {
			continue
		}
		tv := in.evalExpr(cs.Test, env)
		if value.StrictEquals(d, tv) {
			matched = i
			break
		}
	}
	if matched < 0 {
		for i, cs := range x.Cases {
			if cs.Test == nil {
				matched = i
				break
			}
		}
	}
	if matched < 0 {
		return ctrlOK
	}
	for i := matched; i < len(x.Cases); i++ { // fall-through semantics
		for _, s := range x.Cases[i].Body {
			c := in.execStmt(s, env)
			switch c.kind {
			case ctrlBreak:
				return ctrlOK
			case ctrlReturn, ctrlContinue:
				return c
			}
		}
	}
	return ctrlOK
}
