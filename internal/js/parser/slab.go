package parser

import "repro/internal/js/ast"

// slabMax caps a chunk: chunks double from 4 entries to this, so a
// kernel-sized parse allocates a handful of small chunks and a
// page-sized one a few hundred entries at a time.
const slabMax = 128

// slab hands out the T's of one Parse from chunks instead of one
// allocation each. There is no pool and no reuse across parses: a chunk
// is ordinary garbage once nothing points into it, and a node someone
// keeps (a closure's *ast.FuncLit, interp.Load's cache) keeps its chunk
// alive. A parse that keeps no tree (Loops) reuses one slot per type.
type slab[T any] struct {
	free  []T
	chunk int // length of the newest chunk
}

func (s *slab[T]) grow(n int) {
	s.chunk = min(max(2*s.chunk, 4), slabMax)
	s.free = make([]T, max(s.chunk, n))
}

// put stores v in the slab and returns its address. Unless the parse
// keeps its tree, every v lands in the same slot, over the last.
func (s *slab[T]) put(v T, keep bool) *T {
	if len(s.free) == 0 {
		s.grow(1)
	}
	p := &s.free[0]
	if keep {
		s.free = s.free[1:]
	}
	*p = v
	return p
}

// take returns a copy of xs (nil if empty) carved from the slab with
// len == cap, so an append by whoever ends up holding it reallocates
// rather than writing over the neighbouring list.
func (s *slab[T]) take(xs []T) []T {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		s.grow(n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	copy(out, xs)
	return out
}

// lists builds child lists. Items of a list under construction are
// pushed on one stack shared by every open list of the type (lists nest
// as the grammar does); close carves the finished list from the slab.
type lists[T any] struct {
	slab[T]
	open []T
}

func (l *lists[T]) push(x T) { l.open = append(l.open, x) }

// close pops the items pushed since the stack stood at mark and returns
// them as a list, or nil unless the parse keeps its tree.
func (l *lists[T]) close(mark int, keep bool) []T {
	var out []T
	if keep {
		out = l.take(l.open[mark:])
	}
	l.open = l.open[:mark]
	return out
}

// node returns v as a node of its own, for the types that have no slab.
// A parse that keeps no tree (Loops) allocates nothing and returns the
// type's stand-in instead.
func node[T any](p *Parser, standIn *T, v T) *T {
	if !p.tree {
		return standIn
	}
	n := new(T)
	*n = v
	return n
}

// standIns are the nodes Loops hands back in place of those it does not
// build: one per type without a slab, shared by every parse and never
// written. That is sound because the productions read back nothing of a
// node they built but its dynamic type (isAssignable) and, for a
// declaration's function, the name Loops does not hoist: every node is
// built once its children are parsed and is not touched after.
var standIns struct {
	empty      ast.EmptyStmt
	ret        ast.ReturnStmt
	brk        ast.BreakStmt
	cont       ast.ContinueStmt
	throw      ast.ThrowStmt
	funcDecl   ast.FuncDecl
	ifStmt     ast.IfStmt
	forStmt    ast.ForStmt
	forIn      ast.ForInStmt
	while      ast.WhileStmt
	doWhile    ast.DoWhileStmt
	try        ast.TryStmt
	switchStmt ast.SwitchStmt
	funcLit    ast.FuncLit
	seq        ast.SeqExpr
	cond       ast.CondExpr
	unary      ast.UnaryExpr
	update     ast.UpdateExpr
	newExpr    ast.NewExpr
	str        ast.StringLit
	boolean    ast.BoolLit
	null       ast.NullLit
	undef      ast.UndefinedLit
	this       ast.ThisExpr
	array      ast.ArrayLit
	object     ast.ObjectLit
}
