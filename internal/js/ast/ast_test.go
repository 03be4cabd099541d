package ast

import (
	"strings"
	"testing"

	"repro/internal/js/token"
)

func TestLoopInfoLabel(t *testing.T) {
	li := LoopInfo{ID: 3, Kind: "while", Line: 24}
	if got := li.Label(); got != "while(line 24)" {
		t.Errorf("Label = %q", got)
	}
}

func TestInspectSkipsChildrenOnFalse(t *testing.T) {
	// for-loop containing a call; skip inside the call expression
	tree := &ForStmt{
		Loop: 1,
		Cond: &BinaryExpr{Op: token.LT, L: &Ident{Name: "i"}, R: &NumberLit{Value: 3}},
		Body: &BlockStmt{Body: []Stmt{
			&ExprStmt{X: &CallExpr{Fn: &Ident{Name: "f"}, Args: []Expr{&Ident{Name: "hidden"}}}},
		}},
	}
	var visited []string
	Inspect(tree, func(n Node) bool {
		if id, ok := n.(*Ident); ok {
			visited = append(visited, id.Name)
		}
		if _, ok := n.(*CallExpr); ok {
			return false // skip call arguments
		}
		return true
	})
	joined := strings.Join(visited, ",")
	if !strings.Contains(joined, "i") {
		t.Errorf("cond ident not visited: %v", visited)
	}
	if strings.Contains(joined, "hidden") {
		t.Errorf("skipped subtree visited: %v", visited)
	}
}

func TestInspectNilSafety(t *testing.T) {
	Inspect(nil, func(Node) bool { t.Fatal("callback on nil"); return true })
	// for with nil init/cond/post must not panic
	Inspect(&ForStmt{Body: &BlockStmt{}}, func(Node) bool { return true })
	Inspect(&ReturnStmt{}, func(Node) bool { return true })
	Inspect(&IfStmt{Cond: &BoolLit{Value: true}, Cons: &EmptyStmt{}}, func(Node) bool { return true })
}

func TestDumpCoverage(t *testing.T) {
	prog := &Program{Body: []Stmt{
		&VarDecl{Names: []string{"x"}, Inits: []Expr{&CondExpr{
			Cond: &BoolLit{Value: true},
			Cons: &StringLit{Value: "a"},
			Alt:  &NullLit{},
		}}},
		&TryStmt{
			Body:      &BlockStmt{Body: []Stmt{&ThrowStmt{X: &NumberLit{Value: 1}}}},
			CatchName: "e",
			Catch:     &BlockStmt{},
			Finally:   &BlockStmt{Body: []Stmt{&EmptyStmt{}}},
		},
		&SwitchStmt{Disc: &Ident{Name: "y"}, Cases: []SwitchCase{
			{Test: &NumberLit{Value: 1}, Body: []Stmt{&BreakStmt{}}},
			{Test: nil, Body: []Stmt{&ContinueStmt{}}},
		}},
		&ExprStmt{X: &UnaryExpr{Op: token.TYPEOF, X: &ThisExpr{}}},
		&ExprStmt{X: &SeqExpr{Exprs: []Expr{&UndefinedLit{}, &ArrayLit{Elems: []Expr{&NumberLit{Value: 2}}}}}},
		&ExprStmt{X: &NewExpr{Fn: &Ident{Name: "F"}, Args: []Expr{&ObjectLit{Keys: []string{"k"}, Values: []Expr{&NumberLit{Value: 3}}}}}},
	}}
	out := DumpProgram(prog)
	for _, want := range []string{"(?:", "(try", "(catch e", "(finally", "(switch", "(case 1", "(default", "(typeof this)", "(seq", "(new F", "k:3"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpLoops(t *testing.T) {
	out := Dump(&DoWhileStmt{Loop: 7, Cond: &BoolLit{Value: false}, Body: &BlockStmt{}})
	if out != "(do#7 (block) false)" {
		t.Errorf("dump = %q", out)
	}
	out = Dump(&ForInStmt{Loop: 2, Name: "k", Obj: &Ident{Name: "o"}, Body: &EmptyStmt{}})
	if out != "(forin#2 k o (empty))" {
		t.Errorf("dump = %q", out)
	}
}
