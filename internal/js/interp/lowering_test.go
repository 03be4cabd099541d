package interp_test

import (
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/workloads"
)

// TestNumericLowering is the deterministic gate on numeric trees: which
// expressions the compiler lowers to float64 closures (isNum), and that
// the arithmetic of three ExecKernels hot loops does so from its root.
func TestNumericLowering(t *testing.T) {
	for _, c := range []struct {
		expr string
		num  bool
	}{
		{`x*2`, true},
		{`a+b`, false},
		{`a*2+b*3`, true},
		{`-x`, true},
		{`+s`, true},
		{`~x`, true},
		{`!x`, false},
		{`"a"-1`, true},
		{`"a"+1`, false},
		{`(a*2)+s`, false},
		{`s+(a*2)`, false},
		{`(a*2)+(b-c)`, true},
		{`x|0`, true},
		{`(r*65536+g*256+b)|0`, true},
		{`f()%g.h`, true},
		{`1`, true},
		{`"1"`, false},
		{`(1, 2)`, true},
		{`(a, 2)`, false},
		{`a<b`, false},
		{`a&&1`, false},
		{`x=2`, false},
		{`typeof x`, false},
		{`a*2+(s+1)`, false},
	} {
		if got := interp.IsNum(parseExpr(t, c.expr)); got != c.num {
			t.Errorf("isNum(%s) = %v, want %v", c.expr, got, c.num)
		}
	}

	kernels := map[string]*ast.Program{}
	for _, ek := range workloads.ExecKernels() {
		if _, seen := kernels[ek.App]; !seen {
			kernels[ek.App] = parseProgram(t, ek.Prelude+"\nvar __f = "+ek.Elemental+";")
		}
	}
	for _, c := range []struct{ app, what string }{
		{"HAAR.js", "haarLum"},
		{"Tear-able Cloth", "d"},
		{"fluidSim", "adv"},
	} {
		e := findExpr(kernels[c.app], c.what)
		if e == nil {
			t.Fatalf("%s: no expression for %s", c.app, c.what)
		}
		if !interp.IsNum(e) {
			t.Errorf("%s: %s does not lower to a numeric tree", c.app, c.what)
		}
	}
}

func parseProgram(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return prog
}

func parseExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	return parseProgram(t, src+";").Body[0].(*ast.ExprStmt).X
}

// findExpr returns what the kernel computes under name: the return
// value of function name, or the argument of the call that initializes
// var name (cloth's d = Math.sqrt(dx * dx + dy * dy)), or its initializer.
func findExpr(prog *ast.Program, name string) ast.Expr {
	var found ast.Expr
	ast.InspectProgram(prog, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Name == name {
				found = x.Fn.Body.Body[0].(*ast.ReturnStmt).X
			}
		case *ast.VarDecl:
			for i, v := range x.Names {
				if v != name {
					continue
				}
				found = x.Inits[i]
				if call, ok := found.(*ast.CallExpr); ok {
					found = call.Args[0]
				}
			}
		}
		return found == nil
	})
	return found
}
