package core

import (
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// TestTwoLoopProfilersCountHostOps: host ops are a hook event, so two
// LoopProfilers installed together each attribute every DOM op under a
// loop nest to its root; neither takes the ops from the other.
func TestTwoLoopProfilersCountHostOps(t *testing.T) {
	in := interp.New()
	in.SetGlobal("touch", value.ObjectVal(value.NewNative("touch", func(value.Caller, value.Value, []value.Value) (value.Value, error) {
		in.EmitHostOp("dom", "touch", 0)
		return value.Undefined(), nil
	})))
	a, b := NewLoopProfiler(in), NewLoopProfiler(in)
	in.SetHooks(a, b)
	if err := in.Run(parser.MustParse(`for (var i = 0; i < 5; i++) { touch(); }`)); err != nil {
		t.Fatal(err)
	}
	root := ast.LoopID(1)
	if a.HostOps(root, "dom") != 5 || b.HostOps(root, "dom") != 5 {
		t.Errorf("HostOps(root, dom) = %d and %d, want 5 and 5", a.HostOps(root, "dom"), b.HostOps(root, "dom"))
	}
}
