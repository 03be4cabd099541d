package interp_test

// hooks_test.go pins the hook contract: a hook is sent exactly the events
// whose methods it has, and a LoopExit goes to the hooks its LoopEnter
// went to.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/autopar"
	"repro/internal/core"
	"repro/internal/gecko"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
	"repro/internal/study"
)

// TestHookSubscriptions pins the event set of every production hook. An
// event method whose signature drifts from the engine's no longer counts
// as that event, drops out of its hook's set and fails this test.
func TestHookSubscriptions(t *testing.T) {
	in := interp.New()
	loops := []string{"LoopEnter", "LoopIter", "LoopExit", "LoopHeader"}
	vars := []string{"VarDeclare", "VarRead", "VarWrite"}
	cases := []struct {
		name string
		hook any
		want []string
	}{
		{"LightProfiler", core.NewLightProfiler(in), []string{"LoopEnter", "LoopExit"}},
		{"LoopProfiler", core.NewLoopProfiler(in), []string{"LoopEnter", "LoopIter", "LoopExit", "BranchTaken", "HostOp"}},
		{"DepAnalyzer", core.NewDepAnalyzer(ast.NoLoop), slices.Concat(loops, vars, []string{"ObjectNew", "PropRead", "PropWrite"})},
		{"Guard", autopar.NewGuard(), []string{"VarDeclare", "VarWrite", "ObjectNew", "PropWrite"}},
		{"PipePairDetector", core.NewPipePairDetector(), []string{"LoopEnter", "LoopExit", "LoopHeader", "VarRead", "VarWrite", "PropRead", "PropWrite"}},
		{"Sampler", gecko.NewSampler(in), []string{"CallEnter", "CallExit"}},
		{"Collector", study.NewTaskCollector(in), []string{"VarRead", "VarWrite", "PropRead", "PropWrite"}},
	}
	for _, tc := range cases {
		if got := interp.Subscriptions(tc.hook); !slices.Equal(got, tc.want) {
			t.Errorf("%s is sent %v, want %v", tc.name, got, tc.want)
		}
	}
}

// drifted has a LoopEnter whose signature is not the engine's.
type drifted struct{}

func (drifted) LoopEnter(int) {}

// TestSetHooks: nil entries are dropped, and a hook with no event method —
// including one whose only candidate has drifted — panics.
func TestSetHooks(t *testing.T) {
	cases := []struct {
		name  string
		hooks []any
		panic string // "" when SetHooks must not panic
		n     int    // len(HooksInstalled()) afterwards
	}{
		{"none", nil, "", 0},
		{"nil dropped", []any{nil, &loopLog{}, nil}, "", 1},
		{"no event method", []any{&loopLog{}, struct{}{}}, "hook struct {} has no event method", 0},
		{"drifted signature", []any{drifted{}}, "hook interp_test.drifted has no event method", 0},
	}
	for _, tc := range cases {
		in := interp.New()
		got := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			in.SetHooks(tc.hooks...)
			return ""
		}()
		if (tc.panic == "") != (got == "") || !strings.Contains(got, tc.panic) {
			t.Errorf("%s: SetHooks panicked with %q, want %q", tc.name, got, tc.panic)
		}
		if tc.panic == "" && len(in.HooksInstalled()) != tc.n {
			t.Errorf("%s: %d hooks installed, want %d", tc.name, len(in.HooksInstalled()), tc.n)
		}
	}
}

// loopLog records the loop entries and exits it is sent.
type loopLog struct{ ev []string }

func (l *loopLog) LoopEnter(id ast.LoopID) { l.ev = append(l.ev, fmt.Sprintf("enter %d", id)) }
func (l *loopLog) LoopExit(id ast.LoopID)  { l.ev = append(l.ev, fmt.Sprintf("exit %d", id)) }

// TestLoopExitReachesEnteringHooks: a native replaces the hooks inside
// the inner body of a loop nest. Both loops open at the swap still exit
// to the hooks that saw them enter, and the new hooks are sent no exit of
// a loop they never saw enter.
func TestLoopExitReachesEnteringHooks(t *testing.T) {
	const src = `
for (var i = 0; i < 2; i++) {
  for (var k = 0; k < 1; k++) { if (i === 0) { swap(); } }
}`
	for _, compiled := range []bool{false, true} {
		in := interp.New()
		before, after := &loopLog{}, &loopLog{}
		in.SetGlobal("swap", value.ObjectVal(value.NewNative("swap", func(value.Caller, value.Value, []value.Value) (value.Value, error) {
			in.SetHooks(after)
			return value.Undefined(), nil
		})))
		in.SetHooks(before)
		if err := in.RunEngine(parser.MustParse(src), compiled); err != nil {
			t.Fatal(err)
		}
		wantBefore := []string{"enter 1", "enter 2", "exit 2", "exit 1"}
		wantAfter := []string{"enter 2", "exit 2"}
		if !slices.Equal(before.ev, wantBefore) || !slices.Equal(after.ev, wantAfter) {
			t.Errorf("compiled=%v: entering hooks saw %v, want %v; new hooks saw %v, want %v",
				compiled, before.ev, wantBefore, after.ev, wantAfter)
		}
	}
}
