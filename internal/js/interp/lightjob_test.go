package interp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gecko"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// TestLightJobCallAllocations is TestCallAllocationBudget's js-to-js row
// with the light job's hooks attached, as the study installs them: a
// LightProfiler and a gecko Sampler side by side. They have loop and call
// methods only, so the calls stay on the pooled path with their
// arguments on the stack and allocate nothing.
func TestLightJobCallAllocations(t *testing.T) {
	in := interp.New()
	if err := in.Run(parser.MustParse(`
function helper(a, b) { var t = a * 2; return t + b; }
var f = function (x, i) { var s = 0; for (var k = 0; k < 8; k = k + 1) { s = s + helper(x, k); } return s + i; };
`)); err != nil {
		t.Fatal(err)
	}
	in.SetHooks(core.NewLightProfiler(in), gecko.NewSampler(in))
	f := in.Global("f")
	args := []value.Value{value.Number(3), value.Number(4)}
	n := testing.AllocsPerRun(200, func() {
		if res, err := in.CallFunction(f, value.Undefined(), args); err != nil || !res.IsNumber() {
			t.Fatalf("returned %v, %v", res, err)
		}
	})
	t.Logf("js-to-js under the light job's hooks: %v allocations per call", n)
	if n != 0 {
		t.Errorf("js-to-js under the light job's hooks: a call allocates %v objects, want 0", n)
	}
}
