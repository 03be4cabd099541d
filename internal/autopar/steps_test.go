package autopar

import (
	"testing"

	"repro/internal/js/value"
	"repro/internal/workloads"
)

// TestWorkerStepsMatchMain holds a worker to the main interpreter's
// virtual clock: the worker program newPlan builds, called over the same
// elements as the main interpreter's own function, charges exactly the
// same Steps(). The profile slice's step count is then a measurement of
// worker cost, not an estimate, and a worker reaches the inherited step
// budget exactly where the main interpreter would. The unbraced row has
// brace-less loop and branch bodies, the shape a worker program that
// adds braces charges extra steps for.
func TestWorkerStepsMatchMain(t *testing.T) {
	type row struct {
		name, prelude, elemental string
		input                    func(i int) float64
	}
	var rows []row
	for _, ek := range workloads.ExecKernels() {
		rows = append(rows, row{ek.Loop, ek.Prelude, ek.Elemental, ek.Input})
	}
	rows = append(rows, row{"unbraced", "var k = 3;", `function (x, i) {
  var s = 0;
  for (var j = 0; j < i % 8; j++) s += k * x;
  if (s > 10) return s; else return -s;
}`, func(i int) float64 { return float64(i % 5) }})

	const n = 64
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			in, fn := load(t, r.prelude+"\nvar f = "+r.elemental+";\n")
			p, abort := newPlan(in, fn)
			if abort != "" {
				t.Fatalf("newPlan: %s", abort)
			}
			sl := p.start(0)
			if sl.fault != nil {
				t.Fatalf("start: %s", sl.fault.reason)
			}
			mainBase, workerBase := in.Steps(), sl.in.Steps()
			for i := 0; i < n; i++ {
				args := []value.Value{value.Number(r.input(i)), value.Int(i)}
				want, err := in.SafeCall(fn, value.Undefined(), args)
				if err != nil {
					t.Fatalf("main, element %d: %v", i, err)
				}
				got, err := sl.call(args...)
				if err != nil {
					t.Fatalf("worker, element %d: %v", i, err)
				}
				if !value.SameValue(got, want) {
					t.Fatalf("element %d: worker %s, main %s", i, got.Inspect(), want.Inspect())
				}
			}
			mainSteps, workerSteps := in.Steps()-mainBase, sl.in.Steps()-workerBase
			t.Logf("%d elements: %d steps", n, mainSteps)
			if workerSteps != mainSteps {
				t.Errorf("worker charged %d steps over %d elements, main interpreter %d", workerSteps, n, mainSteps)
			}
		})
	}
}
