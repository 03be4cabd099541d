package interp_test

import (
	"runtime"
	"testing"

	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/workloads"
)

// raceEnabled is set by race_test.go when the race detector is on; it
// adds allocations of its own, so the allocation rows skip.
var raceEnabled bool

// TestExecKernelCounts pins what each of the eight ModeExec kernels
// costs when its elemental runs sequentially on one unhooked interpreter
// over the kernel's full-scale elements: Steps() exactly, and
// allocations and bytes allocated per element as ceilings. The comment
// on each row gives the figures its ceilings were set from; a change
// that lowers a count lowers its ceiling with it. Every kernel's natives
// (Math.*) take their arguments from the interpreter's argument stack,
// so no row allocates.
func TestExecKernelCounts(t *testing.T) {
	cases := []struct {
		loop  string
		steps int64   // exact, over all N elements
		alloc float64 // allocations per element, ceiling
		bytes float64 // bytes allocated per element, ceiling
	}{
		{"evalStage window scan", 4769792, 0.05, 1},             // 0, 0
		{"per-particle spring accumulation", 408576, 0.05, 1},   // 0, 0
		{"per-pixel brightness/contrast pass", 444988, 0.05, 1}, // 0, 0
		{"advection cell sampling", 437760, 0.05, 1},            // 0, 0
		{"primary-ray sphere intersection", 787545, 0.05, 1},    // 0, 0
		{"skewed adaptive supersampling", 4868006, 0.05, 1},     // 0, 0
		{"relight per-pixel shading", 549888, 0.05, 1},          // 0, 0
		{"per-pixel luminance map", 442368, 0.05, 1},            // 0, 0
	}
	kernels := workloads.ExecKernels()
	if len(kernels) != len(cases) {
		t.Fatalf("%d ExecKernels, %d rows", len(kernels), len(cases))
	}
	for k, ek := range kernels {
		tc := cases[k]
		if ek.Loop != tc.loop {
			t.Fatalf("kernel %d is %q, row is %q", k, ek.Loop, tc.loop)
		}
		prog, err := interp.Load(ek.Prelude + "\nvar __elemental = " + ek.Elemental + ";\n")
		if err != nil {
			t.Fatalf("%s: %v", ek.Loop, err)
		}
		in := interp.New()
		if err := in.Run(prog); err != nil {
			t.Fatalf("%s: %v", ek.Loop, err)
		}
		fn := in.Global("__elemental")
		args := make([]value.Value, 2)
		call := func(i int) {
			args[0], args[1] = value.Number(ek.Input(i)), value.Int(i)
			if _, err := in.CallFunction(fn, value.Undefined(), args); err != nil {
				t.Fatalf("%s: element %d: %v", ek.Loop, i, err)
			}
		}
		call(0) // first-call setup is not per element

		var before, after runtime.MemStats
		steps := in.Steps()
		runtime.ReadMemStats(&before)
		for i := 0; i < ek.N; i++ {
			call(i)
		}
		runtime.ReadMemStats(&after)
		steps = in.Steps() - steps
		n := float64(ek.N)
		alloc := float64(after.Mallocs-before.Mallocs) / n
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%-36s N=%d steps=%d allocs/elem=%.2f bytes/elem=%.1f", ek.Loop, ek.N, steps, alloc, bytes)

		if steps != tc.steps {
			t.Errorf("%s: %d steps over %d elements, want %d", ek.Loop, steps, ek.N, tc.steps)
		}
		if raceEnabled {
			continue
		}
		if alloc > tc.alloc {
			t.Errorf("%s: %.2f allocations per element, ceiling %v", ek.Loop, alloc, tc.alloc)
		}
		if bytes > tc.bytes {
			t.Errorf("%s: %.1f bytes allocated per element, ceiling %v", ek.Loop, bytes, tc.bytes)
		}
	}
}
