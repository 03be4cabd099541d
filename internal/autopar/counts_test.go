package autopar

import (
	"runtime"
	"testing"

	"repro/internal/js/value"
	"repro/internal/workloads"
)

// raceEnabled is set by race_test.go when the race detector is on; it
// adds allocations of its own, so the allocation rows skip.
var raceEnabled bool

// TestExecDispatchAllocs pins what one two-worker MapSpec of each
// ModeExec kernel allocates per dispatched element, guard-free under
// StaticAssist as the exec table runs it: the whole operation — profile
// slice, worker startup, capture install, dispatch and merge — divided
// by the elements the pool ran. The comment on each row gives the figure its
// ceiling was set from, and in parentheses the figure when poolSlot.call
// handed SafeCall a fresh heap slice per element; a change that lowers a
// count lowers its ceiling with it. The worker's own call allocates
// nothing: its arguments go in the slot's buffer, which the callee copies
// what it keeps of.
func TestExecDispatchAllocs(t *testing.T) {
	cases := []struct {
		loop  string
		alloc float64 // allocations per dispatched element, ceiling
	}{
		{"evalStage window scan", 0.31},              // 0.26 (1.26)
		{"per-particle spring accumulation", 0.6},    // 0.55 (1.55)
		{"per-pixel brightness/contrast pass", 0.18}, // 0.13 (1.13)
		{"advection cell sampling", 0.3},             // 0.25 (1.24)
		{"primary-ray sphere intersection", 0.24},    // 0.19 (1.19)
		{"skewed adaptive supersampling", 0.23},      // 0.18 (1.18)
		{"relight per-pixel shading", 0.24},          // 0.19 (1.19)
		{"per-pixel luminance map", 0.14},            // 0.09 (1.09)
	}
	kernels := workloads.ExecKernels()
	if len(kernels) != len(cases) {
		t.Fatalf("%d ExecKernels, %d rows", len(kernels), len(cases))
	}
	opts := Options{Workers: 2, Static: StaticAssist}
	const rounds = 5
	for k, ek := range kernels {
		tc := cases[k]
		if ek.Loop != tc.loop {
			t.Fatalf("kernel %d is %q, row is %q", k, ek.Loop, tc.loop)
		}
		in, fn := load(t, ek.Prelude+"\nvar f = "+ek.Elemental+";\n")
		elems := make([]value.Value, ek.N)
		for i := range elems {
			elems[i] = value.Number(ek.Input(i))
		}
		mapOnce := func() Outcome {
			_, oc := MapSpec(in, fn, elems, opts)
			if !oc.Parallel || !oc.GuardElided || oc.Dispatched == 0 {
				t.Fatalf("%s: not dispatched guard-free: %+v", ek.Loop, oc)
			}
			return oc
		}
		mapOnce() // first-operation setup is not per element

		var before, after runtime.MemStats
		dispatched := 0
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			dispatched += mapOnce().Dispatched
		}
		runtime.ReadMemStats(&after)
		alloc := float64(after.Mallocs-before.Mallocs) / float64(dispatched)
		t.Logf("%-36s N=%d dispatched/op=%d allocs/elem=%.3f", ek.Loop, ek.N, dispatched/rounds, alloc)
		if raceEnabled {
			continue
		}
		if alloc > tc.alloc {
			t.Errorf("%s: %.3f allocations per dispatched element, ceiling %v", ek.Loop, alloc, tc.alloc)
		}
	}
}
