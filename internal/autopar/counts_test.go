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
// ceiling was set from, and in parentheses the figure when every native
// call heap-allocated its argument slice; a change that lowers a count
// lowers its ceiling with it. About one allocation per element is the
// worker's own call: poolSlot.call's two arguments go to SafeCall as a
// heap slice, which a callee's arguments object may keep.
func TestExecDispatchAllocs(t *testing.T) {
	cases := []struct {
		loop  string
		alloc float64 // allocations per dispatched element, ceiling
	}{
		{"evalStage window scan", 1.31},              // 1.26 (1.26 with heap argument slices)
		{"per-particle spring accumulation", 1.6},    // 1.55 (13.55 with heap argument slices)
		{"per-pixel brightness/contrast pass", 1.18}, // 1.13 (1.13 with heap argument slices)
		{"advection cell sampling", 1.3},             // 1.24 (15.24 with heap argument slices)
		{"primary-ray sphere intersection", 1.24},    // 1.19 (2.71 with heap argument slices)
		{"skewed adaptive supersampling", 1.23},      // 1.18 (61.71 with heap argument slices)
		{"relight per-pixel shading", 1.24},          // 1.19 (11.19 with heap argument slices)
		{"per-pixel luminance map", 1.14},            // 1.09 (1.09 with heap argument slices)
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
