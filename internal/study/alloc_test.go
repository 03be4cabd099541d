package study_test

import (
	"runtime"
	"testing"

	"repro/internal/study"
	"repro/internal/workloads"
)

// raceEnabled is set by race_test.go when the race detector is on; it
// adds allocations of its own, so the allocation rows skip.
var raceEnabled bool

// TestDeepAllocationBudget pins what the deep job (loop profiler plus
// dependence analyzer, parse and classification included) allocates per
// 1000 evaluation steps of each Table-1 app at Scale{Div: 16}. Steps()
// come from an unhooked run of the same app, which takes exactly as many.
// The comment on each row gives the figure its ceiling was set from, about
// 5 % under it, and in parentheses the figure before stamps were shared
// snapshot pointers and call arguments rode the argument stack; a change
// that lowers a count lowers its ceiling with it. Together the twelve
// deep runs make ~0.92 M allocations (1.76 M before). It runs serially:
// MemStats counts the allocations of every test running beside it.
func TestDeepAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ceilings := map[string]float64{
		"HAAR.js":             95,   // 90.3 (211.3 while a declaration made a varRecord and a call a heap argument slice)
		"Tear-able Cloth":     12.7, // 12.0 (16.2)
		"CamanJS":             133,  // 126.6 (212.8)
		"fluidSim":            118,  // 112.1 (315.4)
		"Harmony":             197,  // 187.6 (200.5)
		"Ace":                 922,  // 878.0 (924.4)
		"MyScript":            2314, // 2203.8 (2324.5)
		"Realtime Raytracing": 37.5, // 35.7 (38.5)
		"Normal Mapping":      62.3, // 59.3 (93.6)
		"sigma.js":            38.4, // 36.6 (38.9)
		"processing.js":       64.5, // 61.4 (81.8)
		"D3.js":               120,  // 114.3 (166.2)
	}
	var total uint64
	for _, wl := range workloads.AllAt(workloads.Scale{Div: 16}) {
		in := workloads.NewInterp(7)
		if _, err := workloads.Run(wl, in); err != nil {
			t.Fatalf("%s bare: %v", wl.Name, err)
		}
		steps := in.Steps()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, _, err := study.RunDeepOnly(wl, 7); err != nil {
			t.Fatalf("%s deep: %v", wl.Name, err)
		}
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		total += allocs
		per := float64(allocs) * 1000 / float64(steps)
		t.Logf("%-14s steps=%d allocs=%d per-1k-steps=%.2f", wl.Name, steps, allocs, per)
		if c, ok := ceilings[wl.Name]; !ok {
			t.Errorf("%s: no ceiling", wl.Name)
		} else if per > c {
			t.Errorf("%s: the deep run allocates %.2f objects per 1000 steps, ceiling %v", wl.Name, per, c)
		}
	}
	t.Logf("all apps: %d allocations", total)
}
