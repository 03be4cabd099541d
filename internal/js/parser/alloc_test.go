package parser_test

import (
	"runtime"
	"testing"

	"repro/internal/js/parser"
	"repro/internal/workloads"
)

// kernelSrc is a kernel-sized parse: slabs must not tax it.
const kernelSrc = `function f(x, i) { return x * 2 + i; }`

// raceEnabled is set by race_test.go when the race detector is on; it
// adds allocations of its own, so the tree-less rows do not gate then.
var raceEnabled bool

// bytesPerParse is the heap a Parse of src allocates, garbage included.
func bytesPerParse(src string) uint64 {
	return bytesPerRun(func() { parser.MustParse(src) })
}

// bytesPerRun is the heap one call of f allocates, garbage included.
func bytesPerRun(f func()) uint64 {
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

func loops(src string) {
	if _, err := parser.Loops(src); err != nil {
		panic(err)
	}
}

// TestAllocationBudget gates what a parse allocates, with no wall clock.
// Before the parser allocated from slabs the page-sized bundle cost 254
// allocations per KB (6801), the kernel 18 allocations and 768 bytes, and
// the 12 Table-1 sources 8085 allocations and 340 KB between them.
func TestAllocationBudget(t *testing.T) {
	page := workloads.Bundle(10)
	perKB := testing.AllocsPerRun(20, func() { parser.MustParse(page) }) * 1024 / float64(len(page))
	if perKB > 70 {
		t.Errorf("parsing the %d-byte bundle takes %.0f allocations per KB, budget 70", len(page), perKB)
	}

	kAllocs, kBytes := testing.AllocsPerRun(100, func() { parser.MustParse(kernelSrc) }), bytesPerParse(kernelSrc)
	if kAllocs > 18 || kBytes > 2*768 {
		t.Errorf("parsing the kernel takes %.0f allocations and %d bytes, budget 18 and %d", kAllocs, kBytes, 2*768)
	}

	var allocs float64
	var bytes uint64
	for _, wl := range workloads.AllAt(workloads.FullScale) {
		allocs += testing.AllocsPerRun(20, func() { parser.MustParse(wl.Source) })
		bytes += bytesPerParse(wl.Source)
	}
	if allocs > 2600 || bytes > 510<<10 {
		t.Errorf("parsing the Table-1 sources one by one takes %.0f allocations and %d KB, budget 2600 and 510 KB", allocs, bytes>>10)
	}
	t.Logf("bundle %.1f allocs/KB; kernel %.0f allocs, %d B; Table-1 %.0f allocs, %d KB", perKB, kAllocs, kBytes, allocs, bytes>>10)

	// The tree-less parse (Loops) keeps no node and no list: what is left
	// is the lexer, one slot per slab, the list stacks and the loop
	// inventory. Measured: bundle 1.3 allocs/KB, kernel 8 allocs, 768 B.
	lPerKB := testing.AllocsPerRun(20, func() { loops(page) }) * 1024 / float64(len(page))
	lkAllocs, lkBytes := testing.AllocsPerRun(100, func() { loops(kernelSrc) }), bytesPerRun(func() { loops(kernelSrc) })
	t.Logf("tree-less: bundle %.1f allocs/KB; kernel %.0f allocs, %d B", lPerKB, lkAllocs, lkBytes)
	if raceEnabled {
		return
	}
	if lPerKB > 2 {
		t.Errorf("Loops on the %d-byte bundle takes %.1f allocations per KB, budget 2", len(page), lPerKB)
	}
	if lkAllocs > 10 || lkBytes > 1024 {
		t.Errorf("Loops on the kernel takes %.0f allocations and %d bytes, budget 10 and 1024", lkAllocs, lkBytes)
	}
}

// BenchmarkParseBundle parses a page-sized bundle with its tree and
// without (Loops, what the proxy's parse stage runs).
//
//	go test -bench BenchmarkParseBundle -run '^$' ./internal/js/parser
func BenchmarkParseBundle(b *testing.B) {
	page := workloads.Bundle(10)
	for _, c := range []struct {
		name  string
		parse func(string)
	}{
		{"tree", func(src string) { parser.MustParse(src) }},
		{"loops", loops},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			for b.Loop() {
				c.parse(page)
			}
		})
	}
}
