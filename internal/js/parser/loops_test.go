package parser_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/js/parser"
	"repro/internal/workloads"
)

// TestLoopsConcurrent runs Loops on several goroutines at once, as the
// proxy's workers do: the stand-ins every tree-less parse hands back are
// shared and must never be written, which -race checks, and each parse
// still gives Parse's loops and errors.
func TestLoopsConcurrent(t *testing.T) {
	srcs := []string{
		workloads.Bundle(2),
		kernelSrc,
		"function () { for (;;) {} }",
		"try { while (a) b(); } x = function g() { do { c++; } while (d); }",
		"switch (x) { case 1: for (k in o) { s = 'a\\tb' ? [1, 2] : {k: null}; } }",
	}
	type result struct{ loops, err string }
	want := make([]result, len(srcs))
	for i, src := range srcs {
		prog, err := parser.Parse(src)
		want[i] = result{fmt.Sprintf("%+v", prog.Loops), fmt.Sprint(err)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, src := range srcs {
					loops, err := parser.Loops(src)
					if got := (result{fmt.Sprintf("%+v", loops), fmt.Sprint(err)}); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("source %d: Loops gives %v, Parse %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
