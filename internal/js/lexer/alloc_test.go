package lexer_test

import (
	"testing"

	"repro/internal/js/lexer"
	"repro/internal/js/token"
	"repro/internal/workloads"
)

// TestScanAllocatesNothing gates the token stream by count, with no wall
// clock: scanning a page-sized bundle to EOF allocates nothing but the
// Lexer, which stays on the stack here. Tokens are filled in place and
// literals are slices of the source.
func TestScanAllocatesNothing(t *testing.T) {
	page := workloads.Bundle(10)
	var n int
	allocs := testing.AllocsPerRun(20, func() {
		l := lexer.New(page)
		var tok token.Token
		for n = 0; ; n++ {
			if l.Scan(&tok); tok.Type == token.EOF {
				break
			}
		}
	})
	if allocs != 0 {
		t.Errorf("scanning the %d-byte bundle (%d tokens) takes %.0f allocations, budget 0", len(page), n, allocs)
	}
	if _, errs := lexer.ScanAll(page); len(errs) > 0 {
		t.Fatalf("the bundle does not scan cleanly: %v", errs)
	}
}
