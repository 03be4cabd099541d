// Package leakcheck fails tests that leave goroutines running: a server
// never closed, a worker pool never joined, a prober never stopped.
// Check guards one test; Main guards a whole package's test binary from
// its TestMain. Check looks for goroutines the test started, Main counts
// goroutines; neither is meaningful beside t.Parallel tests.
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// mainSlack is how far above its starting count a package's test binary
// may end: room for one runtime-owned goroutine that a test's first use
// starts and nothing stops (os/signal's watcher, started by the first
// signal.Notify).
const mainSlack = 1

// settle waits up to 3 s for count to fall to limit, closing
// http.DefaultTransport's idle connections each round (a keep-alive
// connection holds two goroutines until it is closed). It returns the
// last count.
func settle(count func() int, limit int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		n := count()
		if n <= limit || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutines returns the stack of every live goroutine, keyed by its ID.
func goroutines() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[string]string{}
	for _, stack := range strings.Split(string(buf), "\n\n") {
		// Each stack opens with "goroutine <id> [<state>]:".
		if rest, ok := strings.CutPrefix(stack, "goroutine "); ok {
			id, _, _ := strings.Cut(rest, " ")
			stacks[id] = stack
		}
	}
	return stacks
}

// started returns the stacks of the live goroutines whose IDs are not in
// before.
func started(before map[string]string) []string {
	var stacks []string
	for id, stack := range goroutines() {
		if _, ok := before[id]; !ok {
			stacks = append(stacks, stack)
		}
	}
	return stacks
}

// Check fails t if a goroutine it started is still running when it ends.
// It compares goroutine IDs, not counts, so a goroutine that was already
// exiting when the test began (an earlier test's) cannot hide one the
// test leaks. Call it first, so its cleanup runs after every server, node
// and pipeline the test registers has closed.
func Check(t testing.TB) {
	t.Helper()
	before := goroutines()
	t.Cleanup(func() {
		if t.Failed() {
			return // the real failure is more interesting than fallout
		}
		if settle(func() int { return len(started(before)) }, 0) > 0 {
			leaked := started(before)
			t.Errorf("goroutine leak: %d started by the test still running after settle\n\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
		}
	})
}

// Main runs m and exits with its code. When every test passed but the
// goroutine count has not come back to its value before m.Run (plus
// mainSlack), it prints every goroutine's stack and exits non-zero.
// Call it as a package's TestMain body.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if now := settle(runtime.NumGoroutine, before+mainSlack); now > before+mainSlack {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d after settle\n\n%s\n", before, now, buf)
			code = 1
		}
	}
	os.Exit(code)
}
