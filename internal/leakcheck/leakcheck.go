// Package leakcheck fails tests that leave goroutines running: a server
// never closed, a worker pool never joined, a prober never stopped.
// Check guards one test; Main guards a whole package's test binary from
// its TestMain. Both count goroutines, so neither is meaningful beside
// t.Parallel tests.
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// mainSlack is how far above its starting count a package's test binary
// may end: room for one runtime-owned goroutine that a test's first use
// starts and nothing stops (os/signal's watcher, started by the first
// signal.Notify).
const mainSlack = 1

// settle waits up to 3 s for the goroutine count to fall to limit,
// closing http.DefaultTransport's idle connections each round (a
// keep-alive connection holds two goroutines until it is closed). It
// returns the last count.
func settle(limit int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		n := runtime.NumGoroutine()
		if n <= limit || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Check fails t if it ends with more goroutines than it started with.
// Call it first, so its cleanup runs after every server, node and
// pipeline the test registers has closed.
func Check(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return // the real failure is more interesting than fallout
		}
		if now := settle(before); now > before {
			t.Errorf("goroutine leak: %d before the test, %d after settle", before, now)
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
		if now := settle(before + mainSlack); now > before+mainSlack {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d after settle\n\n%s\n", before, now, buf)
			code = 1
		}
	}
	os.Exit(code)
}
