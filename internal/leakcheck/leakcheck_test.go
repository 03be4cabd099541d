package leakcheck

import (
	"fmt"
	"strings"
	"testing"
)

// recorder is a testing.TB whose cleanups run when finish is called and
// whose errors are recorded rather than reported.
type recorder struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (r *recorder) Helper()                   {}
func (r *recorder) Cleanup(fn func())         { r.cleanups = append(r.cleanups, fn) }
func (r *recorder) Failed() bool              { return len(r.errs) > 0 }
func (r *recorder) Errorf(f string, a ...any) { r.errs = append(r.errs, fmt.Sprintf(f, a...)) }

func (r *recorder) finish() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

func TestCheckPassesWhenGoroutinesJoin(t *testing.T) {
	r := &recorder{}
	Check(r)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	r.finish()
	if len(r.errs) != 0 {
		t.Errorf("joined goroutine reported: %q", r.errs)
	}
}

func TestCheckReportsLeak(t *testing.T) {
	r := &recorder{}
	Check(r)
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	r.finish()
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "goroutine leak") {
		t.Errorf("errors = %q, want one goroutine leak", r.errs)
	}
}

// TestCheckQuietAfterFailure: a test that already failed gets no leak
// report on top of its own failure.
func TestCheckQuietAfterFailure(t *testing.T) {
	r := &recorder{}
	Check(r)
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	r.Errorf("the test's own failure")
	r.finish()
	if len(r.errs) != 1 {
		t.Errorf("errors = %q, want only the test's own", r.errs)
	}
}
