// Package gecko simulates the Mozilla Gecko sampling profiler the paper
// uses for its "Active" column in Table 2 (§3.1).
//
// The real profiler samples the call stack at a fixed rate and at function
// granularity. §3.1 documents a resulting anomaly: "a long running
// computation within a single function may be seen as inactive", so the
// sampled active time can undercount — sometimes ending up *below* the
// loop time measured by JS-CERES's inline instrumentation.
//
// This simulation reproduces that mechanism directly: activity is
// recognized only around function-call boundaries. Between two call events
// separated by Δt of virtual time, at most one sampling window of time is
// attributed as active — a tight loop that stays inside one function for
// 50ms with no calls contributes a single sampling window, exactly the
// paper's failure mode. Idle gaps (no script running) contribute nothing.
package gecko

import "repro/internal/js/interp"

// window is the sampling interval: the maximum time one call boundary
// can vouch for. Gecko samples every 1ms; the virtual step cost (1µs)
// runs ~5× slower than a JIT-ed engine, so the 1ms window scales to
// 5ms of virtual time.
const window = 5 * 1_000_000

// Sampler estimates active CPU time at function granularity.
type Sampler struct {
	// clock reads *script* time: a real sampler never attributes samples
	// to an engine that is sitting idle in the event loop.
	clock interface{ ScriptTime() int64 }
	// window is the sampling interval (the package's window; gecko's
	// own tests vary it).
	window int64

	lastEvent int64
	activeNS  int64
}

// NewSampler attaches a sampler to the interpreter clock.
func NewSampler(in *interp.Interp) *Sampler {
	return &Sampler{
		clock:     in,
		window:    window,
		lastEvent: in.ScriptTime(),
	}
}

// note credits at most one window of activity since the previous call
// boundary — the function-granularity sampling model.
func (s *Sampler) note() {
	now := s.clock.ScriptTime()
	dt := now - s.lastEvent
	if dt > s.window {
		dt = s.window
	}
	if dt > 0 {
		s.activeNS += dt
	}
	s.lastEvent = now
}

// CallEnter is an interp hook event.
func (s *Sampler) CallEnter(string) { s.note() }

// CallExit is an interp hook event.
func (s *Sampler) CallExit(string) { s.note() }

// ActiveTime returns the sampled active time in virtual nanoseconds.
func (s *Sampler) ActiveTime() int64 { return s.activeNS }
