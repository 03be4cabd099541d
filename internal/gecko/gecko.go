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
// separated by Δt of virtual time, at most Window nanoseconds are
// attributed as active — a tight loop that stays inside one function for
// 50ms with no calls contributes a single sampling window, exactly the
// paper's failure mode. Idle gaps (no script running) contribute nothing.
package gecko

import (
	"sort"

	"repro/internal/js/interp"
)

// Sampler estimates active CPU time at function granularity.
type Sampler struct {
	// clock reads *script* time: a real sampler never attributes samples
	// to an engine that is sitting idle in the event loop.
	clock interface{ ScriptTime() int64 }

	// Window is the sampling interval: the maximum time one call boundary
	// can vouch for (default 1ms of virtual time, the Gecko default).
	Window int64

	lastEvent int64
	activeNS  int64
	started   int64

	// per-function inclusive sample counts (top of stack attribution)
	stack   []string
	samples map[string]int64
}

// NewSampler attaches a sampler to the interpreter clock.
func NewSampler(in *interp.Interp) *Sampler {
	return &Sampler{
		clock:     in,
		Window:    1_000_000, // 1ms virtual
		lastEvent: in.ScriptTime(),
		started:   in.ScriptTime(),
		samples:   make(map[string]int64),
	}
}

// note credits at most Window ns of activity since the previous call
// boundary — the function-granularity sampling model.
func (s *Sampler) note() {
	now := s.clock.ScriptTime()
	dt := now - s.lastEvent
	if dt > s.Window {
		dt = s.Window
	}
	if dt > 0 {
		s.activeNS += dt
		if len(s.stack) > 0 {
			s.samples[s.stack[len(s.stack)-1]]++
		}
	}
	s.lastEvent = now
}

// CallEnter is an interp hook event.
func (s *Sampler) CallEnter(name string) {
	s.note()
	s.stack = append(s.stack, name)
}

// CallExit is an interp hook event.
func (s *Sampler) CallExit(string) {
	s.note()
	if len(s.stack) > 0 {
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// ActiveTime returns the sampled active time in virtual nanoseconds.
func (s *Sampler) ActiveTime() int64 { return s.activeNS }

// FunctionSample is one row of the per-function profile.
type FunctionSample struct {
	Name    string
	Samples int64
}

// TopFunctions returns the hottest functions by sample count.
func (s *Sampler) TopFunctions(n int) []FunctionSample {
	out := make([]FunctionSample, 0, len(s.samples))
	for name, c := range s.samples {
		out = append(out, FunctionSample{Name: name, Samples: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
