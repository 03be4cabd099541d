package core

import (
	"repro/internal/js/ast"
	"repro/internal/js/interp"
)

// LightProfiler implements the lightweight profiling mode of §3.1: it
// measures only two scalars, the total time from the start of the
// application and the total runtime spent in all loops, using an
// open-loop counter. The paper reports this mode has no discernible
// overhead; here it is two integer fields.
type LightProfiler struct {
	clock interface{ Now() int64 }

	openLoops int
	loopStart int64
	inLoops   int64
	started   int64
}

// NewLightProfiler returns a profiler reading time from the interpreter's
// virtual clock.
func NewLightProfiler(in *interp.Interp) *LightProfiler {
	return &LightProfiler{clock: in, started: in.Now()}
}

// LoopEnter: 0→1 open loops records a timestamp.
func (p *LightProfiler) LoopEnter(ast.LoopID) {
	if p.openLoops == 0 {
		p.loopStart = p.clock.Now()
	}
	p.openLoops++
}

// LoopExit: 1→0 open loops accumulates the delta.
func (p *LightProfiler) LoopExit(ast.LoopID) {
	p.openLoops--
	if p.openLoops == 0 {
		p.inLoops += p.clock.Now() - p.loopStart
	}
	if p.openLoops < 0 {
		p.openLoops = 0
	}
}

// InLoopTime returns the total virtual nanoseconds spent inside loops.
func (p *LightProfiler) InLoopTime() int64 {
	t := p.inLoops
	if p.openLoops > 0 { // account loops still open at read time
		t += p.clock.Now() - p.loopStart
	}
	return t
}

// TotalTime returns virtual nanoseconds since the profiler was attached.
func (p *LightProfiler) TotalTime() int64 { return p.clock.Now() - p.started }
