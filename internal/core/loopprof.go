package core

import (
	"sort"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
)

// LoopStats aggregates the §3.2 statistics for one syntactic loop: the
// number of times it was encountered (instances), and total/mean/variance
// of both running time and trip count, maintained online with Welford's
// algorithm.
type LoopStats struct {
	ID        ast.LoopID
	Instances int64
	Time      Welford // per-instance running time (ns, includes nested loops)
	Trips     Welford // per-instance trip count
	SelfTime  int64   // time excluding time spent in nested (dynamically) loops

	// Parents counts, per dynamically-enclosing loop, how many instances of
	// this loop began under it; NoLoop means "top level" (nest root).
	Parents map[ast.LoopID]int64
}

// LoopProfiler implements the loop-profiling mode of §3.2.
type LoopProfiler struct {
	clock interface{ Now() int64 }

	stats map[ast.LoopID]*LoopStats
	live  []liveLoop

	// branch divergence bookkeeping: per (root loop, branch) taken counts,
	// consumed by the Table 3 divergence classifier.
	branches map[branchKey]*branchStats
	// hostOps counts DOM/canvas operations per root loop.
	hostOps map[hostKey]int64
	// iterations per root loop (all loops in nest), to normalize rates.
	nestEvents map[ast.LoopID]int64
}

type liveLoop struct {
	id      ast.LoopID
	start   int64
	trips   int64
	childNS int64 // time consumed by nested loop instances
}

type branchKey struct {
	root   ast.LoopID
	branch int
}

type branchStats struct {
	taken    int64
	notTaken int64
}

type hostKey struct {
	root     ast.LoopID
	category string
}

// NewLoopProfiler returns a loop profiler reading the interpreter clock.
func NewLoopProfiler(in *interp.Interp) *LoopProfiler {
	p := &LoopProfiler{
		clock:      in,
		stats:      make(map[ast.LoopID]*LoopStats),
		branches:   make(map[branchKey]*branchStats),
		hostOps:    make(map[hostKey]int64),
		nestEvents: make(map[ast.LoopID]int64),
	}
	return p
}

func (p *LoopProfiler) statsFor(id ast.LoopID) *LoopStats {
	s, ok := p.stats[id]
	if !ok {
		s = &LoopStats{ID: id, Parents: make(map[ast.LoopID]int64)}
		p.stats[id] = s
	}
	return s
}

// LoopEnter is an interp hook event.
func (p *LoopProfiler) LoopEnter(id ast.LoopID) {
	s := p.statsFor(id)
	s.Instances++
	parent := ast.NoLoop
	if len(p.live) > 0 {
		parent = p.live[len(p.live)-1].id
	}
	s.Parents[parent]++
	p.live = append(p.live, liveLoop{id: id, start: p.clock.Now()})
}

// LoopIter is an interp hook event. Iteration events are credited to
// every open loop so statistics work for nested loops promoted to nest
// roots (the paper reports inner nests when the outer loop is
// sequential, §4.1).
func (p *LoopProfiler) LoopIter(id ast.LoopID) {
	for i := len(p.live) - 1; i >= 0; i-- {
		if p.live[i].id == id {
			p.live[i].trips++
			break
		}
	}
	for i := range p.live {
		if firstOccurrence(p.live, i) {
			p.nestEvents[p.live[i].id]++
		}
	}
}

// firstOccurrence reports whether live[i] is the first frame of its loop
// (duplicates only appear under recursion; the stack is shallow, so the
// quadratic scan beats allocating a set per event).
func firstOccurrence(live []liveLoop, i int) bool {
	for j := 0; j < i; j++ {
		if live[j].id == live[i].id {
			return false
		}
	}
	return true
}

// LoopExit is an interp hook event.
func (p *LoopProfiler) LoopExit(id ast.LoopID) {
	now := p.clock.Now()
	for i := len(p.live) - 1; i >= 0; i-- {
		if p.live[i].id != id {
			continue
		}
		l := p.live[i]
		dur := now - l.start
		s := p.statsFor(id)
		s.Time.Add(float64(dur))
		s.Trips.Add(float64(l.trips))
		s.SelfTime += dur - l.childNS
		p.live = append(p.live[:i], p.live[i+1:]...)
		if i > 0 {
			p.live[i-1].childNS += dur
		}
		return
	}
}

// BranchTaken: outcomes are recorded inside loops, attributed to every
// open loop.
func (p *LoopProfiler) BranchTaken(branch int, taken bool) {
	for i := range p.live {
		if !firstOccurrence(p.live, i) {
			continue
		}
		r := p.live[i].id
		k := branchKey{root: r, branch: branch}
		b, ok := p.branches[k]
		if !ok {
			b = &branchStats{}
			p.branches[k] = b
		}
		if taken {
			b.taken++
		} else {
			b.notTaken++
		}
	}
}

// HostOp is an interp hook event: it attributes DOM and canvas activity
// to the open loop nests.
func (p *LoopProfiler) HostOp(category, op string) {
	for i := range p.live {
		if !firstOccurrence(p.live, i) {
			continue
		}
		p.hostOps[hostKey{root: p.live[i].id, category: category}]++
	}
}

// Stats returns the statistics for one loop (nil if never entered).
func (p *LoopProfiler) Stats(id ast.LoopID) *LoopStats { return p.stats[id] }

// AllStats returns every profiled loop, ordered by descending total time.
func (p *LoopProfiler) AllStats() []*LoopStats {
	out := make([]*LoopStats, 0, len(p.stats))
	for _, s := range p.stats {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time.Sum() != out[j].Time.Sum() {
			return out[i].Time.Sum() > out[j].Time.Sum()
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// HostOps returns the number of host operations of the category observed
// under the given nest root.
func (p *LoopProfiler) HostOps(root ast.LoopID, category string) int64 {
	return p.hostOps[hostKey{root: root, category: category}]
}

// NestIterations returns the total iteration events observed under root.
func (p *LoopProfiler) NestIterations(root ast.LoopID) int64 { return p.nestEvents[root] }

// DivergentBranchRate returns, for the nest rooted at root, the fraction
// of branch executions whose outcome is data-dependent (taken ratio
// strictly between lo and hi). It also returns the total branch executions
// per iteration, the raw material for the Table 3 divergence column.
func (p *LoopProfiler) DivergentBranchRate(root ast.LoopID, lo, hi float64) (divergentFrac, branchesPerIter float64) {
	var total, divergent int64
	for k, b := range p.branches {
		if k.root != root {
			continue
		}
		n := b.taken + b.notTaken
		total += n
		ratio := float64(b.taken) / float64(n)
		if ratio > lo && ratio < hi {
			divergent += n
		}
	}
	iters := p.nestEvents[root]
	if total == 0 || iters == 0 {
		return 0, 0
	}
	return float64(divergent) / float64(total), float64(total) / float64(iters)
}
