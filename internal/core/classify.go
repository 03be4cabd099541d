package core

import (
	"math"
	"sort"

	"repro/internal/js/ast"
)

// Difficulty is the Table 3 scale for "breaking dependencies" and
// "parallelization difficulty".
type Difficulty int

// Difficulty levels, ordered.
const (
	VeryEasy Difficulty = iota
	Easy
	Medium
	Hard
	VeryHard
)

func (d Difficulty) String() string {
	switch d {
	case VeryEasy:
		return "very easy"
	case Easy:
		return "easy"
	case Medium:
		return "medium"
	case Hard:
		return "hard"
	case VeryHard:
		return "very hard"
	}
	return "?"
}

// Divergence is the Table 3 control-flow divergence scale.
type Divergence int

// Divergence levels.
const (
	DivNone Divergence = iota
	DivLittle
	DivYes
)

func (d Divergence) String() string {
	switch d {
	case DivNone:
		return "none"
	case DivLittle:
		return "little"
	case DivYes:
		return "yes"
	}
	return "?"
}

// NestReport is one row of Table 3: a loop nest with its runtime profile
// and parallelization assessment.
type NestReport struct {
	Root     ast.LoopID
	Label    string // e.g. "for(line 12)"
	Kind     string
	Line     int
	TimeNS   int64
	PctLoop  float64 // share of all loop time, in percent
	Instanc  int64
	TripMean float64
	TripStd  float64

	Divergence Divergence
	DOMAccess  bool
	DepDiff    Difficulty
	ParDiff    Difficulty

	// Evidence behind the classification.
	FlowDeps      int
	VarDeps       int
	VarFlows      int
	SharedWrites  int
	OverlapWrites int
	Recursion     bool
	DOMOpsPerIter float64
	DivergentFrac float64
	BranchPerIter float64
	Children      []ast.LoopID

	// PromotedFrom is the sequential outer loop this row was promoted out
	// of (ast.NoLoop when the row is a natural nest root).
	PromotedFrom ast.LoopID
}

// Parallelizable reports whether the nest has intrinsic data parallelism —
// no unbreakable dependencies — per the paper's ~¾-of-nests finding.
func (n *NestReport) Parallelizable() bool { return n.DepDiff <= Medium && !n.Recursion }

// minNestTimeFrac drops nests below this share of loop time: the paper
// inspects the top nests and ignores trivia.
const minNestTimeFrac = 0.01

// ClassifyNests assembles loop nests from a profiled+analysed run and
// produces Table 3 rows ordered by descending time, one per nest with at
// least minNestTimeFrac of the loop time.
//
// When a nest root is itself sequential (hard dependences) but one inner
// loop carries most of the time and is clean, the inner loop is promoted
// to the reported row — the paper does the same by hand: "In a few cases
// the parallelizable loop is not the outer loop of a nest. In these cases
// we consider the loop nest formed without some of the outer layers"
// (§4.1; fluidSim's linear-solver sweep is the canonical case).
func ClassifyNests(prog *ast.Program, lp *LoopProfiler, dep *DepAnalyzer) []NestReport {
	stats := lp.AllStats()

	// Roots: loops most often entered with no loop open.
	childrenOf := make(map[ast.LoopID][]ast.LoopID)
	var roots []*LoopStats
	for _, s := range stats {
		parent := dominantParent(s)
		if parent == ast.NoLoop {
			roots = append(roots, s)
		} else {
			childrenOf[parent] = append(childrenOf[parent], s.ID)
		}
	}

	var totalLoopNS float64
	for _, r := range roots {
		totalLoopNS += r.Time.Sum()
	}
	if totalLoopNS == 0 {
		return nil
	}

	var out []NestReport
	for _, r := range roots {
		frac := r.Time.Sum() / totalLoopNS
		if frac < minNestTimeFrac {
			continue
		}
		rep := buildNestReport(prog, lp, dep, r, childrenOf, totalLoopNS)

		// Inner-nest promotion.
		if rep.DepDiff >= Hard && !rep.Recursion {
			if inner := promoteInner(prog, lp, dep, r, childrenOf, totalLoopNS); inner != nil {
				inner.PromotedFrom = r.ID
				rep = *inner
			}
		}
		out = append(out, rep)
	}

	sort.Slice(out, func(i, j int) bool { return out[i].TimeNS > out[j].TimeNS })
	return out
}

// buildNestReport assembles the Table 3 row for the nest rooted at r.
func buildNestReport(prog *ast.Program, lp *LoopProfiler, dep *DepAnalyzer, r *LoopStats, childrenOf map[ast.LoopID][]ast.LoopID, totalLoopNS float64) NestReport {
	nest := collectNest(r.ID, childrenOf)
	rep := NestReport{
		Root:     r.ID,
		Label:    loopLabel(prog.Loops, r.ID),
		TimeNS:   int64(r.Time.Sum()),
		PctLoop:  100 * r.Time.Sum() / totalLoopNS,
		Instanc:  r.Instances,
		TripMean: r.Trips.Mean(),
		TripStd:  r.Trips.StdDev(),
		Children: nest[1:],
	}
	if idx := int(r.ID) - 1; idx >= 0 && idx < len(prog.Loops) {
		rep.Kind = prog.Loops[idx].Kind
		rep.Line = prog.Loops[idx].Line
	}

	rep.DivergentFrac, rep.BranchPerIter = lp.DivergentBranchRate(r.ID, 0.02, 0.98)

	var domOps int64
	domOps += lp.HostOps(r.ID, "dom")
	domOps += lp.HostOps(r.ID, "canvas")
	iters := lp.NestIterations(r.ID)
	if iters > 0 {
		rep.DOMOpsPerIter = float64(domOps) / float64(iters)
	}
	rep.DOMAccess = domOps > 0

	// Dependence evidence is taken at the nest root: dependences internal
	// to child loops do not block parallelizing the root's iterations
	// (e.g. a sequential per-pixel bounce loop inside a clean pixel loop).
	if sum := dep.Summary(r.ID); sum != nil {
		rep.FlowDeps = len(sum.FlowReads)
		rep.VarDeps = len(sum.VarWrites)
		rep.VarFlows = len(sum.VarFlows)
		rep.SharedWrites = len(sum.SharedPropWrites)
		rep.OverlapWrites = len(sum.OverlapPropWrites)
		rep.Recursion = sum.Recursion
	}
	// Recursion anywhere in the nest still poisons the analysis (§3.3).
	for _, id := range nest {
		if sum := dep.Summary(id); sum != nil && sum.Recursion {
			rep.Recursion = true
		}
	}
	if dep.Stack().Recursive[r.ID] {
		rep.Recursion = true
	}

	rep.Divergence = classifyDivergence(&rep, lp, r)
	rep.DepDiff = classifyDepDifficulty(&rep)
	rep.ParDiff = classifyParDifficulty(&rep)
	return rep
}

// promoteInner looks for a direct child of root that carries ≥60% of the
// root's time and classifies at least two difficulty grades easier; it
// returns that child's report, or nil.
func promoteInner(prog *ast.Program, lp *LoopProfiler, dep *DepAnalyzer, root *LoopStats, childrenOf map[ast.LoopID][]ast.LoopID, totalLoopNS float64) *NestReport {
	rootRep := buildNestReport(prog, lp, dep, root, childrenOf, totalLoopNS)
	var best *NestReport
	for _, cid := range childrenOf[root.ID] {
		cs := lp.Stats(cid)
		if cs == nil || cs.Time.Sum() < 0.6*root.Time.Sum() {
			continue
		}
		cRep := buildNestReport(prog, lp, dep, cs, childrenOf, totalLoopNS)
		if cRep.DepDiff+2 > rootRep.DepDiff {
			continue
		}
		if best == nil || cRep.TimeNS > best.TimeNS {
			c := cRep
			best = &c
		}
	}
	return best
}

func dominantParent(s *LoopStats) ast.LoopID {
	best := ast.NoLoop
	var bestN int64 = -1
	for p, n := range s.Parents {
		if n > bestN {
			best, bestN = p, n
		}
	}
	return best
}

func collectNest(root ast.LoopID, children map[ast.LoopID][]ast.LoopID) []ast.LoopID {
	out := []ast.LoopID{root}
	seen := map[ast.LoopID]bool{root: true}
	for i := 0; i < len(out); i++ {
		for _, c := range children[out[i]] {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// classifyDivergence maps raw branch/trip statistics onto the paper's
// none/little/yes scale (§4.2 "Control-flow divergence"):
//   - recursion inside the nest, degenerate trip counts (loops that run
//     ~once, like Ace's cascading-reflow loop), or wildly data-dependent
//     inner loop bounds → yes;
//   - branchy bodies whose outcomes are data-dependent → yes when a large
//     share of branches diverge, little when small;
//   - straight-line bodies → none.
func classifyDivergence(rep *NestReport, lp *LoopProfiler, root *LoopStats) Divergence {
	if rep.Recursion {
		return DivYes
	}
	if root.Trips.Mean() < 2 {
		return DivYes
	}
	for _, c := range rep.Children {
		cs := lp.Stats(c)
		if cs == nil || cs.Trips.Mean() <= 0 {
			continue
		}
		// data-dependent inner-loop bounds make iterations uneven
		cv := cs.Trips.StdDev() / cs.Trips.Mean()
		if cv > 0.35 {
			return DivYes
		}
	}
	if rep.BranchPerIter < 0.05 {
		return DivNone
	}
	// Divergence that comes only from plain branches is "little" unless it
	// dominates: the paper grades guarded-instruction-sized branches as
	// transformable to predicated/select form without major impact.
	if rep.DivergentFrac > 0.45 {
		return DivYes
	}
	if rep.DivergentFrac < 0.001 && rep.BranchPerIter < 0.5 {
		return DivNone
	}
	return DivLittle
}

// classifyDepDifficulty maps the dependence summary to the paper's scale.
// True loop-carried chains dominate the score: flow dependences through
// heap locations and through variables (accumulators, convergence flags),
// plus overlapping writes (real output dependences). Shared-but-disjoint
// writes (the pixel-buffer pattern) are cheap to privatize, and variables
// that are written but never read across iterations (JavaScript's
// function-scoped temporaries, §3.3's `var p`) cost nothing: extracting
// the body into a function privatizes them, as the paper's forEach
// variant shows.
func classifyDepDifficulty(rep *NestReport) Difficulty {
	if rep.Recursion {
		return VeryHard
	}
	score := 4*rep.FlowDeps + 2*rep.OverlapWrites + 3*rep.VarFlows + rep.SharedWrites/4
	switch {
	case score == 0:
		return VeryEasy
	case score <= 3:
		return Easy
	case score <= 13:
		return Medium
	case score <= 26:
		return Hard
	default:
		return VeryHard
	}
}

// classifyParDifficulty folds browser limitations on top of the
// dependence difficulty: a loop that touches the (non-concurrent) DOM or
// canvas on most iterations cannot be parallelized in today's browsers at
// all (§4.1), and very fine-grained nests aren't worth the fork/join.
func classifyParDifficulty(rep *NestReport) Difficulty {
	d := rep.DepDiff
	if rep.DOMAccess {
		if rep.DOMOpsPerIter >= 0.5 {
			return VeryHard
		}
		if d < Hard {
			d = Hard
		}
	}
	if rep.TripMean < 8 && d < Medium {
		d = Medium
	}
	return d
}

// AmdahlBound returns the asymptotic (infinite-core) speedup bound
// 1/(1-P), where P is the fraction of scriptTime covered by the nests
// accepted by keep. The paper reports this bound exceeds 3× for 5 of the
// 12 applications when counting only easy-to-parallelize loops.
func AmdahlBound(nests []NestReport, scriptNS int64, keep func(*NestReport) bool) float64 {
	if scriptNS <= 0 {
		return 1
	}
	var par int64
	for i := range nests {
		if keep(&nests[i]) {
			par += nests[i].TimeNS
		}
	}
	p := float64(par) / float64(scriptNS)
	if p >= 0.999 {
		p = 0.999
	}
	if p < 0 {
		p = 0
	}
	return 1 / (1 - p)
}

// AmdahlBoundCores returns the finite-core Amdahl bound 1/((1-P)+P/n).
func AmdahlBoundCores(nests []NestReport, scriptNS int64, cores int, keep func(*NestReport) bool) float64 {
	if scriptNS <= 0 || cores <= 0 {
		return 1
	}
	var par int64
	for i := range nests {
		if keep(&nests[i]) {
			par += nests[i].TimeNS
		}
	}
	p := math.Min(float64(par)/float64(scriptNS), 0.999)
	return 1 / ((1 - p) + p/float64(cores))
}
