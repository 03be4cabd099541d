package core

import (
	"cmp"
	"slices"

	"repro/internal/js/ast"
	"repro/internal/js/value"
)

// PipePairDetector finds produce → consume hot-loop pairs: a later loop
// B that reads the array(s) an earlier loop A wrote, with no other
// cross-dependence between the two. That is exactly the shape flat
// mapPar cannot exploit (B depends on A) but a streaming pipeline can
// (autopar.PipelineSpec): convert each loop body to a stage elemental
// and stream index batches A → B.
//
// Like the Fortuna-style study.TaskCollector it marks each binding and
// object with the units (here outermost loops, numbered in first-open
// order) that read and wrote it: conservative, never overestimating
// safety. Any shared scalar, any non-array object flow, any write-write
// overlap disqualifies the pair. Whether each loop's *own* iterations
// are independent is the existing DepAnalyzer's question; the detector
// answers only the between-loops half.
//
// Accesses are attributed to the outermost open loop (nested loops are
// part of their enclosing hot loop's work), and loop header clauses
// (init/post, i.e. the induction variable) are exempted so two sibling
// loops sharing `var i` are not a false cross-dependence.
type PipePairDetector struct {
	Marker
	depth   int // open loop nesting
	headers int // open header-clause brackets
	cur     int // the open outermost loop's unit, -1 for none
	order   []ast.LoopID
	// pairs[b][a] is the state of the pair of units a < b.
	pairs [][]pairState
}

// pairState is one pair of units: dirty, or the names of the arrays the
// later unit reads and the earlier one writes, one per array.
type pairState struct {
	dirty bool
	via   []string
}

// PipePair is one detected produce → consume pair.
type PipePair struct {
	Producer, Consumer ast.LoopID
	// Via names the arrays written by Producer and read by Consumer
	// (sorted; the binding name of the first access, or the object
	// class when the access never went through a simple variable).
	Via []string
}

// NewPipePairDetector returns a detector to install as an interpreter
// hook, alone or beside others but DepAnalyzer, which shares Aux.
func NewPipePairDetector() *PipePairDetector {
	d := &PipePairDetector{cur: -1}
	d.Marker = NewMarker(d.first)
	return d
}

// LoopEnter is an interp hook event. An outermost loop's accesses
// merge across its dynamic instances.
func (d *PipePairDetector) LoopEnter(id ast.LoopID) {
	d.depth++
	if d.depth != 1 {
		return
	}
	u := slices.Index(d.order, id)
	if u < 0 {
		u = len(d.order)
		d.order = append(d.order, id)
		d.pairs = append(d.pairs, make([]pairState, u))
	}
	d.cur = u
	d.record()
}

// LoopExit is an interp hook event.
func (d *PipePairDetector) LoopExit(id ast.LoopID) {
	if d.depth > 0 {
		d.depth--
	}
	if d.depth == 0 {
		d.cur = -1
	}
	d.record()
}

// LoopHeader: induction-variable reads/writes in init/post clauses are
// exempt (sibling loops legitimately share `i`).
func (d *PipePairDetector) LoopHeader(_ ast.LoopID, active bool) {
	if active {
		d.headers++
	} else if d.headers > 0 {
		d.headers--
	}
	d.record()
}

// record points the access hooks at the open outermost loop, or at
// nothing inside a header clause.
func (d *PipePairDetector) record() {
	d.Unit = d.cur
	if d.headers > 0 {
		d.Unit = -1
	}
}

// first settles, at unit u's first read or write of a location, u's
// pair with each other unit that wrote it, and for a write each that
// read it.
func (d *PipePairDetector) first(m *Marks, write bool) {
	u := d.Unit
	for w := range m.Writers.All() {
		if write {
			d.cross(u, w, nil)
		} else {
			d.cross(w, u, m)
		}
	}
	if write {
		for r := range m.Readers.All() {
			d.cross(u, r, m)
		}
	}
}

// cross is unit r reading what unit w wrote (with m nil, overwriting
// it). Only a later unit's read of an array streams, by name; any other
// crossing is a dependence.
func (d *PipePairDetector) cross(w, r int, m *Marks) {
	if w == r {
		return
	}
	switch p := &d.pairs[max(w, r)][min(w, r)]; {
	case p.dirty:
	case r < w || m == nil || !m.array:
		p.dirty, p.via = true, nil
	default:
		p.via = append(p.via, cmp.Or(m.name, "<"+value.ClassArray+">"))
	}
}

// Pairs returns every ordered (producer, consumer) pair of completed
// outermost loops where the consumer reads at least one array the
// producer wrote and *no other* dependence crosses the pair:
//
//   - no scalar flow: nothing the producer wrote (variable) is read or
//     rewritten by the consumer;
//   - no write conflicts: the consumer writes nothing the producer
//     touched (so the via arrays are read-only downstream);
//   - no non-array flow: every producer-written object the consumer
//     reads must be an array (structured objects do not cross
//     share-nothing stage workers).
//
// Loop order is first-execution order, matching the program text for
// straight-line hot paths.
func (d *PipePairDetector) Pairs() []PipePair {
	var out []PipePair
	for a := range d.order {
		for b := a + 1; b < len(d.order); b++ {
			if p := d.pairs[b][a]; !p.dirty && len(p.via) > 0 {
				out = append(out, PipePair{
					Producer: d.order[a],
					Consumer: d.order[b],
					Via:      slices.Sorted(slices.Values(p.via)),
				})
			}
		}
	}
	return out
}
