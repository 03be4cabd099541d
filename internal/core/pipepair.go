package core

import (
	"sort"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// PipePairDetector finds produce → consume hot-loop pairs: a later loop
// B that reads the array(s) an earlier loop A wrote, with no other
// cross-dependence between the two. That is exactly the shape flat
// mapPar cannot exploit (B depends on A) but a streaming pipeline can
// (autopar.PipelineSpec): convert each loop body to a stage elemental
// and stream index batches A → B.
//
// Like the Fortuna-style study.TaskCollector this is access-set
// analysis at object/binding granularity — conservative, never
// overestimating safety: any shared scalar, any non-array object flow,
// any write-write overlap disqualifies the pair. Whether each loop's
// *own* iterations are independent is the existing DepAnalyzer's
// question; the detector answers only the between-loops half.
//
// Accesses are attributed to the outermost open loop (nested loops are
// part of their enclosing hot loop's work), and loop header clauses
// (init/post, i.e. the induction variable) are exempted so two sibling
// loops sharing `var i` are not a false cross-dependence.
type PipePairDetector struct {
	depth    int // open loop nesting
	headers  int // open header-clause brackets
	cur      *loopAccess
	order    []*loopAccess
	byID     map[ast.LoopID]*loopAccess
	objNames map[*value.Object]string
	setCap   int
}

// loopAccess is one outermost loop's merged access sets (merged across
// dynamic instances of the same syntactic loop).
type loopAccess struct {
	id        ast.LoopID
	varReads  map[*interp.Binding]string
	varWrites map[*interp.Binding]string
	objReads  map[*value.Object]bool
	objWrites map[*value.Object]bool
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
// hook (alone or beside others).
func NewPipePairDetector() *PipePairDetector {
	return &PipePairDetector{
		byID:     make(map[ast.LoopID]*loopAccess),
		objNames: make(map[*value.Object]string),
		setCap:   1 << 16,
	}
}

// LoopEnter is an interp hook event.
func (d *PipePairDetector) LoopEnter(id ast.LoopID) {
	d.depth++
	if d.depth != 1 {
		return
	}
	la := d.byID[id]
	if la == nil {
		la = &loopAccess{
			id:        id,
			varReads:  make(map[*interp.Binding]string),
			varWrites: make(map[*interp.Binding]string),
			objReads:  make(map[*value.Object]bool),
			objWrites: make(map[*value.Object]bool),
		}
		d.byID[id] = la
		d.order = append(d.order, la)
	}
	d.cur = la
}

// LoopExit is an interp hook event.
func (d *PipePairDetector) LoopExit(id ast.LoopID) {
	if d.depth > 0 {
		d.depth--
	}
	if d.depth == 0 {
		d.cur = nil
	}
}

// LoopHeader: induction-variable reads/writes in init/post clauses are
// exempt (sibling loops legitimately share `i`).
func (d *PipePairDetector) LoopHeader(_ ast.LoopID, active bool) {
	if active {
		d.headers++
	} else if d.headers > 0 {
		d.headers--
	}
}

func (d *PipePairDetector) recording() *loopAccess {
	if d.cur == nil || d.headers > 0 {
		return nil
	}
	return d.cur
}

// VarRead is an interp hook event.
func (d *PipePairDetector) VarRead(name string, b *interp.Binding) {
	if la := d.recording(); la != nil && len(la.varReads) < d.setCap {
		la.varReads[b] = name
	}
}

// VarWrite is an interp hook event.
func (d *PipePairDetector) VarWrite(name string, b *interp.Binding) {
	if la := d.recording(); la != nil && len(la.varWrites) < d.setCap {
		la.varWrites[b] = name
	}
}

// PropRead is an interp hook event.
func (d *PipePairDetector) PropRead(o *value.Object, key string, via *interp.Binding) {
	la := d.recording()
	if la == nil {
		return
	}
	if len(la.objReads) < d.setCap {
		la.objReads[o] = true
	}
	d.noteName(o, via)
}

// PropWrite is an interp hook event.
func (d *PipePairDetector) PropWrite(o *value.Object, key string, via *interp.Binding) {
	la := d.recording()
	if la == nil {
		return
	}
	if len(la.objWrites) < d.setCap {
		la.objWrites[o] = true
	}
	d.noteName(o, via)
}

func (d *PipePairDetector) noteName(o *value.Object, via *interp.Binding) {
	if _, ok := d.objNames[o]; ok || len(d.objNames) >= d.setCap {
		return
	}
	if via != nil && via.Name != "" {
		d.objNames[o] = via.Name
	} else {
		d.objNames[o] = "<" + o.Class + ">"
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
	for ai := 0; ai < len(d.order); ai++ {
		for bi := ai + 1; bi < len(d.order); bi++ {
			if via := d.pairVia(d.order[ai], d.order[bi]); len(via) > 0 {
				out = append(out, PipePair{
					Producer: d.order[ai].id,
					Consumer: d.order[bi].id,
					Via:      via,
				})
			}
		}
	}
	return out
}

// pairVia returns the via-array names when (a, b) is a clean
// produce → consume pair, nil otherwise.
func (d *PipePairDetector) pairVia(a, b *loopAccess) []string {
	via := make(map[*value.Object]bool)
	for o := range b.objReads {
		if a.objWrites[o] && o.IsArray() {
			via[o] = true
		}
	}
	if len(via) == 0 {
		return nil
	}
	// Scalar cross-dependence: a variable the producer wrote that the
	// consumer reads (flow) or writes (output dependence).
	for bnd := range b.varReads {
		if _, ok := a.varWrites[bnd]; ok {
			return nil
		}
	}
	for bnd := range b.varWrites {
		if _, ok := a.varWrites[bnd]; ok {
			return nil
		}
		if _, ok := a.varReads[bnd]; ok {
			return nil
		}
	}
	// Object conflicts: the consumer must not write anything the
	// producer touched, and every producer-written object it reads must
	// be a via array.
	for o := range b.objWrites {
		if a.objWrites[o] || a.objReads[o] {
			return nil
		}
	}
	for o := range b.objReads {
		if a.objWrites[o] && !via[o] {
			return nil
		}
	}
	names := make([]string, 0, len(via))
	for o := range via {
		name := d.objNames[o]
		if name == "" {
			name = "<" + o.Class + ">"
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
