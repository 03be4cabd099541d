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
// Like the Fortuna-style study.TaskCollector this is AccessSet
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
	AccessRecorder
	depth    int // open loop nesting
	headers  int // open header-clause brackets
	cur      *AccessSet
	order    []ast.LoopID
	byID     map[ast.LoopID]*AccessSet
	objNames map[*value.Object]string
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
		byID:     make(map[ast.LoopID]*AccessSet),
		objNames: make(map[*value.Object]string),
	}
}

// LoopEnter is an interp hook event. An outermost loop's accesses
// merge across its dynamic instances.
func (d *PipePairDetector) LoopEnter(id ast.LoopID) {
	d.depth++
	if d.depth != 1 {
		return
	}
	acc := d.byID[id]
	if acc == nil {
		acc = NewAccessSet()
		d.byID[id] = acc
		d.order = append(d.order, id)
	}
	d.cur = acc
	d.record()
}

// LoopExit is an interp hook event.
func (d *PipePairDetector) LoopExit(id ast.LoopID) {
	if d.depth > 0 {
		d.depth--
	}
	if d.depth == 0 {
		d.cur = nil
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
		d.Unit = nil
	}
}

// PropRead is an interp hook event.
func (d *PipePairDetector) PropRead(o *value.Object, key string, via *interp.Binding) {
	d.AccessRecorder.PropRead(o, key, via)
	d.noteName(o, via)
}

// PropWrite is an interp hook event.
func (d *PipePairDetector) PropWrite(o *value.Object, key string, via *interp.Binding) {
	d.AccessRecorder.PropWrite(o, key, via)
	d.noteName(o, via)
}

func (d *PipePairDetector) noteName(o *value.Object, via *interp.Binding) {
	if d.Unit == nil {
		return
	}
	if _, ok := d.objNames[o]; ok || len(d.objNames) >= accessSetCap {
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
			a, b := d.order[ai], d.order[bi]
			if via := d.pairVia(d.byID[a], d.byID[b]); len(via) > 0 {
				out = append(out, PipePair{
					Producer: a,
					Consumer: b,
					Via:      via,
				})
			}
		}
	}
	return out
}

// pairVia returns the via-array names when (a, b) is a clean
// produce → consume pair, nil otherwise: the consumer reads at least
// one array the producer wrote, and every crossing is such a read.
func (d *PipePairDetector) pairVia(a, b *AccessSet) []string {
	var names []string
	if b.DependsOn(a, func(o *value.Object) bool {
		if !o.IsArray() {
			return false
		}
		name := d.objNames[o]
		if name == "" {
			name = "<" + o.Class + ">"
		}
		names = append(names, name)
		return true
	}) || len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	return names
}
