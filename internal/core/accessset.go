package core

import (
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// accessSetCap bounds each of an AccessSet's four sets.
const accessSetCap = 1 << 16

// AccessSet is one unit of work's reads and writes at binding and
// object granularity. It is the access-set half of the two
// independence baselines — study.TaskCollector's event-loop tasks and
// PipePairDetector's outermost loops — and is conservative, as a limit
// study must be: two units touching different elements of one array
// still cross.
type AccessSet struct {
	varReads, varWrites map[*interp.Binding]struct{}
	objReads, objWrites map[*value.Object]struct{}
}

// NewAccessSet returns an empty set.
func NewAccessSet() *AccessSet {
	return &AccessSet{
		varReads:  make(map[*interp.Binding]struct{}),
		varWrites: make(map[*interp.Binding]struct{}),
		objReads:  make(map[*value.Object]struct{}),
		objWrites: make(map[*value.Object]struct{}),
	}
}

func note[K comparable](m map[K]struct{}, k K) {
	if len(m) < accessSetCap {
		m[k] = struct{}{}
	}
}

// DependsOn reports whether s, the later unit, depends on earlier: it
// reads what earlier wrote (read-after-write), writes what earlier
// wrote (write-after-write) or writes what earlier read
// (write-after-read). A read-after-write through an object o is
// forgiven when flow(o) is true; flow may be nil. The pipeline pair
// rule forgives the consumer reading an array the producer wrote; an
// LRPD commit check is the same rule over chunks.
func (s *AccessSet) DependsOn(earlier *AccessSet, flow func(*value.Object) bool) bool {
	for b := range s.varReads {
		if _, ok := earlier.varWrites[b]; ok {
			return true
		}
	}
	for b := range s.varWrites {
		if _, ok := earlier.varWrites[b]; ok {
			return true
		}
		if _, ok := earlier.varReads[b]; ok {
			return true
		}
	}
	for o := range s.objWrites {
		if _, ok := earlier.objWrites[o]; ok {
			return true
		}
		if _, ok := earlier.objReads[o]; ok {
			return true
		}
	}
	for o := range s.objReads {
		if _, ok := earlier.objWrites[o]; ok && (flow == nil || !flow(o)) {
			return true
		}
	}
	return false
}

// AccessRecorder is the four access hooks of an independence
// baseline: it records every access into Unit, or nothing while Unit
// is nil. The embedding type opens and closes units by setting Unit.
type AccessRecorder struct {
	Unit *AccessSet
}

// VarRead is an interp hook event.
func (r *AccessRecorder) VarRead(_ string, b *interp.Binding) {
	if r.Unit != nil {
		note(r.Unit.varReads, b)
	}
}

// VarWrite is an interp hook event.
func (r *AccessRecorder) VarWrite(_ string, b *interp.Binding) {
	if r.Unit != nil {
		note(r.Unit.varWrites, b)
	}
}

// PropRead is an interp hook event.
func (r *AccessRecorder) PropRead(o *value.Object, _ string, _ *interp.Binding) {
	if r.Unit != nil {
		note(r.Unit.objReads, o)
	}
}

// PropWrite is an interp hook event.
func (r *AccessRecorder) PropWrite(o *value.Object, _ string, _ *interp.Binding) {
	if r.Unit != nil {
		note(r.Unit.objWrites, o)
	}
}
