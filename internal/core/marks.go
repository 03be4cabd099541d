package core

import (
	"iter"
	"math/bits"

	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// Marks is one location's access record for the two independence
// baselines, study.TaskCollector (a unit is an event-loop task) and
// PipePairDetector (a unit is an outermost loop): the units that wrote
// and read it. It lives in the binding's or object's Aux slot, so a
// dropped location is collected with its record. It is exact at binding
// and object granularity: two units touching different elements of one
// array still cross, as a limit study must assume.
type Marks struct {
	Writers, Readers Units
	owner            *Marker
	name             string // the first access's via binding, for PipePairDetector
	array            bool
}

// Units is a growable bitset of unit numbers.
type Units []uint64

// add sets unit u, reporting whether it was clear.
func (s *Units) add(u int) bool {
	for len(*s) <= u/64 {
		*s = append(*s, 0)
	}
	old := (*s)[u/64]
	(*s)[u/64] |= 1 << (u % 64)
	return (*s)[u/64] != old
}

// Or adds every unit of t to s.
func (s *Units) Or(t Units) {
	for u := range t.All() {
		s.add(u)
	}
}

// All yields the units of s in increasing order.
func (s Units) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for i, w := range s {
			for ; w != 0; w &= w - 1 {
				if !yield(i*64 + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// Marker is the four access hooks of an independence baseline: while
// Unit is not negative, each access marks its location with Unit, and
// the unit's first read and first write of it call onFirst, so the
// baseline decides dependences then, never comparing whole units.
type Marker struct {
	Unit    int
	onFirst func(m *Marks, write bool)
}

// NewMarker returns a marker that records nothing until Unit is set.
func NewMarker(onFirst func(m *Marks, write bool)) Marker {
	return Marker{Unit: -1, onFirst: onFirst}
}

// VarRead is an interp hook event.
func (r *Marker) VarRead(_ string, b *interp.Binding) { r.mark(&b.Aux, nil, nil, false) }

// VarWrite is an interp hook event.
func (r *Marker) VarWrite(_ string, b *interp.Binding) { r.mark(&b.Aux, nil, nil, true) }

// PropRead is an interp hook event.
func (r *Marker) PropRead(o *value.Object, _ string, via *interp.Binding) {
	r.mark(&o.Aux, o, via, false)
}

// PropWrite is an interp hook event.
func (r *Marker) PropWrite(o *value.Object, _ string, via *interp.Binding) {
	r.mark(&o.Aux, o, via, true)
}

// mark marks the location whose Aux slot is aux (object o, nil for a
// binding) with the open unit.
func (r *Marker) mark(aux *any, o *value.Object, via *interp.Binding, write bool) {
	if r.Unit < 0 {
		return
	}
	m, ok := (*aux).(*Marks)
	if !ok || m.owner != r { // none yet, or another marker's
		m = &Marks{owner: r, array: o != nil && o.IsArray()}
		if via != nil {
			m.name = via.Name
		}
		*aux = m
	}
	if write && m.Writers.add(r.Unit) || !write && m.Readers.add(r.Unit) {
		r.onFirst(m, write)
	}
}
