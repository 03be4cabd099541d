package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/study"
)

// Locations of a decoded access sequence: bindings, then objects. The
// first input byte says which objects are arrays.
const (
	fuzzVars  = 3
	fuzzObjs  = 5
	fuzzUnits = 5
)

// fuzzAccess is one decoded access.
type fuzzAccess struct {
	unit, loc int
	write     bool
	via       int // 0: no via binding; else an index into fuzzVia
}

// fuzzVia are the via bindings' names: two share one, and one is empty,
// so via names repeat and fall back to the class.
var fuzzVia = []string{"", "p", "q", "p", ""}

// decodeAccesses reads the array mask (bit i: object i is an array),
// then two bytes per access: the unit, then the location (bits 0–2),
// the via binding (bits 3–6) and whether it writes (bit 7).

func decodeAccesses(data []byte) (arrays uint8, acc []fuzzAccess) {
	if len(data) == 0 {
		return 0, nil
	}
	arrays, data = data[0], data[1:]
	for ; len(data) >= 2; data = data[2:] {
		acc = append(acc, fuzzAccess{
			unit:  int(data[0]) % fuzzUnits,
			loc:   int(data[1]) % (fuzzVars + fuzzObjs),
			via:   int(data[1]>>3&0xf) % len(fuzzVia),
			write: data[1]&0x80 != 0,
		})
	}
	return arrays, acc
}

// fuzzLocs are one consumer's bindings and objects: each marker keeps
// its records in the locations' Aux slots, so they cannot share them.
type fuzzLocs struct {
	vars []*interp.Binding
	objs []*value.Object
	via  []*interp.Binding
}

func newFuzzLocs(arrays uint8) *fuzzLocs {
	l := &fuzzLocs{}
	for range fuzzVars {
		l.vars = append(l.vars, &interp.Binding{Name: "x"})
	}
	for i := range fuzzObjs {
		o := value.NewObject()
		if arrays&(1<<i) != 0 {
			o = value.NewArray()
		}
		l.objs = append(l.objs, o)
	}
	l.via = append(l.via, nil)
	for _, name := range fuzzVia[1:] {
		l.via = append(l.via, &interp.Binding{Name: name})
	}
	return l
}

// access sends a to hooks h.
func (l *fuzzLocs) access(h interface {
	VarRead(string, *interp.Binding)
	VarWrite(string, *interp.Binding)
	PropRead(*value.Object, string, *interp.Binding)
	PropWrite(*value.Object, string, *interp.Binding)
}, a fuzzAccess) {
	switch {
	case a.loc < fuzzVars && a.write:
		h.VarWrite("x", l.vars[a.loc])
	case a.loc < fuzzVars:
		h.VarRead("x", l.vars[a.loc])
	case a.write:
		h.PropWrite(l.objs[a.loc-fuzzVars], "k", l.via[a.via])
	default:
		h.PropRead(l.objs[a.loc-fuzzVars], "k", l.via[a.via])
	}
}

// refUnit is one unit's whole read and write sets, the brute-force side.
type refUnit struct{ reads, writes map[int]bool }

func newRefUnit() *refUnit {
	return &refUnit{reads: map[int]bool{}, writes: map[int]bool{}}
}

func (u *refUnit) note(a fuzzAccess) {
	if a.write {
		u.writes[a.loc] = true
	} else {
		u.reads[a.loc] = true
	}
}

// refDependsOn is the pairwise rule with no cap: later depends on
// earlier when it writes what earlier wrote or read, or reads what
// earlier wrote, unless flow forgives that read (flow may be nil).
func refDependsOn(later, earlier *refUnit, flow func(loc int) bool) bool {
	for l := range later.writes {
		if earlier.writes[l] || earlier.reads[l] {
			return true
		}
	}
	for l := range later.reads {
		if earlier.writes[l] && (flow == nil || !flow(l)) {
			return true
		}
	}
	return false
}

// FuzzAccessMarks holds both independence baselines to the brute-force
// pairwise rule on one decoded access sequence. The collector's task is
// each run of one unit, in order; the detector's unit is an outermost
// loop, re-entered out of order, and its pairs must carry the same via
// names as a sorted multiset.
func FuzzAccessMarks(f *testing.F) {
	f.Add([]byte{0x01, 0, 0x8b, 1, 0x03})                   // array produce → consume
	f.Add([]byte{0x00, 0, 0x80, 1, 0x00})                   // scalar flow
	f.Add([]byte{0x01, 0, 0x83, 1, 0x03, 1, 0x83})          // consumer writes back
	f.Add([]byte{0x03, 2, 0x8b, 0, 0x03, 2, 0x9c, 0, 0x04}) // later-opened producer re-entered, via p twice
	f.Add([]byte{0x01, 0, 0x00, 1, 0x0b, 0, 0x83})          // the producer writes after the consumer read
	f.Add([]byte{0x03, 0, 0x94, 1, 0x04, 1, 0x83, 0, 0x03}) // the producer reads what the consumer wrote
	f.Add([]byte{0x02, 0, 0x03, 1, 0x83, 0, 0x81, 2, 0x01, 0, 0xa4, 2, 0x04, 3, 0x12})
	long := []byte{0x01} // 70 tasks: the collector's unit sets span two words
	for i := range 70 {
		long = append(long, byte(i%2), byte(i%3/2)<<7|0x03)
	}
	f.Add(long)
	clock := interp.New() // the collector only reads its clock
	f.Fuzz(func(t *testing.T, data []byte) {
		arrays, acc := decodeAccesses(data)
		checkCollector(t, clock, arrays, acc)
		checkDetector(t, arrays, acc)
	})
}

func checkCollector(t *testing.T, clock *interp.Interp, arrays uint8, acc []fuzzAccess) {
	locs := newFuzzLocs(arrays)
	col := study.NewTaskCollector(clock)
	var ref []*refUnit
	for i, a := range acc {
		if i == 0 || a.unit != acc[i-1].unit {
			col.BeginTask("t")
			ref = append(ref, newRefUnit())
		}
		locs.access(col, a)
		ref[len(ref)-1].note(a)
	}
	col.EndTask()
	tasks := col.Graph().Tasks
	if len(tasks) != len(ref) {
		t.Fatalf("%d tasks, want %d", len(tasks), len(ref))
	}
	for i, task := range tasks {
		var want []int
		for e := range i {
			if refDependsOn(ref[i], ref[e], nil) {
				want = append(want, e)
			}
		}
		if !slices.Equal(task.Deps, want) {
			t.Fatalf("task %d deps %v, want %v (accesses %+v)", i, task.Deps, want, acc)
		}
	}
}

func checkDetector(t *testing.T, arrays uint8, acc []fuzzAccess) {
	locs := newFuzzLocs(arrays)
	d := core.NewPipePairDetector()
	ref := map[int]*refUnit{}
	var order []int           // units in first-open order
	names := map[int]string{} // each object's name at its first access
	open := -1
	for _, a := range acc {
		if a.unit != open {
			if open >= 0 {
				d.LoopExit(ast.LoopID(open + 1))
			}
			open = a.unit
			d.LoopEnter(ast.LoopID(open + 1))
			if ref[open] == nil {
				ref[open] = newRefUnit()
				order = append(order, open)
			}
		}
		locs.access(d, a)
		ref[open].note(a)
		if _, ok := names[a.loc]; !ok && a.loc >= fuzzVars {
			names[a.loc] = fuzzVia[a.via]
			if a.via == 0 || fuzzVia[a.via] == "" {
				names[a.loc] = "<Array>"
			}
		}
	}
	if open >= 0 {
		d.LoopExit(ast.LoopID(open + 1))
	}
	var want []core.PipePair
	for ai, a := range order {
		for _, b := range order[ai+1:] {
			var via []string
			if refDependsOn(ref[b], ref[a], func(l int) bool {
				if l < fuzzVars || !locs.objs[l-fuzzVars].IsArray() {
					return false
				}
				via = append(via, names[l])
				return true
			}) || len(via) == 0 {
				continue
			}
			slices.Sort(via)
			want = append(want, core.PipePair{Producer: ast.LoopID(a + 1), Consumer: ast.LoopID(b + 1), Via: via})
		}
	}
	got := d.Pairs()
	if !slices.EqualFunc(got, want, func(x, y core.PipePair) bool {
		return x.Producer == y.Producer && x.Consumer == y.Consumer && slices.Equal(x.Via, y.Via)
	}) {
		t.Fatalf("pairs %v, want %v (accesses %+v)", got, want, acc)
	}
}
