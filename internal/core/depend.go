package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// WarnKind enumerates the three problematic access types of §3.3 plus the
// recursion bail-out.
type WarnKind int

// Warning kinds.
const (
	// WarnVarWrite is type (a): a write to a variable declared outside the
	// context of the current loop iteration (output dependence).
	WarnVarWrite WarnKind = iota
	// WarnPropWrite is type (b): a write to a field of an object
	// initialized outside the current loop iteration (output/anti
	// dependence).
	WarnPropWrite
	// WarnFlowRead is type (c): a read of a field written in a different
	// iteration (flow dependence).
	WarnFlowRead
	// WarnRecursion flags a loop nest whose analysis was discarded because
	// recursive calls re-entered an open loop (§3.3).
	WarnRecursion
)

func (k WarnKind) String() string {
	switch k {
	case WarnVarWrite:
		return "var-write"
	case WarnPropWrite:
		return "prop-write"
	case WarnFlowRead:
		return "flow-read"
	case WarnRecursion:
		return "recursion"
	}
	return "unknown"
}

// Warning is one deduplicated problematic-access report.
type Warning struct {
	Kind  WarnKind
	Name  string // variable name or reference.path of the access
	Char  Characterization
	Count int64
}

// Format renders the warning in the paper's report style.
func (w *Warning) Format(loops []ast.LoopInfo) string {
	var sb strings.Builder
	sb.WriteString(w.Kind.String())
	sb.WriteByte(' ')
	sb.WriteString(w.Name)
	sb.WriteString(": ")
	sb.WriteString(w.Char.Format(loops))
	return sb.String()
}

// LoopDepSummary aggregates, for a single loop, the distinct locations
// with each dependence type at that loop's iteration level. It feeds the
// Table 3 "breaking dependencies" classifier.
type LoopDepSummary struct {
	// VarWrites: variable names with inter-iteration output dependences.
	VarWrites map[string]int64
	// SharedPropWrites: access paths writing state shared across
	// iterations.
	SharedPropWrites map[string]int64
	// OverlapPropWrites: the subset observed writing the *same* property
	// in two different iterations of one instance — a real output
	// dependence, as opposed to a disjoint (e.g. pixel-per-iteration)
	// pattern.
	OverlapPropWrites map[string]int64
	// FlowReads: access paths with true (read-after-write) cross-iteration
	// dependences.
	FlowReads map[string]int64
	// VarFlows: variables read after a cross-iteration write — true
	// loop-carried scalars (accumulators, convergence flags); distinct
	// from VarWrites, which also lists privatizable temporaries.
	VarFlows map[string]int64
	// CrossInstance: locations shared across loop instances.
	CrossInstance map[string]int64
	// Recursion reports the §3.3 bail-out for this loop's nest.
	Recursion bool
}

func newLoopDepSummary() *LoopDepSummary {
	return &LoopDepSummary{
		VarWrites:         make(map[string]int64),
		SharedPropWrites:  make(map[string]int64),
		OverlapPropWrites: make(map[string]int64),
		FlowReads:         make(map[string]int64),
		VarFlows:          make(map[string]int64),
		CrossInstance:     make(map[string]int64),
	}
}

// objRecord is the analyzer-side shadow of one heap object written while
// a loop was open — the Go analogue of the paper's ES Proxy wrapper. It
// lives in value.Object.Aux, which until that first write holds only the
// object's creation stamp (a *Stamp).
type objRecord struct {
	created *Stamp
	// elems holds the last-write stamps of canonical array-index keys by
	// index, props those of every other key and of an index first
	// written far past the end of elems. A nil entry is no write; an
	// index present in both was last written through elems.
	elems []*Stamp
	props map[string]*Stamp
}

// lastWrite returns the stamp of the last write of key, nil if none.
func (r *objRecord) lastWrite(key string) *Stamp {
	if i, ok := arrayIndex(key); ok && i < len(r.elems) && r.elems[i] != nil {
		return r.elems[i]
	}
	return r.props[key]
}

// setLastWrite records a write of key under stamp s. An index grows
// elems when it lies within twice its length (plus a margin), so a
// front-to-back fill stays dense and a sparse one goes to props.
func (r *objRecord) setLastWrite(key string, s *Stamp) {
	if i, ok := arrayIndex(key); ok && i <= 2*len(r.elems)+16 {
		if i >= len(r.elems) {
			r.elems = slices.Grow(r.elems, i+1-len(r.elems))[:i+1]
		}
		r.elems[i] = s
		return
	}
	if r.props == nil {
		r.props = make(map[string]*Stamp, 8)
	}
	r.props[key] = s
}

// arrayIndex parses a canonical array-index key ("0", "17", not "017")
// below a billion.
func arrayIndex(key string) (int, bool) {
	if len(key) == 0 || len(key) > 9 || (key[0] == '0' && len(key) > 1) {
		return 0, false
	}
	n := 0
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// varRecord is the analyzer-side shadow of one written binding: the
// creation stamp (function entry for hoisted vars) plus the last write,
// used to distinguish privatizable temporaries from true loop-carried
// variables. A binding declared but never written holds only its
// creation stamp (a *Stamp) in Aux.
type varRecord struct {
	created *Stamp
	// lastWrite is the stamp of the most recent write recorded, nil
	// before one; writeInHeader marks writes from loop init/post clauses
	// (induction updates), whose subsequent reads are not loop-carried
	// evidence.
	lastWrite     *Stamp
	writeInHeader bool
	// kinds is the set of non-nullish dynamic types written to the
	// binding, one bit each (observeKind).
	kinds uint8
}

// access is the kind of hook call an entry of the analyzer's table
// counts; it decides the LoopDepSummary map the entry feeds. Flow reads
// through variables and through properties are both WarnFlowRead, but
// they feed VarFlows and FlowReads respectively.
type access uint8

const (
	accVarWrite access = iota
	accPropWrite
	accVarFlow
	accPropFlow
	accRecursion
)

var accessKind = [...]WarnKind{WarnVarWrite, WarnPropWrite, WarnFlowRead, WarnFlowRead, WarnRecursion}

// entry is one row of the analyzer's table: a deduplicated warning and
// the access that raised it.
type entry struct {
	Warning
	acc access
}

// DepAnalyzer implements the dependence-analysis mode of §3.3.
//
// Its one table holds an entry per distinct (access, characterization,
// name), in first-seen order; warnings and per-loop summaries are both
// read from it. A steady-state access allocates nothing: the
// characterization goes into char, the name into name, the entry key into
// key (each stored back only when it grew, reuse), and the lookup
// m[string(key)] does not copy. Strings and a Characterization copy are
// made only when an entry is created.
type DepAnalyzer struct {
	stack  *LoopStack
	focus  ast.LoopID // 0 analyses every loop
	header int        // >0 while evaluating a loop init/post clause

	entries    []*entry
	index      map[string]*entry // key: access byte, char dedup key, name
	warningCap int               // bounds len(entries)
	summaryCap int               // bounds the names of one map of one loop
	char       Characterization
	name, key  []byte
	// overlap counts, per loop and access name, writes of a property the
	// same loop instance wrote in an earlier iteration — the one summary
	// field no warning carries.
	overlap map[ast.LoopID]map[string]*int64
	// recursive marks the loops open when recursion re-entered one.
	recursive map[ast.LoopID]bool
	// refused counts accesses refused at access time: a new entry past
	// warningCap, a new overlap name past summaryCap.
	refused int64
	// polymorphic names the variables one of whose bindings has held two
	// dynamic types. Per-binding state lives on the binding's varRecord:
	// an analyzer-side table keyed by *interp.Binding would keep every
	// activation the program ever made reachable, since a call's bindings
	// share one backing array.
	polymorphic map[string]bool
}

// NewDepAnalyzer returns a dependence analyzer. focus restricts warning
// collection to accesses occurring while the given loop is open; pass
// ast.NoLoop to analyse everything.
func NewDepAnalyzer(focus ast.LoopID) *DepAnalyzer {
	return &DepAnalyzer{
		stack:       NewLoopStack(),
		focus:       focus,
		index:       make(map[string]*entry),
		warningCap:  100_000,
		summaryCap:  4096,
		overlap:     make(map[ast.LoopID]map[string]*int64),
		recursive:   make(map[ast.LoopID]bool),
		polymorphic: make(map[string]bool),
	}
}

// Stack exposes the live characterization stack (read-only use).
func (d *DepAnalyzer) Stack() *LoopStack { return d.stack }

func (d *DepAnalyzer) active() bool {
	if d.stack.Depth() == 0 {
		return false
	}
	if d.focus == ast.NoLoop {
		return true
	}
	return d.stack.Contains(d.focus)
}

// characterize is appendCharacterization into the analyzer's buffer; the result is
// valid until the next call.
func (d *DepAnalyzer) characterize(stamp, current *Stamp) Characterization {
	return reuse(&d.char, appendCharacterization(d.char[:0], *stamp, *current))
}

// reuse returns b, which was appended to (*buf)[:0], and stores it in
// *buf only when the append outgrew it: a slice stored into the analyzer
// costs a write barrier whenever a collection is marking.
func reuse[S ~[]E, E any](buf *S, b S) S {
	if cap(b) != cap(*buf) {
		*buf = b
	}
	return b
}

// LoopEnter is an interp hook event.
func (d *DepAnalyzer) LoopEnter(id ast.LoopID) {
	if d.stack.Enter(id) {
		// Recursion bail-out: poison every open nest.
		for _, t := range d.stack.stack {
			d.recursive[t.Loop] = true
		}
		d.record(accRecursion, nil, reuse(&d.name, strconv.AppendInt(append(d.name[:0], "loop#"...), int64(id), 10)))
	}
}

// LoopIter is an interp hook event.
func (d *DepAnalyzer) LoopIter(id ast.LoopID) { d.stack.Iterate(id) }

// LoopExit is an interp hook event.
func (d *DepAnalyzer) LoopExit(id ast.LoopID) { d.stack.Exit(id) }

// LoopHeader: accesses in init/post clauses are induction-variable
// updates and are exempt from warnings.
func (d *DepAnalyzer) LoopHeader(_ ast.LoopID, active bool) {
	if active {
		d.header++
	} else if d.header > 0 {
		d.header--
	}
}

// VarDeclare: bindings are stamped at creation, which is function entry
// for hoisted vars — the function-scoping behaviour the paper's Fig. 6
// example hinges on. The stamp is the stack's shared snapshot, stored as
// is: the binding's varRecord waits for its first write.
func (d *DepAnalyzer) VarDeclare(_ string, b *interp.Binding) {
	b.Aux = d.stack.stamp()
}

func varRecordOf(b *interp.Binding) *varRecord {
	switch aux := b.Aux.(type) {
	case *varRecord:
		return aux
	case *Stamp:
		rec := &varRecord{created: aux}
		b.Aux = rec
		return rec
	}
	rec := &varRecord{created: &emptyStamp} // binding predates analysis
	b.Aux = rec
	return rec
}

// declared returns binding b's creation stamp, nil when the analyzer
// never saw it declared or written.
func declared(b *interp.Binding) *Stamp {
	switch aux := b.Aux.(type) {
	case *varRecord:
		return aux.created
	case *Stamp:
		return aux
	}
	return nil
}

// VarWrite: type (a) warnings.
func (d *DepAnalyzer) VarWrite(name string, b *interp.Binding) {
	rec := varRecordOf(b)
	d.observeKind(name, rec, b.V)
	cur := d.stack.stamp()
	// Stamps that are one snapshot characterize "ok ok" throughout, here
	// and below: the access is private to the current iteration.
	if d.header == 0 && rec.created != cur && d.active() {
		if char := d.characterize(rec.created, cur); !char.Clean() {
			d.record(accVarWrite, char, reuse(&d.name, append(d.name[:0], name...)))
		}
	}
	if d.stack.Depth() > 0 || rec.lastWrite != nil {
		rec.lastWrite = cur
		rec.writeInHeader = d.header > 0
	}
}

// VarRead: a read of a variable written in a *different iteration* of an
// open loop is a true loop-carried flow dependence (accumulators,
// convergence flags). Reads following header-clause writes (induction
// updates) are exempt — those are privatizable by definition.
func (d *DepAnalyzer) VarRead(name string, b *interp.Binding) {
	if d.header > 0 || !d.active() {
		return
	}
	rec, _ := b.Aux.(*varRecord)
	if rec == nil || rec.lastWrite == nil || rec.writeInHeader {
		return
	}
	cur := d.stack.stamp()
	if rec.lastWrite == cur {
		return
	}
	char := d.characterize(rec.lastWrite, cur)
	if !char.hasIterationDep() {
		return
	}
	d.record(accVarFlow, char, reuse(&d.name, append(d.name[:0], name...)))
}

// ObjectNew: objects get creation stamps, the analogue of the paper's
// proxy wrapping at each creation site. Like a declaration's, the stamp
// is stored as is until the object's first write under a loop.
func (d *DepAnalyzer) ObjectNew(o *value.Object) {
	o.Aux = d.stack.stamp()
}

// PropWrite: type (b) warnings plus write-pattern (overlap) detection.
func (d *DepAnalyzer) PropWrite(o *value.Object, key string, via *interp.Binding) {
	var rec *objRecord
	created := &emptyStamp // object predates analysis
	switch aux := o.Aux.(type) {
	case *objRecord:
		rec, created = aux, aux.created
	case *Stamp:
		created = aux
	}
	cur := d.stack.stamp()
	if d.header == 0 && d.active() {
		name := reuse(&d.name, appendAccessName(d.name[:0], o, key, via))
		stamp := created
		if via != nil {
			if s := declared(via); s != nil {
				stamp = s
			}
		}
		if stamp != cur {
			if char := d.characterize(stamp, cur); !char.Clean() {
				d.record(accPropWrite, char, name)
			}
		}
		// Overlap: same property written in a different iteration of the
		// same instance → a real output dependence at that loop.
		if rec != nil {
			if prev := rec.lastWrite(key); prev != nil && prev != cur {
				for _, l := range d.characterize(prev, cur) {
					if l.InstanceOK && !l.IterationOK {
						d.countOverlap(l.Loop, name)
					}
				}
			}
		}
	}
	if d.stack.Depth() > 0 {
		if rec == nil {
			rec = &objRecord{created: created}
			o.Aux = rec
		}
		rec.setLastWrite(key, cur)
	}
}

// PropRead: type (c) flow-dependence warnings. A read is a flow
// dependence only when the field was written in a *different iteration*
// of a loop that is still open — i.e. some level of the characterization
// is "ok dependence". A value written in a sibling loop earlier in the
// same iteration is not loop-carried and is exempt.
func (d *DepAnalyzer) PropRead(o *value.Object, key string, via *interp.Binding) {
	if d.header > 0 || !d.active() {
		return
	}
	rec, _ := o.Aux.(*objRecord)
	if rec == nil {
		return
	}
	prev := rec.lastWrite(key)
	if prev == nil {
		return
	}
	cur := d.stack.stamp()
	if prev == cur {
		return
	}
	char := d.characterize(prev, cur)
	if !char.hasIterationDep() {
		return
	}
	d.record(accPropFlow, char, reuse(&d.name, appendAccessName(d.name[:0], o, key, via)))
}

// observeKind tracks per-binding dynamic types for the §4.2 polymorphism
// check. Transitions through undefined/null do not count (the paper's
// definition).
func (d *DepAnalyzer) observeKind(name string, rec *varRecord, v value.Value) {
	var bit uint8
	switch v.Kind() {
	case value.KindBool:
		bit = 1
	case value.KindNumber:
		bit = 2
	case value.KindString:
		bit = 4
	case value.KindObject:
		if v.IsCallable() {
			bit = 8
		} else {
			bit = 16
		}
	default:
		return // undefined/null transitions are exempt
	}
	if rec.kinds != 0 && rec.kinds&bit == 0 {
		d.polymorphic[name] = true
	}
	rec.kinds |= bit
}

// PolymorphicVars returns the names of variables observed holding values
// of more than one (non-nullish) dynamic type.
func (d *DepAnalyzer) PolymorphicVars() []string {
	var out []string
	for name := range d.polymorphic {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// appendAccessName appends the reported name of a property access: the
// base variable (or <Class> when the base is not a variable), then
// [elem] for an array index or .key otherwise.
func appendAccessName(dst []byte, o *value.Object, key string, via *interp.Binding) []byte {
	if via != nil {
		dst = append(dst, via.Name...)
	} else {
		dst = append(append(append(dst, '<'), o.Class...), '>')
	}
	if isNumericKey(key) {
		return append(dst, "[elem]"...)
	}
	return append(append(dst, '.'), key...)
}

func isNumericKey(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] < '0' || key[i] > '9' {
			return false
		}
	}
	return true
}

// record counts one access named name against its entry. The entry — its
// key and name strings and its copy of char — is created on first sight,
// unless the table already holds warningCap entries; such an access is
// refused.
func (d *DepAnalyzer) record(acc access, char Characterization, name []byte) {
	k := reuse(&d.key, append(char.appendDedupKey(append(d.key[:0], byte(acc))), name...))
	if e := d.index[string(k)]; e != nil {
		e.Count++
		return
	}
	if len(d.entries) >= d.warningCap {
		d.refused++
		return
	}
	key := string(k)
	e := &entry{acc: acc, Warning: Warning{
		Kind:  accessKind[acc],
		Name:  key[len(key)-len(name):],
		Char:  append(Characterization(nil), char...),
		Count: 1,
	}}
	d.index[key] = e
	d.entries = append(d.entries, e)
}

// countOverlap counts one overlapping write of name at loop id.
func (d *DepAnalyzer) countOverlap(id ast.LoopID, name []byte) {
	m := d.overlap[id]
	if m == nil {
		m = make(map[string]*int64)
		d.overlap[id] = m
	}
	if n := m[string(name)]; n != nil {
		*n++
		return
	}
	if len(m) >= d.summaryCap {
		d.refused++
		return
	}
	n := int64(1)
	m[string(name)] = &n
}

// Summary derives the dependence summary for one loop from the entry
// table; it is nil when no access, overlap or recursion touched the loop.
func (d *DepAnalyzer) Summary(id ast.LoopID) *LoopDepSummary {
	s, _ := d.summary(id)
	return s
}

// summary builds one loop's LoopDepSummary: every entry with a dependence
// at the loop adds its Count under its name, in first-seen order. Writes
// count at "ok dependence" levels and, also into CrossInstance, at
// "dependence dependence" ones; flow reads count only at "ok dependence"
// levels (a conservative dd tail is not loop-carried evidence). A name
// new to a map that already holds summaryCap names is refused, and its
// Count comes back as dropped.
func (d *DepAnalyzer) summary(id ast.LoopID) (s *LoopDepSummary, dropped int64) {
	s = newLoopDepSummary()
	s.Recursion = d.recursive[id]
	touched := s.Recursion
	for _, e := range d.entries {
		var m map[string]int64
		switch e.acc {
		case accVarWrite:
			m = s.VarWrites
		case accPropWrite:
			m = s.SharedPropWrites
		case accVarFlow:
			m = s.VarFlows
		case accPropFlow:
			m = s.FlowReads
		default:
			continue
		}
		write := e.acc == accVarWrite || e.acc == accPropWrite
		for _, l := range e.Char {
			if l.Loop != id || l.IterationOK || (!l.InstanceOK && !write) {
				continue
			}
			touched = true
			if !l.InstanceOK && !d.add(s.CrossInstance, e.Name, e.Count) {
				dropped += e.Count
				continue
			}
			if !d.add(m, e.Name, e.Count) {
				dropped += e.Count
			}
		}
	}
	for name, n := range d.overlap[id] {
		s.OverlapPropWrites[name] = *n
		touched = true
	}
	if !touched {
		return nil, dropped
	}
	return s, dropped
}

// add counts n accesses of name in m, unless name is new and m is full.
func (d *DepAnalyzer) add(m map[string]int64, name string, n int64) bool {
	if _, ok := m[name]; !ok && len(m) >= d.summaryCap {
		return false
	}
	m[name] += n
	return true
}

// Dropped counts the accesses a cap kept out: from the table (warningCap),
// from an overlap count or from a summary map (summaryCap). Summaries are
// derived when read, so their share is derived here too.
func (d *DepAnalyzer) Dropped() int64 {
	n := d.refused
	seen := make(map[ast.LoopID]bool)
	for _, e := range d.entries {
		for _, l := range e.Char {
			if !seen[l.Loop] {
				seen[l.Loop] = true
				_, dropped := d.summary(l.Loop)
				n += dropped
			}
		}
	}
	return n
}

// Warnings returns all deduplicated warnings sorted by kind, then name.
func (d *DepAnalyzer) Warnings() []*Warning {
	out := make([]*Warning, len(d.entries))
	for i, e := range d.entries {
		out[i] = &e.Warning
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Char.Key() < out[j].Char.Key()
	})
	return out
}
