package core

import (
	"sort"
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

// objRecord is the analyzer-side shadow of one heap object — the Go
// analogue of the paper's ES Proxy wrapper. It lives in value.Object.Aux.
type objRecord struct {
	created   Stamp
	lastWrite map[string]Stamp
}

// varRecord is the analyzer-side shadow of one binding: the creation
// stamp (function entry for hoisted vars) plus the last write, used to
// distinguish privatizable temporaries from true loop-carried variables.
type varRecord struct {
	created Stamp
	// lastWrite is the stamp of the most recent write; writeInHeader marks
	// writes from loop init/post clauses (induction updates), whose
	// subsequent reads are not loop-carried evidence.
	lastWrite     Stamp
	hasWrite      bool
	writeInHeader bool
	// kinds is the set of non-nullish dynamic types written to the
	// binding, one bit each (observeKind).
	kinds uint8
}

// DepAnalyzer implements the dependence-analysis mode of §3.3.
type DepAnalyzer struct {
	interp.NopHooks

	stack  *LoopStack
	focus  ast.LoopID // 0 analyses every loop
	header int        // >0 while evaluating a loop init/post clause

	curStamp   Stamp // cached snapshot, invalidated on stack changes
	stampValid bool

	warnings   map[string]*Warning
	warningCap int
	byLoop     map[ast.LoopID]*LoopDepSummary
	summaryCap int
	// polymorphic names the variables one of whose bindings has held two
	// dynamic types. Per-binding state lives on the binding's varRecord:
	// an analyzer-side table keyed by *interp.Binding would keep every
	// activation the program ever made reachable, since a call's bindings
	// share one backing array.
	polymorphic map[string]bool

	// Dropped counts warnings not recorded once the cap was hit.
	Dropped int64
}

// NewDepAnalyzer returns a dependence analyzer. focus restricts warning
// collection to accesses occurring while the given loop is open; pass
// ast.NoLoop to analyse everything.
func NewDepAnalyzer(focus ast.LoopID) *DepAnalyzer {
	return &DepAnalyzer{
		stack:       NewLoopStack(),
		focus:       focus,
		warnings:    make(map[string]*Warning),
		warningCap:  100_000,
		byLoop:      make(map[ast.LoopID]*LoopDepSummary),
		summaryCap:  4096,
		polymorphic: make(map[string]bool),
	}
}

// Stack exposes the live characterization stack (read-only use).
func (d *DepAnalyzer) Stack() *LoopStack { return d.stack }

func (d *DepAnalyzer) snapshot() Stamp {
	if !d.stampValid {
		d.curStamp = d.stack.Snapshot()
		d.stampValid = true
	}
	return d.curStamp
}

func (d *DepAnalyzer) active() bool {
	if d.stack.Depth() == 0 {
		return false
	}
	if d.focus == ast.NoLoop {
		return true
	}
	return d.stack.Contains(d.focus)
}

// LoopEnter implements interp.Hooks.
func (d *DepAnalyzer) LoopEnter(id ast.LoopID) {
	if d.stack.Enter(id) {
		// Recursion bail-out: poison every open nest.
		for _, t := range d.stack.Snapshot() {
			d.summaryFor(t.Loop).Recursion = true
		}
		d.recordWarning(WarnRecursion, loopWarnName(id), nil)
	}
	d.stampValid = false
}

// LoopIter implements interp.Hooks.
func (d *DepAnalyzer) LoopIter(id ast.LoopID) {
	d.stack.Iterate(id)
	d.stampValid = false
}

// LoopExit implements interp.Hooks.
func (d *DepAnalyzer) LoopExit(id ast.LoopID) {
	d.stack.Exit(id)
	d.stampValid = false
}

// LoopHeader implements interp.Hooks: accesses in init/post clauses are
// induction-variable updates and are exempt from warnings.
func (d *DepAnalyzer) LoopHeader(_ ast.LoopID, active bool) {
	if active {
		d.header++
	} else if d.header > 0 {
		d.header--
	}
}

// VarDeclare implements interp.Hooks: bindings are stamped at creation,
// which is function entry for hoisted vars — the function-scoping
// behaviour the paper's Fig. 6 example hinges on.
func (d *DepAnalyzer) VarDeclare(_ string, b *interp.Binding) {
	b.Aux = &varRecord{created: d.snapshot()}
}

func varRecordOf(b *interp.Binding) *varRecord {
	rec, _ := b.Aux.(*varRecord)
	if rec == nil {
		rec = &varRecord{} // binding predates analysis: empty stamp
		b.Aux = rec
	}
	return rec
}

// VarWrite implements interp.Hooks: type (a) warnings.
func (d *DepAnalyzer) VarWrite(name string, b *interp.Binding) {
	rec := varRecordOf(b)
	d.observeKind(name, rec, b.V)
	cur := d.snapshot()
	if d.header == 0 && d.active() {
		char := Characterize(rec.created, cur)
		if !char.Clean() {
			d.recordWarning(WarnVarWrite, name, char)
			d.aggregate(char, name, (*LoopDepSummary).varWrites)
		}
	}
	if d.stack.Depth() > 0 || rec.hasWrite {
		rec.lastWrite = cur
		rec.hasWrite = true
		rec.writeInHeader = d.header > 0
	}
}

// VarRead implements interp.Hooks: a read of a variable written in a
// *different iteration* of an open loop is a true loop-carried flow
// dependence (accumulators, convergence flags). Reads following
// header-clause writes (induction updates) are exempt — those are
// privatizable by definition.
func (d *DepAnalyzer) VarRead(name string, b *interp.Binding) {
	if d.header > 0 || !d.active() {
		return
	}
	rec, _ := b.Aux.(*varRecord)
	if rec == nil || !rec.hasWrite || rec.writeInHeader {
		return
	}
	char := Characterize(rec.lastWrite, d.snapshot())
	if !char.hasIterationDep() {
		return
	}
	d.recordWarning(WarnFlowRead, name, char)
	d.aggregateIterOnly(char, name, (*LoopDepSummary).varFlows)
}

// ObjectNew implements interp.Hooks: objects get creation stamps, the
// analogue of the paper's proxy wrapping at each creation site.
func (d *DepAnalyzer) ObjectNew(o *value.Object) {
	o.Aux = &objRecord{created: d.snapshot()}
}

// PropWrite implements interp.Hooks: type (b) warnings plus write-pattern
// (overlap) detection.
func (d *DepAnalyzer) PropWrite(o *value.Object, key string, via *interp.Binding) {
	rec, _ := o.Aux.(*objRecord)
	if rec == nil {
		rec = &objRecord{} // object predates analysis: empty stamp
		o.Aux = rec
	}
	cur := d.snapshot()
	if d.header == 0 && d.active() {
		stamp := rec.created
		name := accessName(o, key, via)
		if via != nil {
			if vr, ok := via.Aux.(*varRecord); ok {
				stamp = vr.created
			}
		}
		char := Characterize(stamp, cur)
		if !char.Clean() {
			d.recordWarning(WarnPropWrite, name, char)
			d.aggregate(char, name, (*LoopDepSummary).sharedPropWrites)
		}
		// Overlap: same property written in a different iteration of the
		// same instance → a real output dependence at that loop.
		if prev, ok := rec.lastWrite[key]; ok {
			wchar := Characterize(prev, cur)
			for _, l := range wchar {
				if l.InstanceOK && !l.IterationOK {
					d.summaryAdd(l.Loop, name, (*LoopDepSummary).overlapPropWrites)
				}
			}
		}
	}
	if d.stack.Depth() > 0 {
		if rec.lastWrite == nil {
			rec.lastWrite = make(map[string]Stamp, 8)
		}
		rec.lastWrite[key] = cur
	}
}

// PropRead implements interp.Hooks: type (c) flow-dependence warnings.
// A read is a flow dependence only when the field was written in a
// *different iteration* of a loop that is still open — i.e. some level of
// the characterization is "ok dependence". A value written in a sibling
// loop earlier in the same iteration is not loop-carried and is exempt.
func (d *DepAnalyzer) PropRead(o *value.Object, key string, via *interp.Binding) {
	if d.header > 0 || !d.active() {
		return
	}
	rec, _ := o.Aux.(*objRecord)
	if rec == nil || rec.lastWrite == nil {
		return
	}
	prev, ok := rec.lastWrite[key]
	if !ok {
		return
	}
	char := Characterize(prev, d.snapshot())
	if !char.hasIterationDep() {
		return
	}
	name := accessName(o, key, via)
	d.recordWarning(WarnFlowRead, name, char)
	d.aggregateIterOnly(char, name, (*LoopDepSummary).flowReads)
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

func accessName(o *value.Object, key string, via *interp.Binding) string {
	base := "<" + o.Class + ">"
	if via != nil {
		base = via.Name
	}
	if isNumericKey(key) {
		return base + "[elem]"
	}
	return base + "." + key
}

func loopWarnName(id ast.LoopID) string {
	var sb strings.Builder
	sb.WriteString("loop#")
	writeIntSB(&sb, int64(id))
	return sb.String()
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

func (d *DepAnalyzer) recordWarning(kind WarnKind, name string, char Characterization) {
	key := kind.String() + "|" + name + "|" + char.Key()
	if w, ok := d.warnings[key]; ok {
		w.Count++
		return
	}
	if len(d.warnings) >= d.warningCap {
		d.Dropped++
		return
	}
	d.warnings[key] = &Warning{Kind: kind, Name: name, Char: char, Count: 1}
}

// summary field selectors (method values used as map pickers)

func (s *LoopDepSummary) varWrites() map[string]int64         { return s.VarWrites }
func (s *LoopDepSummary) sharedPropWrites() map[string]int64  { return s.SharedPropWrites }
func (s *LoopDepSummary) overlapPropWrites() map[string]int64 { return s.OverlapPropWrites }
func (s *LoopDepSummary) flowReads() map[string]int64         { return s.FlowReads }
func (s *LoopDepSummary) varFlows() map[string]int64          { return s.VarFlows }

func (d *DepAnalyzer) summaryFor(id ast.LoopID) *LoopDepSummary {
	s, ok := d.byLoop[id]
	if !ok {
		s = newLoopDepSummary()
		d.byLoop[id] = s
	}
	return s
}

func (d *DepAnalyzer) summaryAdd(id ast.LoopID, name string, pick func(*LoopDepSummary) map[string]int64) {
	s := d.summaryFor(id)
	m := pick(s)
	if _, ok := m[name]; !ok && len(m) >= d.summaryCap {
		d.Dropped++
		return
	}
	m[name]++
}

// aggregate distributes a characterization's per-level dependences into
// the per-loop summaries: iteration-level dependences go to the main maps,
// instance-level ones to CrossInstance.
func (d *DepAnalyzer) aggregate(char Characterization, name string, pick func(*LoopDepSummary) map[string]int64) {
	for _, l := range char {
		if l.InstanceOK && !l.IterationOK {
			d.summaryAdd(l.Loop, name, pick)
		} else if !l.InstanceOK {
			s := d.summaryFor(l.Loop)
			if _, ok := s.CrossInstance[name]; !ok && len(s.CrossInstance) >= d.summaryCap {
				d.Dropped++
				continue
			}
			s.CrossInstance[name]++
			d.summaryAdd(l.Loop, name, pick)
		}
	}
}

// aggregateIterOnly records only the levels with a genuine inter-iteration
// dependence (flow reads: conservative dd tails are not loop-carried
// evidence at those deeper loops).
func (d *DepAnalyzer) aggregateIterOnly(char Characterization, name string, pick func(*LoopDepSummary) map[string]int64) {
	for _, l := range char {
		if l.InstanceOK && !l.IterationOK {
			d.summaryAdd(l.Loop, name, pick)
		}
	}
}

// Summary returns the dependence summary for one loop (may be nil).
func (d *DepAnalyzer) Summary(id ast.LoopID) *LoopDepSummary { return d.byLoop[id] }

// Warnings returns all deduplicated warnings sorted by kind, then name.
func (d *DepAnalyzer) Warnings() []*Warning {
	out := make([]*Warning, 0, len(d.warnings))
	for _, w := range d.warnings {
		out = append(out, w)
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

// WarningsFor returns warnings whose characterization mentions the loop.
func (d *DepAnalyzer) WarningsFor(id ast.LoopID) []*Warning {
	var out []*Warning
	for _, w := range d.Warnings() {
		for _, l := range w.Char {
			if l.Loop == id {
				out = append(out, w)
				break
			}
		}
	}
	return out
}
