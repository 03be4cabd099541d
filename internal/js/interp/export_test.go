package interp

import "repro/internal/js/ast"

// IsNum hands the compiler's numeric-tree predicate to the external
// tests: whether e lowers to a closure that yields a Go float64.
func IsNum(e ast.Expr) bool { return isNum(e) }

// ConformancePrograms hands the differential corpus to the package's
// external tests, which (unlike this package's own) may import packages
// that import interp. Each entry is {name, source}.
func ConformancePrograms() [][2]string {
	out := make([][2]string, len(conformanceCorpus))
	for i, tc := range conformanceCorpus {
		out[i] = [2]string{tc.name, tc.src}
	}
	return out
}

// Subscriptions names the events SetHooks would send h, in the order the
// engine declares them: the event methods h has.
func Subscriptions(h any) []string {
	var l hookLists
	l.subscribe(h)
	var out []string
	for _, e := range []struct {
		name string
		n    int
	}{
		{"LoopEnter", len(l.loopEnter)},
		{"LoopIter", len(l.loopIter)},
		{"LoopExit", len(l.loopExit)},
		{"LoopHeader", len(l.loopHeader)},
		{"BranchTaken", len(l.branchTaken)},
		{"CallEnter", len(l.callEnter)},
		{"CallExit", len(l.callExit)},
		{"VarDeclare", len(l.varDeclare)},
		{"VarRead", len(l.varRead)},
		{"VarWrite", len(l.varWrite)},
		{"ObjectNew", len(l.objectNew)},
		{"PropRead", len(l.propRead)},
		{"PropWrite", len(l.propWrite)},
		{"HostOp", len(l.hostOp)},
	} {
		if e.n > 0 {
			out = append(out, e.name)
		}
	}
	return out
}

// ArgStackHeight is the height of the interpreter's argument stack: the
// arguments of the native calls in progress.
func (in *Interp) ArgStackHeight() int { return len(in.argStack) }

// Mod is the compiled engine's %: math.Mod with an integer fast path.
func Mod(l, r float64) float64 { return mod(l, r) }
