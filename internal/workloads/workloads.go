// Package workloads re-implements the computational kernels of the 12
// web applications in Table 1 of the paper, written in the JavaScript
// subset and driven through the simulated browser.
//
// Each workload preserves the *shape* that mattered to the paper's
// analysis: the loop-nest structure, trip counts, memory access patterns
// (disjoint pixel writes vs. shared in-place state), DOM/canvas usage, and
// the interactive vs. compute-bound duty cycle. Absolute times are virtual
// and deterministic.
package workloads

import (
	"fmt"
	"strings"

	"repro/internal/browser"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// Workload is one Table 1 application.
type Workload struct {
	// Name matches Table 1 (e.g. "HAAR.js").
	Name string
	// Category/Description match Table 1.
	Category    string
	Description string
	// Source is the application code in the JavaScript subset.
	Source string
	// Drive exercises the app (dispatches simulated user events, pumps the
	// event queue, idles between interactions) — step 4 of Fig. 5.
	Drive func(w *browser.Window) error

	// Paper columns of Table 2 (seconds), for EXPERIMENTS.md comparisons.
	PaperTotalS, PaperActiveS, PaperLoopsS float64

	// ExpectActiveBelowLoops records whether Table 2 shows the Gecko
	// anomaly (Active < In Loops) for this app.
	ExpectActiveBelowLoops bool
	// ExpectComputeIntensive marks apps the paper counts as
	// compute-intensive (CPU active a large portion of runtime).
	ExpectComputeIntensive bool
}

// NSPerStep is the virtual cost of one interpreter step used throughout
// the case study (1µs keeps Table 2 magnitudes readable).
const NSPerStep = 1000

// Scale shrinks workload sizes for quick runs. Every constructor takes
// one and its Drive captures it, so a workload's size is fixed when it is
// built. Div 1 (or 0) is the full case-study size.
type Scale struct {
	// Div divides iteration counts (frames, strokes, filter passes).
	Div int
}

// FullScale is the Table 2/3 configuration.
var FullScale = Scale{Div: 1}

// N applies the scale to a full-size count: full/Div, at least 1.
func (s Scale) N(full int) int {
	if s.Div <= 1 {
		return full
	}
	return max(full/s.Div, 1)
}

// allScale is the scale All builds at; only SetScale writes it.
var allScale = FullScale

// SetScale sets the scale All builds at. Kept for bench/, which calls it
// before All; everything else passes a Scale to AllAt or a constructor.
func SetScale(s Scale) { allScale = s }

// All is AllAt at the scale SetScale last set. Kept for bench/.
func All() []*Workload { return AllAt(allScale) }

// AllAt returns the 12 workloads in Table 1 order at scale s.
func AllAt(s Scale) []*Workload {
	return []*Workload{
		HAAR(s),
		Cloth(s),
		Caman(s),
		Fluid(s),
		Harmony(s),
		Ace(s),
		MyScript(s),
		Raytrace(s),
		NormalMap(s),
		Sigma(s),
		Processing(s),
		D3(s),
	}
}

// Bundle is the first n Table-1 sources back to back, the way a page
// concatenates its scripts. Bundle(10) is the ~27 KB page-sized input of
// the parser's benchmarks and allocation budget.
func Bundle(n int) string {
	var sb strings.Builder
	for _, wl := range AllAt(FullScale)[:n] {
		sb.WriteString(wl.Source)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ByName finds a Table 1 workload by name and builds it at scale s.
func ByName(name string, s Scale) (*Workload, error) {
	for _, w := range AllAt(s) {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Run parses, loads and drives the workload inside the interpreter,
// returning the window for substrate inspection. Install hooks on the
// interpreter before calling to analyse the run.
func Run(wl *Workload, in *interp.Interp) (*browser.Window, error) {
	return RunWith(wl, in, nil)
}

// RunWith is Run with a window configurator invoked before the program
// loads (e.g. to install a task-boundary listener).
func RunWith(wl *Workload, in *interp.Interp, configure func(w *browser.Window)) (*browser.Window, error) {
	w := browser.NewWindow(in)
	if configure != nil {
		configure(w)
	}
	prog, err := interp.Load(wl.Source)
	if err != nil {
		return nil, fmt.Errorf("workloads: parse %s: %w", wl.Name, err)
	}
	if err := in.Run(prog); err != nil {
		return nil, fmt.Errorf("workloads: load %s: %w", wl.Name, err)
	}
	if wl.Drive != nil {
		if err := wl.Drive(w); err != nil {
			return nil, fmt.Errorf("workloads: drive %s: %w", wl.Name, err)
		}
	}
	return w, nil
}

// Parse returns the workload's parsed program for loop-table lookups.
// The AST comes from the process-wide interp.Load cache and is shared
// read-only: callers must not mutate it.
func Parse(wl *Workload) (*ast.Program, error) {
	return interp.Load(wl.Source)
}

// NewInterp returns an interpreter configured for the case study.
func NewInterp(seed uint64) *interp.Interp {
	return interp.New(
		interp.WithNSPerStep(NSPerStep),
		interp.WithSeed(seed),
		interp.WithMaxSteps(400_000_000),
	)
}

// event constructs a payload object for DispatchEvent through the
// instrumented allocation path.
func event(in *interp.Interp, kv map[string]float64) value.Value {
	o := in.NewObject()
	for k, v := range kv {
		o.Set(k, value.Number(v))
	}
	return value.ObjectVal(o)
}

// callGlobal invokes a global function defined by the workload source.
func callGlobal(w *browser.Window, name string, args ...value.Value) error {
	fn := w.In.Global(name)
	if !fn.IsCallable() {
		return fmt.Errorf("workloads: global %q is not a function", name)
	}
	_, err := w.In.SafeCall(fn, value.Undefined(), args)
	return err
}

const msVirtual = int64(1e6) // one virtual millisecond in ns
