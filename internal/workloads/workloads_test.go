package workloads

import (
	"testing"

	"repro/internal/core"
	"repro/internal/js/ast"
)

// TestAllWorkloadsRun executes every Table 1 app end to end without
// instrumentation and checks it actually computed something.
func TestAllWorkloadsRun(t *testing.T) {
	t.Parallel()
	for _, wl := range AllAt(QuickScale) {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			in := NewInterp(7)
			w, err := Run(wl, in)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			// Interactive apps (Ace, MyScript) are idle-dominated by
			// design; even they should exceed ~1k steps at quarter scale.
			if in.Steps() < 1_000 {
				t.Errorf("suspiciously few steps: %d", in.Steps())
			}
			if w.Dispatched == 0 {
				t.Errorf("no callbacks/events dispatched")
			}
		})
	}
}

// TestWorkloadsDeterministic: same seed, same step count.
func TestWorkloadsDeterministic(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"fluidSim", "Realtime Raytracing", "Ace"} {
		wl, err := ByName(name, QuickScale)
		if err != nil {
			t.Fatal(err)
		}
		in1 := NewInterp(11)
		if _, err := Run(wl, in1); err != nil {
			t.Fatal(err)
		}
		wl2, _ := ByName(name, QuickScale)
		in2 := NewInterp(11)
		if _, err := Run(wl2, in2); err != nil {
			t.Fatal(err)
		}
		if in1.Steps() != in2.Steps() {
			t.Errorf("%s: steps %d vs %d", name, in1.Steps(), in2.Steps())
		}
	}
}

// TestWorkloadsUnderFullInstrumentation runs each app with the dependence
// analyzer installed — the heaviest mode — and checks nothing breaks.
func TestWorkloadsUnderFullInstrumentation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("dependence mode is slow")
	}
	for _, wl := range AllAt(QuickScale) {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			in := NewInterp(7)
			dep := core.NewDepAnalyzer(ast.NoLoop)
			in.SetHooks(dep)
			if _, err := Run(wl, in); err != nil {
				t.Fatalf("run: %v", err)
			}
			if dep.Stack().Depth() != 0 {
				t.Errorf("loop stack not empty at end: %d", dep.Stack().Depth())
			}
		})
	}
}

// TestTable1Registry checks the registry matches Table 1.
func TestTable1Registry(t *testing.T) {
	t.Parallel()
	all := AllAt(QuickScale)
	if len(all) != 12 {
		t.Fatalf("Table 1 has 12 apps, registry has %d", len(all))
	}
	categories := map[string]bool{}
	for _, wl := range all {
		if wl.Name == "" || wl.Category == "" || wl.Description == "" || wl.Source == "" {
			t.Errorf("%q: incomplete registry entry", wl.Name)
		}
		categories[wl.Category] = true
		if _, err := Parse(wl); err != nil {
			t.Errorf("%s does not parse: %v", wl.Name, err)
		}
	}
	for _, want := range []string{"Games", "User recognition", "Visualization", "Audio and Video", "Productivity"} {
		if !categories[want] {
			t.Errorf("missing Table 1 category %q", want)
		}
	}
	if _, err := ByName("no-such-app", QuickScale); err == nil {
		t.Error("ByName should fail for unknown workloads")
	}
}

// TestCanvasWorkloadsProducePixels checks the image apps actually paint.
func TestCanvasWorkloadsProducePixels(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"CamanJS", "Realtime Raytracing", "Normal Mapping", "fluidSim"} {
		wl, err := ByName(name, QuickScale)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInterp(3)
		w, err := Run(wl, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.Canvases) == 0 {
			t.Fatalf("%s: no canvas created", name)
		}
		painted := false
		for _, cv := range w.Canvases {
			for _, b := range cv.Pix {
				if b != 0 {
					painted = true
					break
				}
			}
		}
		if !painted {
			t.Errorf("%s: canvas untouched", name)
		}
	}
}

// TestHistogramControl runs the reduce-shaped control workload (not in
// Table 1) and checks every primitive-shaped kernel actually computed.
func TestHistogramControl(t *testing.T) {
	t.Parallel()
	wl := Histogram(QuickScale)
	in := NewInterp(7)
	w, err := Run(wl, in)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(w.Canvases) == 0 {
		t.Fatal("no canvas created")
	}
	if e := in.Global("totalEnergy").ToNumber(); e <= 0 {
		t.Errorf("energy reduction = %v, want > 0", e)
	}
	if b := in.Global("brightCount").ToNumber(); b <= 0 {
		t.Errorf("bright-pixel filter kept %v, want > 0", b)
	}
	cdf := in.Global("cdf")
	if !cdf.IsObject() || len(cdf.Object().Elems) != 256 {
		t.Fatal("CDF scan did not produce 256 bins")
	}
	if got := cdf.Object().Elems[255].ToNumber(); got != 96*64 {
		t.Errorf("cdf[255] = %v, want %v (all pixels)", got, 96*64)
	}
}

// domOpCounter counts the DOM host ops it is sent.
type domOpCounter struct{ n int }

func (c *domOpCounter) HostOp(category, _ string) {
	if category == "dom" {
		c.n++
	}
}

// TestDOMWorkloadsTouchDOM checks the interactive apps mutate the DOM,
// counting the "dom" host ops the browser reports.
func TestDOMWorkloadsTouchDOM(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"Ace", "MyScript", "sigma.js", "D3.js"} {
		wl, err := ByName(name, QuickScale)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInterp(3)
		ops := &domOpCounter{}
		in.SetHooks(ops)
		if _, err := Run(wl, in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ops.n < 10 {
			t.Errorf("%s: only %d DOM ops", name, ops.n)
		}
	}
}
