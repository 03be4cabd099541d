package gecko

import (
	"testing"

	"repro/internal/js/interp"
	"repro/internal/js/parser"
)

// callDense: many interpreted-function boundaries — the sampler sees
// nearly everything.
const callDense = `
function leaf(x) { return x + 1; }
var s = 0;
for (var i = 0; i < 3000; i++) { s = leaf(s); }
`

// callSparse: one long call-free stretch — the §3.1 failure mode ("a long
// running computation within a single function may be seen as inactive").
const callSparse = `
function monolith() {
  var s = 0;
  for (var i = 0; i < 30000; i++) { s += i % 7; }
  return s;
}
var out = monolith();
`

func runSampled(t *testing.T, src string, windowNS int64) (active, script int64) {
	t.Helper()
	in := interp.New(interp.WithNSPerStep(1000))
	s := NewSampler(in)
	s.window = windowNS
	in.SetHooks(s)
	if err := in.Run(parser.MustParse(src)); err != nil {
		t.Fatal(err)
	}
	return s.ActiveTime(), in.ScriptTime()
}

func TestCallDenseFullyCredited(t *testing.T) {
	active, script := runSampled(t, callDense, 5_000_000)
	ratio := float64(active) / float64(script)
	if ratio < 0.9 {
		t.Errorf("call-dense credited %.2f of script time, want ~1", ratio)
	}
}

func TestCallSparseUndercounted(t *testing.T) {
	active, script := runSampled(t, callSparse, 5_000_000)
	ratio := float64(active) / float64(script)
	if ratio > 0.5 {
		t.Errorf("call-sparse credited %.2f, want < 0.5 (the §3.1 anomaly)", ratio)
	}
	if active <= 0 {
		t.Error("sampler saw nothing at all")
	}
}

func TestActiveNeverExceedsScript(t *testing.T) {
	for _, src := range []string{callDense, callSparse} {
		active, script := runSampled(t, src, 1_000_000)
		if active > script {
			t.Errorf("active %d > script %d", active, script)
		}
	}
}

func TestWindowMonotonicity(t *testing.T) {
	// A wider sampling window can only credit more time.
	a1, _ := runSampled(t, callSparse, 1_000_000)
	a2, _ := runSampled(t, callSparse, 10_000_000)
	if a2 < a1 {
		t.Errorf("wider window credited less: %d < %d", a2, a1)
	}
}

func TestNativeCallsInvisible(t *testing.T) {
	// Math.* are intrinsics: a loop full of native calls is still one
	// opaque stretch to the sampler.
	src := `
function monolithWithMath() {
  var s = 0;
  for (var i = 0; i < 20000; i++) { s += Math.sqrt(i); }
  return s;
}
var out = monolithWithMath();
`
	active, script := runSampled(t, src, 5_000_000)
	if ratio := float64(active) / float64(script); ratio > 0.5 {
		t.Errorf("native-call loop credited %.2f; intrinsics must not create sample boundaries", ratio)
	}
}
