package parallel

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/js/interp"
	"repro/internal/js/value"
)

const squareKernel = `
function kernel(i) {
  return i * i + offset;
}
`

func squareSetup(off float64) func(in *interp.Interp) error {
	return func(in *interp.Interp) error {
		in.SetGlobal("offset", value.Number(off))
		return nil
	}
}

func TestMapSequential(t *testing.T) {
	k := &Kernel{Source: squareKernel, Setup: squareSetup(3)}
	r, err := k.MapSequential(10)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range r.Values {
		if want := float64(i*i + 3); v.ToNumber() != want {
			t.Errorf("kernel(%d) = %v, want %v", i, v.ToNumber(), want)
		}
	}
}

func TestParallelEqualsSequential(t *testing.T) {
	k := &Kernel{Source: squareKernel, Setup: squareSetup(7)}
	seq, err := k.MapSequential(500)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		par, err := k.MapParallel(500, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(seq.Values, par.Values, value.SameValue) {
			t.Errorf("workers=%d: parallel result differs from sequential", workers)
		}
	}
}

func TestParallelEqualsSequentialHeavyKernel(t *testing.T) {
	// A convolution-style kernel over a shared read-only input: the shape
	// the analysis clears as "easy" (disjoint writes, read-only input).
	src := `
function kernel(i) {
  var acc = 0;
  for (var j = -2; j <= 2; j++) {
    var idx = i + j;
    if (idx < 0) { idx = 0; }
    if (idx >= input.length) { idx = input.length - 1; }
    acc += input[idx] * (3 - (j < 0 ? -j : j));
  }
  return acc / 9;
}
`
	setup := func(in *interp.Interp) error {
		elems := make([]value.Value, 256)
		for i := range elems {
			elems[i] = value.Number(float64(i%17) * 1.5)
		}
		in.SetGlobal("input", value.ObjectVal(in.NewArray(elems...)))
		return nil
	}
	k := &Kernel{Source: src, Setup: setup}
	seq, err := k.MapSequential(256)
	if err != nil {
		t.Fatal(err)
	}
	par, err := k.MapParallel(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(seq.Values, par.Values, value.SameValue) {
		t.Error("heavy kernel: parallel differs from sequential")
	}
}

func TestMapParallelPropertyEquivalence(t *testing.T) {
	// Property: for arbitrary small n and workers, parallel == sequential.
	k := &Kernel{Source: squareKernel, Setup: squareSetup(1)}
	f := func(n, w uint8) bool {
		nn := int(n%64) + 1
		ww := int(w%6) + 1
		seq, err := k.MapSequential(nn)
		if err != nil {
			return false
		}
		par, err := k.MapParallel(nn, ww)
		if err != nil {
			return false
		}
		return slices.EqualFunc(seq.Values, par.Values, value.SameValue)
	}
	cfg := &quick.Config{MaxCount: 12} // each case spawns interpreters
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKernelErrors(t *testing.T) {
	if _, err := (&Kernel{Source: "var x = 1;"}).MapSequential(1); err == nil {
		t.Error("missing kernel function should fail")
	}
	if _, err := (&Kernel{Source: "function kernel(i) { return nope(); }"}).MapSequential(1); err == nil {
		t.Error("throwing kernel should fail")
	}
	if _, err := (&Kernel{Source: "syntax error ("}).MapSequential(1); err == nil {
		t.Error("unparsable kernel should fail")
	}
}

func TestWorkersClamped(t *testing.T) {
	k := &Kernel{Source: "function kernel(i) { return i; }"}
	r, err := k.MapParallel(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) != 3 {
		t.Errorf("len = %d, want 3", len(r.Values))
	}
}
