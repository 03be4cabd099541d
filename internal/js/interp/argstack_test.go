package interp_test

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

// TestArgStackThrowReset throws out of the middle of a native call's
// arguments, after the first one is on the argument stack: the
// catch, SafeCall and Run each restore the height they entered with, so
// the stack ends empty however often that happens.
func TestArgStackThrowReset(t *testing.T) {
	const src = `
function thrower() { throw new Error("mid-arguments"); }
var caught = 0;
for (var i = 0; i < 10000; i++) { try { Math.max(1, thrower()); } catch (e) { caught++; } }
function viaSafeCall() { return Math.max(1, 2, Math.min(3, thrower())); }
function spin() { for (;;) {} }`
	in := interp.New()
	if err := in.Run(parser.MustParse(src)); err != nil {
		t.Fatal(err)
	}
	if got := in.Global("caught").Num(); got != 10000 {
		t.Fatalf("caught %v throws, want 10000", got)
	}
	if h := in.ArgStackHeight(); h != 0 {
		t.Errorf("after 10000 caught throws the argument stack is at height %d, want 0", h)
	}

	_, err := in.SafeCall(in.Global("viaSafeCall"), value.Undefined(), nil)
	if err == nil || !strings.Contains(err.Error(), "mid-arguments") {
		t.Fatalf("SafeCall: %v, want the thrown error", err)
	}
	if h := in.ArgStackHeight(); h != 0 {
		t.Errorf("after SafeCall threw mid-arguments the argument stack is at height %d, want 0", h)
	}

	// A fatal (the step limit) unwinds to Run.
	spent := interp.New(interp.WithMaxSteps(10000))
	err = spent.Run(parser.MustParse(src[strings.Index(src, "function spin"):] + "\nMath.max(1, 2, spin());"))
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("Run: %v, want the step limit", err)
	}
	if h := spent.ArgStackHeight(); h != 0 {
		t.Errorf("after Run hit the step limit mid-arguments the argument stack is at height %d, want 0", h)
	}
}

// TestModBitExact holds the compiled engine's % bit-identical to
// math.Mod, which the reference tree walk keeps: over random doubles,
// integer pairs of every magnitude up to 2^62, and every pair of the
// edge cases (signed zeros, negative operands, 2^53 and its neighbours,
// the int64 bounds, NaN and the infinities).
func TestModBitExact(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 3, -3, 7, -7, 0.5, -0.5, 2.5, -2.5, 1e-300, -5e-324,
		1 << 53, -(1 << 53), 1<<53 - 1, -(1<<53 - 1), 1<<53 + 2, -(1<<53 + 2),
		1 << 62, -(1 << 62), 1 << 63, -(1 << 63), 1<<63 - 1024, -(1<<63 - 1024), 1 << 64, -(1 << 64),
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	failures := 0
	check := func(l, r float64) {
		got, want := interp.Mod(l, r), math.Mod(l, r)
		if math.Float64bits(got) != math.Float64bits(want) {
			if failures++; failures <= 10 {
				t.Errorf("%v %% %v = %v (%#x), math.Mod gives %v (%#x)", l, r, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for _, l := range edges {
		for _, r := range edges {
			check(l, r)
		}
	}
	rng := rand.New(rand.NewPCG(7, 45))
	for i := 0; i < 100000; i++ {
		// random doubles of every exponent
		check(math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()))
		// integer pairs: a dividend up to 2^62 and a divisor of any size
		// up to it, both signs
		l := float64(rng.Int64N(1<<(1+rng.IntN(62)))) * float64(1-2*rng.IntN(2))
		r := float64(rng.Int64N(1<<(1+rng.IntN(62)))) * float64(1-2*rng.IntN(2))
		check(l, r)
		// small integers, where the remainder is often zero
		check(float64(rng.IntN(2001)-1000), float64(rng.IntN(41)-20))
		// an integer against a fraction and the other way round
		check(l, r+0.25)
		check(l+0.5, float64(rng.IntN(100)+1))
	}
	if failures > 0 {
		t.Errorf("%d of %d cases differ", failures, len(edges)*len(edges)+500000)
	}
}
