package core

import (
	"testing"

	"repro/internal/js/interp"
)

// TestAccessSetOverflowIsConservative: a later unit whose read set
// overflows before it reaches the binding an earlier unit wrote must
// still depend on that unit. Dropping the read would report the pair
// independent, and a limit study would overestimate safety.
func TestAccessSetOverflowIsConservative(t *testing.T) {
	g := &interp.Binding{Name: "g"}
	var r AccessRecorder

	earlier := NewAccessSet()
	r.Unit = earlier
	r.VarWrite("g", g)

	later := NewAccessSet()
	r.Unit = later
	for i := 0; i < accessSetCap+1; i++ {
		r.VarRead("x", &interp.Binding{Name: "x"})
	}
	r.VarRead("g", g)

	if !later.DependsOn(earlier, nil) {
		t.Fatal("an overflowed later unit reads g after the earlier unit wrote it, yet DependsOn is false")
	}
	// An overflowed earlier unit is conservative too, in either order.
	if !earlier.DependsOn(later, nil) {
		t.Fatal("a unit that follows an overflowed one is reported independent")
	}
}
