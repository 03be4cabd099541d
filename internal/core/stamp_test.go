package core

import (
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/js/ast"
)

// sliceModel is the characterization as it stood while a stamp was a
// plain copy of the stack: no snapshot sharing, no identity shortcut,
// and a decimal dedup key ("1:oo/4:od|name").
type sliceModel struct{}

func (sliceModel) characterize(stamp, current []Triple) Characterization {
	out := make(Characterization, 0, len(current))
	misaligned := false
	for i, cur := range current {
		if misaligned {
			out = append(out, LevelChar{Loop: cur.Loop})
			continue
		}
		if i < len(stamp) && stamp[i].Loop == cur.Loop {
			instOK := stamp[i].Instance == cur.Instance
			iterOK := instOK && stamp[i].Iteration == cur.Iteration
			out = append(out, LevelChar{Loop: cur.Loop, InstanceOK: instOK, IterationOK: iterOK})
			misaligned = !iterOK
			continue
		}
		if i >= len(stamp) {
			out = append(out, LevelChar{Loop: cur.Loop, InstanceOK: true})
		} else {
			out = append(out, LevelChar{Loop: cur.Loop})
		}
		misaligned = true
	}
	return out
}

func (sliceModel) clean(c Characterization) bool {
	for _, l := range c {
		if !l.InstanceOK || !l.IterationOK {
			return false
		}
	}
	return true
}

func (sliceModel) hasIterationDep(c Characterization) bool {
	for _, l := range c {
		if l.InstanceOK && !l.IterationOK {
			return true
		}
	}
	return false
}

func (sliceModel) key(c Characterization, name string) string {
	var b []byte
	for i, l := range c {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, int64(l.Loop), 10)
		b = append(b, ':', flagChar(l.InstanceOK), flagChar(l.IterationOK))
	}
	return string(b) + "|" + name
}

// TestStampMatchesSliceModel drives a LoopStack with seeded random
// Enter/Iterate/Exit traces — re-entering open loops as recursion does,
// and exiting loops below the top — beside a plain slice copy of the
// stack, and takes stamps at random points. Each stamp must hold the
// model's triples and be the previous stamp's pointer exactly when the
// stack did not change in between (every empty stack shares one). For every pair of stamps the
// characterization, Clean and hasIterationDep must be the model's, and
// two dedup keys (with names) must be equal exactly when the model's
// decimal keys are.
func TestStampMatchesSliceModel(t *testing.T) {
	var m sliceModel
	// Names holding the bytes a level encodes to (loop 1 "ok dependence"
	// is 6, "ok ok" 7; loop 2 "ok ok" 11) catch a key whose
	// characterization could run into its name.
	names := []string{"", "a", "a1", "1", "x.y", "p[elem]", "\x00", "\x06", "\x07", "\x0b", "\x07\x06"}
	for seed := uint64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 49))
		ls := NewLoopStack()
		var model []Triple
		instances := map[ast.LoopID]int64{}
		type taken struct {
			p    *Stamp
			want []Triple
		}
		var stamps []taken
		changed := true
		for step := 0; step < 120; step++ {
			switch op := rng.IntN(10); {
			case op < 2: // enter: a small loop set, so open loops are re-entered
				id := ast.LoopID(1 + rng.IntN(4))
				instances[id]++
				model = append(model, Triple{Loop: id, Instance: instances[id]})
				ls.Enter(id)
				changed = true
			case op < 5 && len(model) > 0: // iterate the innermost frame of an open loop
				id := model[rng.IntN(len(model))].Loop
				for i := len(model) - 1; i >= 0; i-- {
					if model[i].Loop == id {
						model[i].Iteration++
						break
					}
				}
				ls.Iterate(id)
				changed = true
			case op < 6 && len(model) > 0: // exit the innermost frame of an open loop
				id := model[rng.IntN(len(model))].Loop
				for i := len(model) - 1; i >= 0; i-- {
					if model[i].Loop == id {
						model = append(model[:i], model[i+1:]...)
						break
					}
				}
				ls.Exit(id)
				changed = true
			default: // take a stamp
				p := ls.stamp()
				if !reflect.DeepEqual([]Triple(*p), model) && len(model)+len(*p) > 0 {
					t.Fatalf("seed %d step %d: stamp %v, stack %v", seed, step, *p, model)
				}
				if n := len(stamps); n > 0 && (stamps[n-1].p == p) == changed && len(model)+len(stamps[n-1].want) > 0 {
					t.Fatalf("seed %d step %d: stamp shared=%v after a stack change=%v", seed, step, stamps[n-1].p == p, changed)
				}
				stamps = append(stamps, taken{p, append([]Triple(nil), model...)})
				changed = false
			}
		}
		type keyed struct{ dedup, model string }
		var keys []keyed
		for _, a := range stamps {
			for _, b := range stamps {
				got, want := Characterize(*a.p, *b.p), m.characterize(a.want, b.want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Characterize(%v, %v) = %v, model %v", seed, a.want, b.want, got, want)
				}
				if got.Clean() != m.clean(want) || got.hasIterationDep() != m.hasIterationDep(want) {
					t.Fatalf("seed %d: %v: Clean %v hasIterationDep %v, model %v %v", seed, got, got.Clean(), got.hasIterationDep(), m.clean(want), m.hasIterationDep(want))
				}
				name := names[rng.IntN(len(names))]
				keys = append(keys, keyed{string(append(got.appendDedupKey(nil), name...)), m.key(want, name)})
			}
		}
		seen := map[string]string{} // dedup key → model key
		back := map[string]string{} // model key → dedup key
		for _, k := range keys {
			if mk, ok := seen[k.dedup]; ok && mk != k.model {
				t.Fatalf("seed %d: dedup key %q stands for %q and %q", seed, k.dedup, mk, k.model)
			}
			if dk, ok := back[k.model]; ok && dk != k.dedup {
				t.Fatalf("seed %d: model key %q has dedup keys %q and %q", seed, k.model, dk, k.dedup)
			}
			seen[k.dedup], back[k.model] = k.model, k.dedup
		}
		if seed == 1 {
			t.Logf("seed 1: %d stamps, %d distinct keys", len(stamps), len(seen))
		}
	}
}
