package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/js/ast"
)

// ---- Welford ----

func TestWelfordAgainstTwoPass(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.Mean() != 5 {
		t.Errorf("mean = %v", w.Mean())
	}
	if w.Variance() != 4 {
		t.Errorf("variance = %v", w.Variance())
	}
	if w.StdDev() != 2 {
		t.Errorf("stddev = %v", w.StdDev())
	}
	if w.Sum() != 40 {
		t.Errorf("sum = %v", w.Sum())
	}
}

// Property: Welford ≡ naive two-pass variance for arbitrary inputs.
func TestWelfordProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, r := range raw {
			d := float64(r) - mean
			m2 += d * d
		}
		wantVar := m2 / float64(len(raw))
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Variance()-wantVar) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// ---- LoopStack ----

func TestLoopStackNesting(t *testing.T) {
	ls := NewLoopStack()
	if rec := ls.Enter(1); rec {
		t.Error("fresh loop flagged recursive")
	}
	ls.Iterate(1)
	ls.Iterate(1)
	ls.Enter(2)
	ls.Iterate(2)
	snap := *ls.stamp()
	if len(snap) != 2 {
		t.Fatalf("depth %d", len(snap))
	}
	if snap[0] != (Triple{Loop: 1, Instance: 1, Iteration: 2}) {
		t.Errorf("outer = %+v", snap[0])
	}
	if snap[1] != (Triple{Loop: 2, Instance: 1, Iteration: 1}) {
		t.Errorf("inner = %+v", snap[1])
	}
	ls.Exit(2)
	ls.Enter(2) // second instance
	if top := ls.stack[ls.Depth()-1]; top.Instance != 2 {
		t.Errorf("instance = %d, want 2", top.Instance)
	}
	ls.Exit(2)
	ls.Exit(1)
	if ls.Depth() != 0 {
		t.Errorf("depth = %d after exits", ls.Depth())
	}
}

func TestLoopStackSnapshotImmutable(t *testing.T) {
	ls := NewLoopStack()
	ls.Enter(1)
	snap := *ls.stamp()
	ls.Iterate(1)
	if snap[0].Iteration != 0 {
		t.Error("snapshot mutated by later Iterate")
	}
}

func TestLoopStackRecursionDetection(t *testing.T) {
	ls := NewLoopStack()
	if ls.Enter(1) || ls.Enter(2) {
		t.Error("first entries flagged recursive")
	}
	if rec := ls.Enter(1); !rec {
		t.Error("re-entry not flagged")
	}
	// exits unwind innermost instance first
	ls.Exit(1)
	if !ls.Contains(1) {
		t.Error("outer instance of 1 vanished")
	}
	ls.Exit(2)
	ls.Exit(1)
	if ls.Depth() != 0 {
		t.Error("unbalanced")
	}
}

// Property: after any sequence of balanced enter/exit pairs the stack is
// empty and instance counters equal the number of enters.
func TestLoopStackBalancedProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		ls := NewLoopStack()
		var open []ast.LoopID
		enters := map[ast.LoopID]int64{}
		for _, op := range ops {
			id := ast.LoopID(op%5 + 1)
			if op%2 == 0 || len(open) == 0 {
				ls.Enter(id)
				enters[id]++
				open = append(open, id)
			} else {
				last := open[len(open)-1]
				ls.Exit(last)
				open = open[:len(open)-1]
			}
		}
		for len(open) > 0 {
			ls.Exit(open[len(open)-1])
			open = open[:len(open)-1]
		}
		if ls.Depth() != 0 {
			return false
		}
		for id, n := range enters {
			if ls.Instances(id) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ---- appendCharacterization ----

func TestCharacterizeIdentical(t *testing.T) {
	s := Stamp{{1, 2, 3}, {4, 5, 6}}
	c := appendCharacterization(nil, s, s)
	if !c.Clean() {
		t.Errorf("identical stamps not clean: %v", c)
	}
}

func TestCharacterizeIterationDiff(t *testing.T) {
	prev := Stamp{{1, 1, 3}}
	cur := Stamp{{1, 1, 4}}
	c := appendCharacterization(nil, prev, cur)
	if len(c) != 1 || !c[0].InstanceOK || c[0].IterationOK {
		t.Errorf("char = %v, want ok dependence", c)
	}
	if !c.hasIterationDep() {
		t.Error("hasIterationDep false")
	}
}

func TestCharacterizeInstanceDiffImpliesIterationDiff(t *testing.T) {
	// "dependence ok" is not a valid characterization (§3.3)
	prev := Stamp{{1, 1, 3}}
	cur := Stamp{{1, 2, 3}}
	c := appendCharacterization(nil, prev, cur)
	if c[0].InstanceOK || c[0].IterationOK {
		t.Errorf("char = %v, want dependence dependence", c)
	}
}

func TestCharacterizeMissingLevels(t *testing.T) {
	// created before the inner loop started, same outer iteration
	prev := Stamp{{1, 1, 3}}
	cur := Stamp{{1, 1, 3}, {2, 7, 5}}
	c := appendCharacterization(nil, prev, cur)
	if !c[0].InstanceOK || !c[0].IterationOK {
		t.Errorf("outer level = %+v, want ok ok", c[0])
	}
	if !c[1].InstanceOK || c[1].IterationOK {
		t.Errorf("inner level = %+v, want ok dependence", c[1])
	}
}

func TestCharacterizeMisalignedTail(t *testing.T) {
	// once a level differs, deeper levels are conservatively dependent
	prev := Stamp{{1, 1, 2}, {2, 3, 4}}
	cur := Stamp{{1, 1, 5}, {2, 9, 1}}
	c := appendCharacterization(nil, prev, cur)
	if c[0].InstanceOK != true || c[0].IterationOK != false {
		t.Errorf("level0 = %+v", c[0])
	}
	if c[1].InstanceOK || c[1].IterationOK {
		t.Errorf("level1 = %+v, want dependence dependence", c[1])
	}
}

func TestCharacterizeStructuralMismatch(t *testing.T) {
	prev := Stamp{{3, 1, 1}}
	cur := Stamp{{5, 1, 1}}
	c := appendCharacterization(nil, prev, cur)
	if c[0].InstanceOK || c[0].IterationOK {
		t.Errorf("different loops must be fully dependent: %v", c)
	}
	if c.hasIterationDep() {
		t.Error("structural mismatch is not an iteration dependence")
	}
}

// Property: a stamp characterized against itself is always clean;
// prefix-sharing stamps are clean on the shared prefix.
func TestCharacterizeProperties(t *testing.T) {
	mk := func(raw []uint8) Stamp {
		s := make(Stamp, 0, len(raw)/3)
		for i := 0; i+2 < len(raw); i += 3 {
			s = append(s, Triple{
				Loop:      ast.LoopID(raw[i]%7 + 1),
				Instance:  int64(raw[i+1] % 4),
				Iteration: int64(raw[i+2] % 4),
			})
		}
		return s
	}
	selfClean := func(raw []uint8) bool {
		s := mk(raw)
		return appendCharacterization(nil, s, s).Clean()
	}
	if err := quick.Check(selfClean, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	prefixOK := func(raw []uint8, extra uint8) bool {
		s := mk(raw)
		cur := append(append(Stamp{}, s...), Triple{Loop: ast.LoopID(extra%7 + 10), Instance: 1, Iteration: 2})
		c := appendCharacterization(nil, s, cur)
		for i := range s {
			if !c[i].InstanceOK || !c[i].IterationOK {
				return false
			}
		}
		last := c[len(c)-1]
		return last.InstanceOK && !last.IterationOK
	}
	if err := quick.Check(prefixOK, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCharacterizationFormat(t *testing.T) {
	loops := []ast.LoopInfo{
		{ID: 1, Kind: "while", Line: 24},
		{ID: 2, Kind: "for", Line: 6},
	}
	c := Characterization{
		{Loop: 1, InstanceOK: true, IterationOK: true},
		{Loop: 2, InstanceOK: true, IterationOK: false},
	}
	want := "while(line 24) ok ok → for(line 6) ok dependence"
	if got := c.Format(loops); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
	if c.Key() != "1:oo/2:od" {
		t.Errorf("Key = %q", c.Key())
	}
}

// ---- Difficulty / divergence string coverage ----

func TestScaleStrings(t *testing.T) {
	if VeryEasy.String() != "very easy" || VeryHard.String() != "very hard" {
		t.Error("difficulty strings")
	}
	if DivNone.String() != "none" || DivLittle.String() != "little" || DivYes.String() != "yes" {
		t.Error("divergence strings")
	}
	if WarnVarWrite.String() != "var-write" || WarnRecursion.String() != "recursion" {
		t.Error("warn kind strings")
	}
}

// ---- Amdahl ----

func TestAmdahlBound(t *testing.T) {
	nests := []NestReport{
		{TimeNS: 900, ParDiff: Easy},
		{TimeNS: 50, ParDiff: VeryHard},
	}
	easy := func(n *NestReport) bool { return n.ParDiff <= Easy }
	b := AmdahlBound(nests, 1000, easy)
	if math.Abs(b-10) > 1e-9 {
		t.Errorf("bound = %v, want 10 (P=0.9)", b)
	}
	b16 := AmdahlBoundCores(nests, 1000, 16, easy)
	want := 1 / (0.1 + 0.9/16)
	if math.Abs(b16-want) > 1e-9 {
		t.Errorf("16-core = %v, want %v", b16, want)
	}
	if AmdahlBound(nests, 0, easy) != 1 {
		t.Error("degenerate script time")
	}
	// P capped below 1
	all := func(*NestReport) bool { return true }
	if b := AmdahlBound(nests, 900, all); math.IsInf(b, 1) {
		t.Error("bound overflowed to +Inf")
	}
}
