package survey

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCorpusValidates(t *testing.T) {
	c := Generate(CorpusSeed)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a := Generate(7)
	b := Generate(7)
	for i := range a.Responses {
		if a.Responses[i].TrendAnswer != b.Responses[i].TrendAnswer ||
			a.Responses[i].StyleScale != b.Responses[i].StyleScale {
			t.Fatalf("corpus not deterministic at respondent %d", i)
		}
	}
}

func TestFigure1MatchesPaper(t *testing.T) {
	c := Generate(CorpusSeed)
	rows, valid := Figure1(c, NewCoder())
	// 85 single-coded category answers + 5 disagreement answers.
	if valid < 85 || valid > 95 {
		t.Fatalf("%d codable answers, want ~90 (paper codes 85 of 130 answered)", valid)
	}
	got := map[Category]int{}
	for _, r := range rows {
		got[r.Category] = r.Count
	}
	for cat, want := range paperFig1 {
		// The synthetic corpus plants exactly `want` single-coded answers
		// per category plus a few multi-coded extras for Games and
		// Visualization.
		if got[cat] < want {
			t.Errorf("%s: coded %d, want >= %d", cat, got[cat], want)
		}
		if got[cat] > want+4 {
			t.Errorf("%s: coded %d, way over paper's %d", cat, got[cat], want)
		}
	}
	// Ordering: Games first, like the paper's chart.
	if len(rows) == 0 || rows[0].Category != CatGames {
		t.Errorf("top category = %v, want Games", rows[0].Category)
	}
	// Games ≈ 31% of valid answers (paper; multi-coded extras tolerated).
	gamesPct := rows[0].Percent
	if gamesPct < 25 || gamesPct > 37 {
		t.Errorf("Games = %.0f%%, want around 31%%", gamesPct)
	}
}

func TestFigure2MatchesPaper(t *testing.T) {
	c := Generate(CorpusSeed)
	rows := Figure2(c)
	if len(rows) != 6 {
		t.Fatalf("want 6 components, got %d", len(rows))
	}
	for _, r := range rows {
		want := paperFig2[r.Component]
		if r.NotIssue != want[0] || r.SoSo != want[1] || r.Bottleneck != want[2] {
			t.Errorf("%s: (%d,%d,%d), want %v", r.Component, r.NotIssue, r.SoSo, r.Bottleneck, want)
		}
	}
	// Headline numbers: 52% call resource loading a bottleneck, ~49% DOM,
	// 21% number crunching — and crunching is dismissed by only ~39%.
	check := func(comp Component, lo, hi float64) {
		for _, r := range rows {
			if r.Component == comp {
				if p := r.PctBottleneck(); p < lo || p > hi {
					t.Errorf("%s bottleneck%% = %.0f, want in [%v,%v]", comp, p, lo, hi)
				}
			}
		}
	}
	check(CompResourceLoading, 48, 56)
	check(CompDOM, 45, 53)
	check(CompNumberCrunch, 17, 25)
}

func TestFigure3MatchesPaper(t *testing.T) {
	h := Figure3(Generate(CorpusSeed))
	if h.Counts != paperFig3 {
		t.Fatalf("Figure 3 = %v, want %v", h.Counts, paperFig3)
	}
	// 31% strongly functional, 5% strongly imperative.
	if p := h.Percent(1); math.Abs(p-31.3) > 1 {
		t.Errorf("functional(1) = %.1f%%, want ~31%%", p)
	}
	if p := h.Percent(5); math.Abs(p-4.8) > 1 {
		t.Errorf("imperative(5) = %.1f%%, want ~5%%", p)
	}
}

func TestFigure4MatchesPaper(t *testing.T) {
	h := Figure4(Generate(CorpusSeed))
	if h.Counts != paperFig4 {
		t.Fatalf("Figure 4 = %v, want %v", h.Counts, paperFig4)
	}
	// ~58% purely monomorphic, ~1% heavily polymorphic.
	if p := h.Percent(1); p < 55 || p > 62 {
		t.Errorf("monomorphic(1) = %.1f%%, want ~58%%", p)
	}
	if p := h.Percent(5); p > 2.5 {
		t.Errorf("polymorphic(5) = %.1f%%, want ~1%%", p)
	}
}

func TestOperatorPreference(t *testing.T) {
	prefer, answered := OperatorPreference(Generate(CorpusSeed))
	if answered == 0 {
		t.Fatal("nobody answered")
	}
	pct := 100 * float64(prefer) / float64(answered)
	if pct < 60 || pct > 85 {
		t.Errorf("operator preference = %.0f%%, want ~74%%", pct)
	}
}

func TestCoderMultiCodes(t *testing.T) {
	c := NewCoder()
	codes := c.Code("3D games in the browser and interactive data visualization")
	hasGames, hasVis := false, false
	for _, cat := range codes {
		if cat == CatGames {
			hasGames = true
		}
		if cat == CatVisualization {
			hasVis = true
		}
	}
	if !hasGames || !hasVis {
		t.Errorf("multi-theme answer coded as %v", codes)
	}
	if got := c.Code("n/a"); got != nil {
		t.Errorf("n/a coded as %v", got)
	}
	if got := c.Code(""); got != nil {
		t.Errorf("empty coded as %v", got)
	}
}

func TestInterRaterAgreementAbove80Percent(t *testing.T) {
	// The paper: "an inter-rater agreement of over 80% for 20% of the
	// data", measured with the Jaccard coefficient.
	c := Generate(CorpusSeed)
	agreement := InterRaterAgreement(c, NewCoder(), NewSecondCoder(), 0.20)
	if agreement <= 0.80 {
		t.Errorf("inter-rater agreement = %.2f, want > 0.80", agreement)
	}
	if agreement >= 1.0 {
		t.Errorf("agreement exactly 1.0 — the raters must differ somewhere")
	}
}

func TestJaccardProperties(t *testing.T) {
	cats := Categories()
	toSet := func(mask uint8) []Category {
		var out []Category
		for i := 0; i < 7; i++ {
			if mask&(1<<i) != 0 {
				out = append(out, cats[i])
			}
		}
		return out
	}
	// Symmetry and range.
	f := func(a, b uint8) bool {
		x, y := toSet(a%128), toSet(b%128)
		j1, j2 := Jaccard(x, y), Jaccard(y, x)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Identity: J(a, a) == 1.
	g := func(a uint8) bool {
		x := toSet(a % 128)
		return Jaccard(x, x) == 1
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	// Disjoint non-empty sets score 0.
	if j := Jaccard([]Category{CatGames}, []Category{CatAudioVideo}); j != 0 {
		t.Errorf("disjoint Jaccard = %v, want 0", j)
	}
}

func TestGlobalsBreakdown(t *testing.T) {
	// §2.4: 105 respondents answered the globals question; namespace
	// emulation was the most common theme (33 in the paper).
	g := GlobalsBreakdown(Generate(CorpusSeed))
	if g.Answered != 105 {
		t.Fatalf("answered = %d, want 105", g.Answered)
	}
	coded := g.Namespace + g.PageComm + g.Singleton + g.Debugging + g.Never
	if coded < 90 {
		t.Errorf("only %d of %d answers coded", coded, g.Answered)
	}
	if g.Namespace != 33 {
		t.Errorf("namespace theme = %d, want 33 (the paper's count)", g.Namespace)
	}
	if g.PageComm == 0 || g.Singleton == 0 {
		t.Errorf("missing themes: %+v", g)
	}
}
