// Package survey reproduces the developer-survey pipeline of §2: the
// 20-question questionnaire, a deterministic synthetic respondent corpus
// calibrated to the paper's published marginals (the raw responses were
// never released — only aggregates at cos.github.io/js-ceres), the
// qualitative thematic coder for open-ended answers, Jaccard inter-rater
// agreement, and the aggregations behind Figures 1–4.
package survey

import (
	"fmt"
	"sort"
	"strings"
)

// Category is a Figure 1 application category code.
type Category string

// Figure 1 categories, as hand-coded by the paper's raters.
const (
	CatGames         Category = "Games"
	CatP2PSocial     Category = "Peer-to-Peer and Social"
	CatDesktopLike   Category = "Desktop like"
	CatDataProc      Category = "Data processing, analysis; productivity"
	CatAudioVideo    Category = "Audio and Video"
	CatVisualization Category = "Visualization"
	CatAugReality    Category = "Augmented reality; voice, gesture, user recognition"
)

// Categories lists the Figure 1 categories in presentation order.
func Categories() []Category {
	return []Category{
		CatGames, CatP2PSocial, CatDesktopLike, CatDataProc,
		CatAudioVideo, CatVisualization, CatAugReality,
	}
}

// Component is a Figure 2 performance-bottleneck component.
type Component string

// Figure 2 components.
const (
	CompResourceLoading Component = "resource loading"
	CompDOM             Component = "DOM manipulation"
	CompCanvas          Component = "Canvas (read/write images)"
	CompWebGL           Component = "WebGL interaction"
	CompNumberCrunch    Component = "number crunching"
	CompCSS             Component = "styling (CSS)"
)

// Components lists Figure 2 components in presentation order.
func Components() []Component {
	return []Component{
		CompResourceLoading, CompDOM, CompCanvas,
		CompWebGL, CompNumberCrunch, CompCSS,
	}
}

// Rating is a Figure 2 three-level bottleneck rating.
type Rating int

// Ratings.
const (
	NotAnIssue Rating = iota
	SoSo
	Bottleneck
)

func (r Rating) String() string {
	switch r {
	case NotAnIssue:
		return "not an issue"
	case SoSo:
		return "so, so..."
	case Bottleneck:
		return "is a bottleneck"
	}
	return "?"
}

// Response is one synthetic respondent's answer sheet.
type Response struct {
	ID int
	// TrendAnswer is the free-text answer to "what new kinds of
	// applications will trend on the web over the next 5 years?".
	TrendAnswer string
	// Bottlenecks maps each component to its rating.
	Bottlenecks map[Component]Rating
	// StyleScale is the functional(1)..imperative(5) preference, 0 = n/a.
	StyleScale int
	// PolymorphismScale is monomorphic(1)..polymorphic(5), 0 = n/a.
	PolymorphismScale int
	// PrefersOperators: high-level array operators over explicit loops.
	PrefersOperators bool
	// GlobalsAnswer is the free-text answer on global-variable usage.
	GlobalsAnswer string
}

// Corpus is the full synthetic respondent set.
type Corpus struct {
	Responses []Response
}

// NumRespondents matches the paper's 174 distinct responses.
const NumRespondents = 174

// Figure 1 counts from the paper (Chart 1): respondents per category of
// 130 valid answers; 45 gave no usable answer (some answers carry
// multiple codes, which is why category counts sum to less than 130+45).
var paperFig1 = map[Category]int{
	CatGames:         26,
	CatP2PSocial:     17,
	CatDesktopLike:   15,
	CatDataProc:      7,
	CatAudioVideo:    8,
	CatVisualization: 7,
	CatAugReality:    5,
}

// paperFig2 holds the paper's Figure 2 counts: participants answering
// (not an issue, so-so, bottleneck) per component.
var paperFig2 = map[Component][3]int{
	CompResourceLoading: {13, 64, 85},
	CompDOM:             {23, 65, 83},
	CompCanvas:          {37, 72, 46},
	CompWebGL:           {37, 72, 41},
	CompNumberCrunch:    {65, 65, 35},
	CompCSS:             {62, 77, 25},
}

// paperFig3 holds Figure 3: functional(1)..imperative(5) counts of 166
// scale answers.
var paperFig3 = [5]int{52, 50, 41, 15, 8}

// paperFig4 holds Figure 4: monomorphic(1)..polymorphic(5) counts. The
// paper's chart table claims 176 answers, which exceeds its 174
// respondents; we follow the body text instead ("98 out of 168 said the
// programs they write are purely monomorphic", 58/29/7/5/1%), which sums
// to 168.
var paperFig4 = [5]int{98, 47, 12, 9, 2}

// trendPhrases provides representative free-text fragments per category;
// the synthetic generator samples them so the thematic coder has real
// text to work on.
var trendPhrases = map[Category][]string{
	CatGames: {
		"3D games in the browser rivaling consoles",
		"webgl games with realistic physics engines",
		"multiplayer gaming without plugins",
	},
	CatP2PSocial: {
		"peer-to-peer collaboration and social apps",
		"webrtc calls and social sharing everywhere",
		"decentralized social networks",
	},
	CatDesktopLike: {
		"everything that is on the desktop today moves to the web",
		"desktop-class applications like office suites in the browser",
		"IDEs and professional tools as web apps",
	},
	CatDataProc: {
		"data analysis dashboards and productivity suites",
		"spreadsheets crunching big data client side",
		"business analytics in the browser",
	},
	CatAudioVideo: {
		"audio workstations and video editing online",
		"real-time video processing and effects",
		"music production apps with low-latency audio",
	},
	CatVisualization: {
		"interactive data visualization of huge datasets",
		"scientific visualization with svg and canvas",
		"live charts and infographics",
	},
	CatAugReality: {
		"augmented reality overlays using the camera",
		"voice and gesture recognition interfaces",
		"face recognition for user identification",
	},
}

var noAnswerPhrases = []string{
	"", "not sure", "whatever is hyped next", "n/a",
}

// otherPhrases are answers no codebook category matches — the paper's 130
// answered respondents include ~45 whose answers fell outside the seven
// categories (the Figure 1 percentages are taken over the 85 coded ones).
var otherPhrases = []string{
	"faster websites overall",
	"more of the same, just quicker",
	"better tooling for developers",
	"hopefully fewer frameworks",
	"mobile first everything",
}

// hardPhrases are category answers only the primary codebook catches;
// they create the inter-rater disagreements the Jaccard validation
// measures (§2.1).
var hardPhrases = []string{
	"console quality titles in the browser",         // Games: only coder 1 knows "console"
	"overlay information using the phone camera",    // AR: only coder 1 knows "camera"
	"live infographics from data feeds",             // Vis: only coder 1 knows "infographic"
	"group chat built into every page",              // P2P: only coder 1 knows "chat"
	"number crunching dashboards for business data", // DataProc: split codebooks
}

var globalsPhrases = []string{
	"emulating a namespace or module system",
	"communicating values between scripts on the same page",
	"passing state between server and client on page load",
	"a global singleton for important data structures",
	"quick debugging from the console",
	"never, globals are evil",
}

// rng is a small deterministic generator for corpus synthesis.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// CorpusSeed is the seed of the published corpus: the one the survey
// artifacts (casestudy -table=survey) and their tests are generated at.
const CorpusSeed = 42

// Generate builds the deterministic synthetic corpus: the marginal
// distributions of every closed question, and the category mix of the
// open-ended trend question, match the paper's published aggregates
// exactly (the assignment of answers to respondent IDs is the synthetic
// part).
func Generate(seed uint64) *Corpus {
	r := &rng{s: seed ^ 0x9E3779B97F4A7C15}
	if r.s == 0 {
		r.s = 1
	}

	c := &Corpus{Responses: make([]Response, NumRespondents)}
	for i := range c.Responses {
		c.Responses[i].ID = i + 1
		c.Responses[i].Bottlenecks = make(map[Component]Rating)
	}

	// Figure 1: assign category-coded trend answers to the first
	// sum(counts) respondents, no-answer text to 44 more (45 total with
	// the remainder), desktop-like style filler to the rest.
	idx := 0
	for _, cat := range Categories() {
		for k := 0; k < paperFig1[cat]; k++ {
			phr := trendPhrases[cat]
			c.Responses[idx].TrendAnswer = phr[r.intn(len(phr))]
			idx++
		}
	}
	// A handful of coder-disagreement answers (still category-coded by the
	// primary rater) exercise the Jaccard validation.
	for k := 0; k < len(hardPhrases) && idx < NumRespondents; k++ {
		c.Responses[idx].TrendAnswer = hardPhrases[k]
		idx++
	}
	// Remaining respondents: 45 with no usable answer, the rest with
	// answers outside the codebook (the paper's uncategorized tail).
	for k := 0; idx < NumRespondents; idx++ {
		if k < 45 {
			c.Responses[idx].TrendAnswer = noAnswerPhrases[r.intn(len(noAnswerPhrases))]
		} else {
			c.Responses[idx].TrendAnswer = otherPhrases[r.intn(len(otherPhrases))]
		}
		k++
	}

	// Figure 2 marginals per component.
	for comp, counts := range paperFig2 {
		perm := r.permutation(NumRespondents)
		n0, n1, n2 := counts[0], counts[1], counts[2]
		for i, resp := range perm {
			switch {
			case i < n0:
				c.Responses[resp].Bottlenecks[comp] = NotAnIssue
			case i < n0+n1:
				c.Responses[resp].Bottlenecks[comp] = SoSo
			case i < n0+n1+n2:
				c.Responses[resp].Bottlenecks[comp] = Bottleneck
			default:
				delete(c.Responses[resp].Bottlenecks, comp) // skipped question
			}
		}
	}

	// Figure 3 scale.
	assignScale(r, c, paperFig3, func(resp *Response, v int) { resp.StyleScale = v })
	// Figure 4 scale.
	assignScale(r, c, paperFig4, func(resp *Response, v int) { resp.PolymorphismScale = v })

	// Operators vs loops: 74% of answerers preferred operators.
	perm := r.permutation(NumRespondents)
	answered := 160
	prefer := int(0.74*float64(answered) + 0.5)
	for i := 0; i < answered; i++ {
		c.Responses[perm[i]].PrefersOperators = i < prefer
	}

	// Globals question: 105 responses; the paper reports namespace/module
	// emulation as the most common theme (33 of 105).
	perm = r.permutation(NumRespondents)
	for i := 0; i < 105; i++ {
		var phrase string
		if i < 33 {
			phrase = globalsPhrases[0] // namespace/module emulation
		} else {
			phrase = globalsPhrases[1+r.intn(len(globalsPhrases)-1)]
		}
		c.Responses[perm[i]].GlobalsAnswer = phrase
	}
	return c
}

func assignScale(r *rng, c *Corpus, counts [5]int, set func(*Response, int)) {
	perm := r.permutation(NumRespondents)
	i := 0
	for v := 1; v <= 5; v++ {
		for k := 0; k < counts[v-1]; k++ {
			if i >= len(perm) {
				return
			}
			set(&c.Responses[perm[i]], v)
			i++
		}
	}
}

func (r *rng) permutation(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// ---- Aggregations (the figures) ----

// Fig1Row is one bar of Figure 1.
type Fig1Row struct {
	Category Category
	Count    int
	Percent  float64 // of valid answers
}

// Figure1 hand-codes every trend answer with the thematic coder and
// aggregates category percentages over valid answers.
func Figure1(c *Corpus, coder *Coder) ([]Fig1Row, int) {
	counts := make(map[Category]int)
	valid := 0
	for i := range c.Responses {
		codes := coder.Code(c.Responses[i].TrendAnswer)
		if len(codes) == 0 {
			continue
		}
		valid++
		for _, cat := range codes {
			counts[cat]++
		}
	}
	rows := make([]Fig1Row, 0, len(counts))
	for _, cat := range Categories() {
		if counts[cat] == 0 {
			continue
		}
		rows = append(rows, Fig1Row{
			Category: cat,
			Count:    counts[cat],
			Percent:  100 * float64(counts[cat]) / float64(valid),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Count > rows[j].Count })
	return rows, valid
}

// Fig2Row is one component row of Figure 2.
type Fig2Row struct {
	Component  Component
	NotIssue   int
	SoSo       int
	Bottleneck int
}

// Answered returns how many respondents rated this component.
func (r Fig2Row) Answered() int { return r.NotIssue + r.SoSo + r.Bottleneck }

// PctBottleneck returns the percentage rating it a bottleneck.
func (r Fig2Row) PctBottleneck() float64 {
	if r.Answered() == 0 {
		return 0
	}
	return 100 * float64(r.Bottleneck) / float64(r.Answered())
}

// Figure2 aggregates bottleneck ratings.
func Figure2(c *Corpus) []Fig2Row {
	rows := make([]Fig2Row, 0, 6)
	for _, comp := range Components() {
		row := Fig2Row{Component: comp}
		for i := range c.Responses {
			rating, ok := c.Responses[i].Bottlenecks[comp]
			if !ok {
				continue
			}
			switch rating {
			case NotAnIssue:
				row.NotIssue++
			case SoSo:
				row.SoSo++
			case Bottleneck:
				row.Bottleneck++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// ScaleHistogram is Figures 3 and 4: counts per 1..5 answer.
type ScaleHistogram struct {
	Counts [5]int
	Total  int
}

// Percent returns the share of answers at scale value v (1-based).
func (h ScaleHistogram) Percent(v int) float64 {
	if h.Total == 0 || v < 1 || v > 5 {
		return 0
	}
	return 100 * float64(h.Counts[v-1]) / float64(h.Total)
}

// Figure3 aggregates the functional↔imperative scale.
func Figure3(c *Corpus) ScaleHistogram {
	var h ScaleHistogram
	for i := range c.Responses {
		if v := c.Responses[i].StyleScale; v >= 1 && v <= 5 {
			h.Counts[v-1]++
			h.Total++
		}
	}
	return h
}

// Figure4 aggregates the monomorphic↔polymorphic scale.
func Figure4(c *Corpus) ScaleHistogram {
	var h ScaleHistogram
	for i := range c.Responses {
		if v := c.Responses[i].PolymorphismScale; v >= 1 && v <= 5 {
			h.Counts[v-1]++
			h.Total++
		}
	}
	return h
}

// GlobalsUsage is the §2.4 breakdown of "What would be a scenario where
// using global variables helps?" answers.
type GlobalsUsage struct {
	Answered  int
	Namespace int // emulating a namespace/module system (paper: 33)
	PageComm  int // communicating between scripts / server and client
	Singleton int // global singletons for important data structures
	Debugging int
	Never     int
}

// GlobalsBreakdown codes the free-text globals answers with keyword
// matching, like the paper's hand analysis of its 105 responses.
func GlobalsBreakdown(c *Corpus) GlobalsUsage {
	var g GlobalsUsage
	for i := range c.Responses {
		ans := strings.ToLower(c.Responses[i].GlobalsAnswer)
		if ans == "" {
			continue
		}
		g.Answered++
		switch {
		case strings.Contains(ans, "namespace") || strings.Contains(ans, "module"):
			g.Namespace++
		case strings.Contains(ans, "between scripts") || strings.Contains(ans, "server and client"):
			g.PageComm++
		case strings.Contains(ans, "singleton"):
			g.Singleton++
		case strings.Contains(ans, "debug"):
			g.Debugging++
		case strings.Contains(ans, "never") || strings.Contains(ans, "evil"):
			g.Never++
		}
	}
	return g
}

// OperatorPreference returns (prefer-operators, answered) for §2.3.
func OperatorPreference(c *Corpus) (int, int) {
	prefer, answered := 0, 0
	for i := range c.Responses {
		// Respondents with any scale answer count as having taken this
		// question block; PrefersOperators false + no scales = skipped.
		if c.Responses[i].StyleScale == 0 && !c.Responses[i].PrefersOperators {
			continue
		}
		answered++
		if c.Responses[i].PrefersOperators {
			prefer++
		}
	}
	return prefer, answered
}

// Validate checks corpus invariants (marginals match the paper).
func (c *Corpus) Validate() error {
	if len(c.Responses) != NumRespondents {
		return fmt.Errorf("survey: %d respondents, want %d", len(c.Responses), NumRespondents)
	}
	h3 := Figure3(c)
	if h3.Counts != paperFig3 {
		return fmt.Errorf("survey: Figure 3 marginals %v, want %v", h3.Counts, paperFig3)
	}
	h4 := Figure4(c)
	if h4.Counts != paperFig4 {
		return fmt.Errorf("survey: Figure 4 marginals %v, want %v", h4.Counts, paperFig4)
	}
	for _, row := range Figure2(c) {
		want := paperFig2[row.Component]
		if row.NotIssue != want[0] || row.SoSo != want[1] || row.Bottleneck != want[2] {
			return fmt.Errorf("survey: Figure 2 %s = (%d,%d,%d), want %v",
				row.Component, row.NotIssue, row.SoSo, row.Bottleneck, want)
		}
	}
	return nil
}
