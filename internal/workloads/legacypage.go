package workloads

import "repro/internal/browser"

// LegacyPage is not one of the Table 1 apps: it models the page-centric
// legacy web that Fortuna et al. studied — several independent widgets
// (menu, carousel, analytics, form validation) each handling its own
// events on its own state. The task-graph baseline finds substantial
// task-level parallel slack here, unlike the compute-centric Table 1
// apps whose frames chain — which is exactly the §6 contrast: the old
// web parallelizes across tasks, the emerging web inside loops.
func LegacyPage(s Scale) *Workload {
	return &Workload{
		Name:        "LegacyPage",
		Category:    "Baseline",
		Description: "page-centric site with independent widgets (Fortuna-style)",
		Source:      legacyPageSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			events := s.N(40)
			for i := 0; i < events; i++ {
				var name string
				switch i % 4 {
				case 0:
					name = "menuHover"
				case 1:
					name = "carouselTick"
				case 2:
					name = "analyticsPing"
				default:
					name = "formKey"
				}
				if err := w.DispatchEvent(name, event(w.In, map[string]float64{"n": float64(i)})); err != nil {
					return err
				}
				w.IdleFor(250 * msVirtual)
			}
			return nil
		},
		PaperTotalS: 0, PaperActiveS: 0, PaperLoopsS: 0,
	}
}

const legacyPageSrc = `
// four widgets, each with private state: their event tasks are mutually
// independent, so a task-level limit study finds real slack here
var menuState = { open: 0, hovers: 0 };
var carouselState = { index: 0, offsets: [] };
var analyticsState = { events: [] };
var formState = { value: "", valid: false };

function setup() {
  for (var i = 0; i < 12; i++) { carouselState.offsets.push(i * 40); }
}

addEventListener("menuHover", function (e) {
  menuState.hovers++;
  var acc = 0;
  for (var i = 0; i < 400; i++) { acc += (i * 13) % 7; }
  menuState.open = acc % 2;
});

addEventListener("carouselTick", function (e) {
  var total = 0;
  for (var i = 0; i < 400; i++) { total += (carouselState.index + i) % 11; }
  carouselState.index = (carouselState.index + 1) % carouselState.offsets.length;
});

addEventListener("analyticsPing", function (e) {
  var digest = 0;
  for (var i = 0; i < 400; i++) { digest = (digest * 31 + i) % 65521; }
  analyticsState.events.push(digest);
});

addEventListener("formKey", function (e) {
  formState.value = formState.value + "x";
  var ok = 0;
  for (var i = 0; i < 400; i++) { ok += formState.value.length % 3; }
  formState.valid = ok > 0;
});
`
