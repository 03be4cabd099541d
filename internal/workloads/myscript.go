package workloads

import "repro/internal/browser"

// MyScript reproduces the VisionObjects handwriting-recognition demo: pen
// strokes are captured client-side, lightly preprocessed (the paper notes
// the only expensive client loop just measures segment lengths over a few
// points), and then shipped to a server — the app idles through the
// round-trip, so Active is a sliver of Total. Shared recognition state
// and DOM result rendering make the nest very hard to parallelize.
func MyScript(s Scale) *Workload {
	return &Workload{
		Name:        "MyScript",
		Category:    "User recognition",
		Description: "handwriting recognition application",
		Source:      myscriptSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			w.IdleFor(1500 * msVirtual)
			glyphs := s.N(24)
			for g := 0; g < glyphs; g++ {
				// each glyph: a handful of pen samples, then pen-up
				pts := 3 + (g*5)%6
				for p := 0; p < pts; p++ {
					if err := w.DispatchEvent("pen", event(w.In, map[string]float64{
						"x": float64(10 + g*4 + p*3), "y": float64(40 + (p*p)%17)})); err != nil {
						return err
					}
					w.IdleFor(40 * msVirtual)
				}
				if err := w.DispatchEvent("penup", event(w.In, nil)); err != nil {
					return err
				}
				// server round-trip for recognition
				w.IdleFor(320 * msVirtual)
			}
			return nil
		},
		PaperTotalS:  12,
		PaperActiveS: 0.33,
		PaperLoopsS:  0.15,
	}
}

const myscriptSrc = `
var stroke = [];
var recognized = "";
var resultEl = null;
var inkLength = 0;
var strokeCount = 0;

function setup() {
  resultEl = document.createElement("div");
  resultEl.setAttribute("id", "result");
  document.body.appendChild(resultEl);
}

// The client-side hot loop: segment lengths over the stroke's few points
// (Table 3: 4±2 trips), with a data-dependent simplification inner loop
// that skips near-duplicate samples (variable trips → divergence).
function preprocess() {
  var len = 0;
  var i = 1;
  for (i = 1; i < stroke.length; i++) {
    var dx = stroke[i][0] - stroke[i - 1][0];
    var dy = stroke[i][1] - stroke[i - 1][1];
    var seg = Math.sqrt(dx * dx + dy * dy);
    // skip runs of near-identical points (data-dependent trip count)
    var j = i;
    while (j + 1 < stroke.length && seg < 1.5) {
      j++;
      dx = stroke[j][0] - stroke[i - 1][0];
      dy = stroke[j][1] - stroke[i - 1][1];
      seg = Math.sqrt(dx * dx + dy * dy);
    }
    i = j;
    len += seg;
    // shared accumulators: read-modify-write across iterations
    inkLength += seg;
    resultEl.setAttribute("data-progress", "" + ((len | 0) % 100));
  }
  return len;
}

addEventListener("pen", function (e) {
  stroke.push([e.x, e.y]);
});

addEventListener("penup", function (e) {
  var len = preprocess();
  strokeCount++;
  // the recognition itself happens server-side; the client only renders
  recognized = recognized + String.fromCharCode(97 + ((len | 0) % 26));
  resultEl.setText(recognized);
  stroke = [];
});
`
