package workloads

import "repro/internal/browser"

// Processing reproduces the processing.js interactive spiral sketch: per
// frame, a long chain of *tiny* loops (vertex transform, color cycling,
// interpolation) — the paper's 54.6k-instance, 4±37-trip rows. The huge
// trip variance comes from an occasional long re-seed loop when the
// spiral wraps. One plotting nest touches the canvas (its Table 3 row is
// "very hard"); the arithmetic nests are easy/medium.
func Processing(s Scale) *Workload {
	return &Workload{
		Name:        "processing.js",
		Category:    "Visualization",
		Description: "interactive spiral visual effect",
		Source:      processingSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			frames := s.N(160)
			for f := 0; f < frames; f++ {
				if _, err := w.PumpN(1); err != nil {
					return err
				}
			}
			return nil
		},
		PaperTotalS:            21,
		PaperActiveS:           12,
		PaperLoopsS:            2,
		ExpectComputeIntensive: true,
	}
}

const processingSrc = `
var SEGS = 40;
var ARMS = 4;
var segX = [], segY = [], segHue = [];
var phase = 0;
var wraps = 0;
var ctx = null;

function setup() {
  for (var i = 0; i < SEGS * ARMS; i++) {
    segX.push(0); segY.push(0); segHue.push(0);
  }
  reseed(SEGS * ARMS);
  var cv = document.createElement("canvas");
  cv.setSize(160, 160);
  document.body.appendChild(cv);
  ctx = cv.getContext("2d");
  requestAnimationFrame(frame);
}

// Occasional long loop: re-seed the whole spiral when the phase wraps.
// This is what gives the nest its 4±37 trip distribution.
function reseed(n) {
  for (var i = 0; i < n; i++) {
    segHue[i] = (i * 17) % 255;
  }
}

// Per-segment transform: called per segment per frame, so the tiny
// arm loop racks up tens of thousands of instances with ~4 trips — the
// paper's 54.6k-instance rows. The occasional reseed gives the trip
// distribution its long tail (4±37).
function transformSegment(s) {
  var r = 4 + s * 1.7;
  for (var a = 0; a < ARMS; a++) {
    var ang = phase + s * 0.31 + a * (2 * Math.PI / ARMS);
    segX[a * SEGS + s] = 80 + Math.cos(ang) * r;
    segY[a * SEGS + s] = 80 + Math.sin(ang) * r;
  }
}

// Tiny color-cycling loop per segment.
function cycleColors(s) {
  for (var a = 0; a < ARMS; a++) {
    segHue[a * SEGS + s] = (segHue[a * SEGS + s] + 3) % 255;
  }
}

// Tiny interpolation loop per segment (smoothing between arms).
function smooth(s) {
  for (var a = 1; a < ARMS; a++) {
    var i = a * SEGS + s;
    var j = (a - 1) * SEGS + s;
    segX[i] = segX[i] * 0.9 + segX[j] * 0.1;
    segY[i] = segY[i] * 0.9 + segY[j] * 0.1;
  }
}

// Canvas plotting loop per segment: the "very hard" row (canvas access
// every iteration).
function plot(s) {
  for (var a = 0; a < ARMS; a++) {
    var i = a * SEGS + s;
    ctx.setFillStyle(segHue[i], 120, 255 - segHue[i]);
    ctx.fillRect(segX[i], segY[i], 2, 2);
  }
}

// Processing.js sketches drive per-segment draw() calls from the runtime,
// so the tiny loops above are each their own top-level nest (the four
// ~25/22/16/13% rows of Table 3) rather than children of one big loop.
var cursor = 0;
function stepSegment() {
  transformSegment(cursor);
  cycleColors(cursor);
  smooth(cursor);
  plot(cursor);
  cursor++;
  if (cursor >= SEGS) {
    cursor = 0;
    return true;
  }
  return stepSegment();
}

function frame() {
  phase += 0.05;
  if (phase > 2 * Math.PI) {
    phase -= 2 * Math.PI;
    wraps++;
    reseed(SEGS * ARMS); // the long-tail instance
  }
  stepSegment();
  requestAnimationFrame(frame);
}
`
