package workloads

import "repro/internal/browser"

// Harmony reproduces Mr.doob's Harmony drawing application: brush strokes
// connect nearby points with canvas lines. The app is almost entirely
// idle between user events (Table 2: Active 0.36s of 41s total); its
// three loop nests draw through the canvas on every iteration, which is
// what makes them "very hard" to parallelize despite easy dependences.
func Harmony(s Scale) *Workload {
	return &Workload{
		Name:        "Harmony",
		Category:    "Audio and Video",
		Description: "drawing application",
		Source:      harmonySrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			w.IdleFor(3000 * msVirtual)
			strokes := s.N(36)
			for i := 0; i < strokes; i++ {
				x := float64(20 + (i*13)%160)
				y := float64(20 + (i*29)%120)
				if err := w.DispatchEvent("draw", event(w.In, map[string]float64{"x": x, "y": y})); err != nil {
					return err
				}
				// user moves the pen: ~1s between sampled positions
				w.IdleFor(1000 * msVirtual)
			}
			return nil
		},
		PaperTotalS:  41,
		PaperActiveS: 0.36,
		PaperLoopsS:  0.28,
	}
}

const harmonySrc = `
var points = [];
var ctx = null;
var BRUSH = 24;

function setup() {
  var cv = document.createElement("canvas");
  cv.setSize(200, 160);
  document.body.appendChild(cv);
  ctx = cv.getContext("2d");
  ctx.setStrokeStyle(30, 30, 30);
}

// Nest 1: sweep the recent neighbourhood, connecting every point — canvas
// access on each iteration (no data-dependent branches: divergence none).
function sketchConnections(x, y) {
  var start = points.length - BRUSH;
  if (start < 0) { start = 0; }
  for (var i = start; i < points.length; i++) {
    var p = points[i];
    ctx.beginPath();
    ctx.moveTo(x, y);
    ctx.lineTo(p[0], p[1]);
    ctx.stroke();
  }
}

// Nest 2: fur shading — short offset strokes around the new point.
function furShading(x, y) {
  for (var i = 0; i < BRUSH; i++) {
    var a = (i * 2 * Math.PI) / BRUSH;
    var dx = Math.cos(a) * 4;
    var dy = Math.sin(a) * 4;
    ctx.beginPath();
    ctx.moveTo(x - dx, y - dy);
    ctx.lineTo(x + dx, y + dy);
    ctx.stroke();
  }
}

// Nest 3: pressure smudge — short rectangles fading out.
function smudge(x, y) {
  for (var i = 0; i < BRUSH / 2; i++) {
    ctx.setFillStyle(40 + i * 8, 40 + i * 8, 40 + i * 8);
    ctx.fillRect(x + i, y + i, 2, 2);
  }
}

addEventListener("draw", function (e) {
  points.push([e.x, e.y]);
  sketchConnections(e.x, e.y);
  furShading(e.x, e.y);
  smudge(e.x, e.y);
});
`
