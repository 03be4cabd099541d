package workloads

import "repro/internal/browser"

// Cloth reproduces Tear-able Cloth: a Verlet-integration cloth simulation
// driven by requestAnimationFrame. The hot nest is the constraint
// relaxation loop (the paper's 80%-of-loop-time, 1077-instance,
// 1581-trip row): in-place point updates create breakable medium-grade
// dependences. Physics runs inline in one function per relaxation pass,
// so the Gecko-style sampler undercounts it (Active < In Loops in
// Table 2).
func Cloth(s Scale) *Workload {
	return &Workload{
		Name:        "Tear-able Cloth",
		Category:    "Games",
		Description: "cloth physics simulation (Verlet integration)",
		Source:      clothSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			frames := s.N(110)
			// The app renders continuously; occasionally the user tears the
			// cloth (mouse events).
			for f := 0; f < frames; f++ {
				if _, err := w.PumpN(1); err != nil {
					return err
				}
				if f%30 == 15 {
					if err := w.DispatchEvent("tear", event(w.In, map[string]float64{
						"x": float64(40 + f%80), "y": float64(20 + f%40)})); err != nil {
						return err
					}
				}
			}
			return nil
		},
		PaperTotalS:            14,
		PaperActiveS:           7,
		PaperLoopsS:            9,
		ExpectActiveBelowLoops: true,
		ExpectComputeIntensive: true,
	}
}

const clothSrc = `
var COLS = 20, ROWS = 16;
var SPACING = 6;
var GRAVITY = 0.24;
var px = [], py = [], ox = [], oy = [], pinned = [];
var c0 = [], c1 = [], rest = [], alive = [];
var tearX = -1, tearY = -1;

function setup() {
  for (var y = 0; y < ROWS; y++) {
    for (var x = 0; x < COLS; x++) {
      px.push(x * SPACING + 10);
      py.push(y * SPACING + 5);
      ox.push(x * SPACING + 10);
      oy.push(y * SPACING + 5);
      pinned.push(y === 0 && x % 4 === 0 ? 1 : 0);
    }
  }
  for (var y = 0; y < ROWS; y++) {
    for (var x = 0; x < COLS; x++) {
      var i = y * COLS + x;
      if (x > 0) { addConstraint(i, i - 1); }
      if (y > 0) { addConstraint(i, i - COLS); }
    }
  }
  var cv = document.createElement("canvas");
  cv.setSize(200, 160);
  document.body.appendChild(cv);
  ctx = cv.getContext("2d");
  requestAnimationFrame(frame);
}

var ctx = null;

function addConstraint(a, b) {
  c0.push(a);
  c1.push(b);
  rest.push(SPACING);
  alive.push(1);
}

// One relaxation pass, fully inline: a long stretch of call-free script —
// the function-granularity sampler sees almost none of it.
function relaxPass() {
  for (var i = 0; i < c0.length; i++) {
    if (!alive[i]) { continue; }
    var a = c0[i], b = c1[i];
    var dx = px[a] - px[b];
    var dy = py[a] - py[b];
    var dist = Math.sqrt(dx * dx + dy * dy);
    if (dist < 0.0001) { dist = 0.0001; }
    var diff = (rest[i] - dist) / dist * 0.5;
    var offX = dx * diff, offY = dy * diff;
    if (!pinned[a]) { px[a] += offX; py[a] += offY; }
    if (!pinned[b]) { px[b] -= offX; py[b] -= offY; }
    if (dist > rest[i] * 4) { alive[i] = 0; }
    if (tearX >= 0) {
      var tx = px[a] - tearX, ty = py[a] - tearY;
      if (tx * tx + ty * ty < 64) { alive[i] = 0; }
    }
  }
}

function integrate() {
  for (var i = 0; i < px.length; i++) {
    if (pinned[i]) { continue; }
    var nx = px[i] + (px[i] - ox[i]) * 0.98;
    var ny = py[i] + (py[i] - oy[i]) * 0.98 + GRAVITY;
    ox[i] = px[i];
    oy[i] = py[i];
    px[i] = nx;
    py[i] = ny;
  }
}

function draw() {
  ctx.clearRect(0, 0, 200, 160);
  ctx.setStrokeStyle(220, 220, 255);
  ctx.beginPath();
  var step = 7;
  for (var i = 0; i < c0.length; i += step) {
    if (!alive[i]) { continue; }
    ctx.moveTo(px[c0[i]], py[c0[i]]);
    ctx.lineTo(px[c1[i]], py[c1[i]]);
  }
  ctx.stroke();
}

function frame() {
  // three relaxation passes per frame (unrolled: each pass is one nest
  // instance, making the constraint loop the Table 3 nest root)
  relaxPass();
  relaxPass();
  relaxPass();
  integrate();
  draw();
  tearX = -1;
  requestAnimationFrame(frame);
}

addEventListener("tear", function (e) {
  tearX = e.x;
  tearY = e.y;
});
`
