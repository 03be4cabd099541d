package workloads

import "repro/internal/browser"

// D3 reproduces the D3.js interactive azimuthal projection map: rotating
// the globe re-projects every geographic feature and rewrites its DOM
// path. Clipping against the horizon makes control flow diverge
// (Table 3: divergence yes); accumulated projection state (bounds,
// adaptive resampling budget) creates hard-to-break dependences; the DOM
// write per feature pins parallelization difficulty at "hard".
func D3(s Scale) *Workload {
	return &Workload{
		Name:        "D3.js",
		Category:    "Visualization",
		Description: "interactive azimuthal projection map",
		Source:      d3Src,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			w.IdleFor(2000 * msVirtual)
			drags := s.N(16)
			for i := 0; i < drags; i++ {
				if err := w.DispatchEvent("rotate", event(w.In, map[string]float64{
					"dLon": 0.15, "dLat": 0.05})); err != nil {
					return err
				}
				w.IdleFor(700 * msVirtual)
			}
			return nil
		},
		PaperTotalS:            18,
		PaperActiveS:           5,
		PaperLoopsS:            4,
		ExpectComputeIntensive: true,
	}
}

const d3Src = `
var FEATURES = 42;
var features = [];   // each: list of [lon, lat] rings
var pathEls = [];
var rotLon = 0, rotLat = 0;
var svg = null;
var boundsMinX = 0, boundsMaxX = 0, boundsMinY = 0, boundsMaxY = 0;
var resampleBudget = 4000;

// d3.geo-style projection function: one interpreted call per point.
function projectPoint(lonDeg, latDeg, cosLat, sinLat) {
  var lon = lonDeg * 0.017453 + rotLon;
  var lat = latDeg * 0.017453;
  var cosc = sinLat * Math.sin(lat) + cosLat * Math.cos(lat) * Math.cos(lon);
  var x = 80 + 70 * Math.cos(lat) * Math.sin(lon);
  var y = 80 - 70 * (cosLat * Math.sin(lat) - sinLat * Math.cos(lat) * Math.cos(lon));
  return [x, y, cosc];
}

function setup() {
  svg = document.createElement("svg");
  document.body.appendChild(svg);
  for (var f = 0; f < FEATURES; f++) {
    var pts = [];
    var n = 40 + ((f * 37) % 120); // 40..159 points per feature (156±57-ish)
    var lon0 = (f * 59) % 360 - 180;
    var lat0 = (f * 31) % 140 - 70;
    for (var i = 0; i < n; i++) {
      pts.push([lon0 + Math.sin(i * 0.3) * 14, lat0 + Math.cos(i * 0.23) * 9]);
    }
    features.push(pts);
    var el = document.createElement("path");
    svg.appendChild(el);
    pathEls.push(el);
  }
}

// Re-project every feature: the paper's single dominant nest (99% of loop
// time, 156±57 trips on the point loop). Horizon clipping branches are
// data-dependent; the bounds/budget accumulators chain iterations
// together; each feature writes its DOM path.
function reproject() {
  boundsMinX = 1e9; boundsMaxX = -1e9; boundsMinY = 1e9; boundsMaxY = -1e9;
  resampleBudget = 4000;
  var cosLat = Math.cos(rotLat), sinLat = Math.sin(rotLat);
  for (var f = 0; f < features.length; f++) {
    var pts = features[f];
    var d = "";
    var pen = 0; // 0 = up, 1 = down
    for (var i = 0; i < pts.length; i++) {
      var pr = projectPoint(pts[i][0], pts[i][1], cosLat, sinLat);
      if (pr[2] < 0) {
        pen = 0; // behind the horizon: clip (divergent branch)
        continue;
      }
      var x = pr[0];
      var y = pr[1];
      // adaptive resampling: consume shared budget (flow dependence)
      if (resampleBudget > 0) {
        resampleBudget--;
        if (pen === 1) {
          d = d + "L" + (x | 0) + "," + (y | 0);
        } else {
          d = d + "M" + (x | 0) + "," + (y | 0);
          pen = 1;
        }
      }
      // shared bounds accumulators (read-modify-write)
      if (x < boundsMinX) { boundsMinX = x; }
      if (x > boundsMaxX) { boundsMaxX = x; }
      if (y < boundsMinY) { boundsMinY = y; }
      if (y > boundsMaxY) { boundsMaxY = y; }
    }
    pathEls[f].setAttribute("d", d);
  }
  svg.setAttribute("viewBox", (boundsMinX | 0) + " " + (boundsMinY | 0) + " " + ((boundsMaxX - boundsMinX) | 0) + " " + ((boundsMaxY - boundsMinY) | 0));
}

addEventListener("rotate", function (e) {
  rotLon += e.dLon;
  rotLat += e.dLat;
  reproject();
});
`
