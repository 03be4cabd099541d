package workloads

import "repro/internal/browser"

// NormalMap reproduces the 29a.ch normal-mapping experiment: one flat
// per-pixel loop re-lights a surface from a normal map every frame (the
// paper's 99%-of-loop-time, 64-instance, 65k-trip nest — very easy to
// break, easy to parallelize, only "little" divergence from edge clamps).
// Shading calls an interpreted helper per pixel, keeping the sampler
// call-dense: Active tracks compute with no anomaly.
func NormalMap(s Scale) *Workload {
	return &Workload{
		Name:        "Normal Mapping",
		Category:    "Games",
		Description: "normal mapping",
		Source:      normalmapSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			frames := s.N(16)
			for f := 0; f < frames; f++ {
				if _, err := w.PumpN(1); err != nil {
					return err
				}
			}
			return nil
		},
		PaperTotalS:            25,
		PaperActiveS:           6,
		PaperLoopsS:            4,
		ExpectComputeIntensive: true,
	}
}

const normalmapSrc = `
var MW = 64, MH = 64;
var normals = [];
var heights = [];
var out = [];
var lightT = 0;
var ctx = null;

function setup() {
  // synthesize a height field and its normals
  for (var y = 0; y < MH; y++) {
    for (var x = 0; x < MW; x++) {
      var h = Math.sin(x * 0.2) * Math.cos(y * 0.17) * 8;
      heights.push(h);
    }
  }
  for (var y = 0; y < MH; y++) {
    for (var x = 0; x < MW; x++) {
      var xl = x > 0 ? heights[y * MW + x - 1] : heights[y * MW + x];
      var xr = x < MW - 1 ? heights[y * MW + x + 1] : heights[y * MW + x];
      var yu = y > 0 ? heights[(y - 1) * MW + x] : heights[y * MW + x];
      var yd = y < MH - 1 ? heights[(y + 1) * MW + x] : heights[y * MW + x];
      var nx = xl - xr;
      var ny = yu - yd;
      var nz = 2;
      var il = 1 / Math.sqrt(nx * nx + ny * ny + nz * nz);
      normals.push([nx * il, ny * il, nz * il]);
    }
  }
  for (var i = 0; i < MW * MH * 4; i++) { out.push(0); }
  var cv = document.createElement("canvas");
  cv.setSize(MW, MH);
  document.body.appendChild(cv);
  ctx = cv.getContext("2d");
  requestAnimationFrame(frame);
}

// Per-pixel shading helper: an interpreted call per pixel. The clamp is
// branch-free (Math.max), leaving only local edge branches — the paper
// grades this nest's divergence "little".
function shade(n, lx, ly, lz) {
  return Math.max(0, n[0] * lx + n[1] * ly + n[2] * lz);
}

// The single hot nest: one flat loop over every pixel per frame.
function relight() {
  var lx = Math.cos(lightT), ly = Math.sin(lightT), lz = 0.8;
  var il = 1 / Math.sqrt(lx * lx + ly * ly + lz * lz);
  lx *= il; ly *= il; lz *= il;
  for (var i = 0; i < MW * MH; i++) {
    var d = shade(normals[i], lx, ly, lz);
    var spec = d * d;
    spec = spec * spec;
    var v = 30 + d * 170 + spec * 55;
    var idx = i * 4;
    out[idx] = v > 255 ? 255 : v | 0;
    out[idx + 1] = (v * 0.9) | 0;
    out[idx + 2] = (v * 0.7 + 20) | 0;
    out[idx + 3] = 255;
  }
}

function frame() {
  lightT += 0.15;
  relight();
  ctx.putImageData({ width: MW, height: MH, data: out }, 0, 0);
  requestAnimationFrame(frame);
}
`
