package workloads

import "repro/internal/browser"

// Raytrace reproduces the real-time raytracing demo: per frame, every
// pixel shoots a ray through a small sphere scene with data-dependent
// reflection bounces (the paper's "variable depth recursion" → divergence
// yes). Pixel writes are perfectly disjoint — the only nest rated "very
// easy" to break — and the whole row renders inline in one function, so
// the function-granularity sampler undercounts it (Active < In Loops).
func Raytrace(s Scale) *Workload {
	return &Workload{
		Name:        "Realtime Raytracing",
		Category:    "Games",
		Description: "real-time raytracing demo",
		Source:      raytraceSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			frames := s.N(20)
			for f := 0; f < frames; f++ {
				if _, err := w.PumpN(1); err != nil {
					return err
				}
			}
			return nil
		},
		PaperTotalS:            62,
		PaperActiveS:           19,
		PaperLoopsS:            26,
		ExpectActiveBelowLoops: true,
		ExpectComputeIntensive: true,
	}
}

const raytraceSrc = `
var RW = 64, RH = 40;
var pixels = [];
var spheres = [];
var t = 0;
var ctx = null;

function setup() {
  for (var i = 0; i < RW * RH * 4; i++) { pixels.push(0); }
  spheres.push({ x: 0, y: 0, z: 6, r: 1.6, cr: 255, cg: 60, cb: 60, refl: 0.7 });
  spheres.push({ x: 2.2, y: 0.4, z: 7.5, r: 1.1, cr: 60, cg: 255, cb: 60, refl: 0.5 });
  spheres.push({ x: -2.1, y: -0.3, z: 5.2, r: 0.9, cr: 60, cg: 60, cb: 255, refl: 0.0 });
  var cv = document.createElement("canvas");
  cv.setSize(RW, RH);
  document.body.appendChild(cv);
  ctx = cv.getContext("2d");
  requestAnimationFrame(frame);
}

// Render one scanline fully inline: ray setup, sphere intersection,
// shading and the bounce loop all live in this single function body. The
// only calls are JIT-inlined Math intrinsics, so a sampling profiler sees
// one long opaque stretch per row.
function renderRow(y) {
  for (var x = 0; x < RW; x++) {
    var ox = 0, oy = 0, oz = 0;
    var dx = (x - RW / 2) / RW;
    var dy = (y - RH / 2) / RW;
    var dz = 1;
    var ilen = 1 / Math.sqrt(dx * dx + dy * dy + dz * dz);
    dx *= ilen; dy *= ilen; dz *= ilen;
    var cr = 0, cg = 0, cb = 0;
    var weight = 1;
    var depth = 0;
    var alive = true;
    while (alive && depth < 6) {
      depth++;
      var bestT = 1e9;
      var best = -1;
      for (var s = 0; s < spheres.length; s++) {
        var sp = spheres[s];
        var cx = sp.x - ox, cy = sp.y - oy, cz = sp.z - oz;
        var b = cx * dx + cy * dy + cz * dz;
        var det = b * b - (cx * cx + cy * cy + cz * cz) + sp.r * sp.r;
        if (det > 0) {
          var tHit = b - Math.sqrt(det);
          if (tHit > 0.001 && tHit < bestT) {
            bestT = tHit;
            best = s;
          }
        }
      }
      if (best < 0) {
        // sky gradient
        var sky = 40 + dy * 80;
        if (sky < 0) { sky = 0; }
        cr += weight * sky;
        cg += weight * (sky + 20);
        cb += weight * (sky + 60);
        alive = false;
      } else {
        var sp2 = spheres[best];
        var hx = ox + dx * bestT, hy = oy + dy * bestT, hz = oz + dz * bestT;
        var nx = (hx - sp2.x) / sp2.r, ny = (hy - sp2.y) / sp2.r, nz = (hz - sp2.z) / sp2.r;
        var light = nx * 0.5 - ny * 0.7 + nz * -0.5;
        if (light < 0.05) { light = 0.05; }
        var local = 1 - sp2.refl;
        cr += weight * local * sp2.cr * light;
        cg += weight * local * sp2.cg * light;
        cb += weight * local * sp2.cb * light;
        if (sp2.refl > 0.01) {
          // reflect and keep tracing: data-dependent bounce depth
          var dot = dx * nx + dy * ny + dz * nz;
          dx -= 2 * dot * nx;
          dy -= 2 * dot * ny;
          dz -= 2 * dot * nz;
          ox = hx + dx * 0.001;
          oy = hy + dy * 0.001;
          oz = hz + dz * 0.001;
          weight *= sp2.refl;
        } else {
          alive = false;
        }
      }
    }
    var idx = (y * RW + x) * 4;
    pixels[idx] = cr > 255 ? 255 : cr | 0;
    pixels[idx + 1] = cg > 255 ? 255 : cg | 0;
    pixels[idx + 2] = cb > 255 ? 255 : cb | 0;
    pixels[idx + 3] = 255;
  }
}

function frame() {
  // animate the scene
  t += 0.1;
  spheres[0].x = Math.sin(t) * 1.5;
  spheres[1].z = 7.5 + Math.cos(t) * 1.2;
  for (var y = 0; y < RH; y++) {
    renderRow(y);
  }
  blit();
  requestAnimationFrame(frame);
}

function blit() {
  var img = { width: RW, height: RH, data: pixels };
  ctx.putImageData(img, 0, 0);
}
`
