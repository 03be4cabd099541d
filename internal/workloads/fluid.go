package workloads

import "repro/internal/browser"

// Fluid reproduces fluidSim: a Jos-Stam-style Navier–Stokes solver on a
// grid, animated per frame. The dominant nest is the linear-solver sweep
// (the paper's 90%-of-loop-time, 40k-instance, 168-trip row with no
// divergence). The Jacobi sweep writes one buffer while reading another,
// so the row loops are cleanly parallel (easy/easy); only the outer
// relaxation iterations chain sequentially.
func Fluid(s Scale) *Workload {
	return &Workload{
		Name:        "fluidSim",
		Category:    "Games",
		Description: "fluid dynamics simulation (Navier-Stokes)",
		Source:      fluidSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			frames := s.N(28)
			for f := 0; f < frames; f++ {
				if f%6 == 0 {
					if err := w.DispatchEvent("stir", event(w.In, map[string]float64{
						"x": float64(4 + f%20), "y": float64(6 + f%14)})); err != nil {
						return err
					}
				}
				if _, err := w.PumpN(1); err != nil {
					return err
				}
			}
			return nil
		},
		PaperTotalS:            22,
		PaperActiveS:           17,
		PaperLoopsS:            12,
		ExpectComputeIntensive: true,
	}
}

const fluidSrc = `
var N = 26;
var SZ = (N + 2) * (N + 2);
var u = [], v = [], uPrev = [], vPrev = [], dens = [], densPrev = [], pScratch = [];
var ctx = null;

function IX(i, j) { return i + (N + 2) * j; }

function setup() {
  for (var i = 0; i < SZ; i++) {
    u.push(0); v.push(0); uPrev.push(0); vPrev.push(0); dens.push(0); densPrev.push(0); pScratch.push(0);
  }
  var cv = document.createElement("canvas");
  cv.setSize(N + 2, N + 2);
  document.body.appendChild(cv);
  ctx = cv.getContext("2d");
  requestAnimationFrame(frame);
}

// Jacobi relaxation: the outer k loop is sequential, but each sweep reads
// one buffer and writes the other - the inner row loops are the paper's
// parallelizable nest.
function linSolve(to, from, src, a, c) {
  for (var k = 0; k < 8; k++) {
    for (var j = 1; j <= N; j++) {
      for (var i = 1; i <= N; i++) {
        to[IX(i, j)] = (src[IX(i, j)] + a * (from[IX(i - 1, j)] + from[IX(i + 1, j)] + from[IX(i, j - 1)] + from[IX(i, j + 1)])) / c;
      }
    }
    var tmp = from;
    from = to;
    to = tmp;
  }
  return from;
}

function addSource(x, s, dt) {
  for (var i = 0; i < SZ; i++) {
    x[i] += dt * s[i];
  }
}

function diffuse(x, x0, diff, dt) {
  var a = dt * diff * N * N;
  return linSolve(x, x0, x0, a, 1 + 4 * a);
}

function advect(d, d0, uu, vv, dt) {
  var dt0 = dt * N;
  for (var j = 1; j <= N; j++) {
    for (var i = 1; i <= N; i++) {
      var x = i - dt0 * uu[IX(i, j)];
      var y = j - dt0 * vv[IX(i, j)];
      if (x < 0.5) { x = 0.5; }
      if (x > N + 0.5) { x = N + 0.5; }
      if (y < 0.5) { y = 0.5; }
      if (y > N + 0.5) { y = N + 0.5; }
      var i0 = x | 0, i1 = i0 + 1;
      var j0 = y | 0, j1 = j0 + 1;
      var s1 = x - i0, s0 = 1 - s1;
      var t1 = y - j0, t0 = 1 - t1;
      d[IX(i, j)] = s0 * (t0 * d0[IX(i0, j0)] + t1 * d0[IX(i0, j1)]) + s1 * (t0 * d0[IX(i1, j0)] + t1 * d0[IX(i1, j1)]);
    }
  }
}

function project(uu, vv, p, div) {
  for (var j = 1; j <= N; j++) {
    for (var i = 1; i <= N; i++) {
      div[IX(i, j)] = -0.5 * (uu[IX(i + 1, j)] - uu[IX(i - 1, j)] + vv[IX(i, j + 1)] - vv[IX(i, j - 1)]) / N;
      p[IX(i, j)] = 0;
    }
  }
  p = linSolve(pScratch, p, div, 1, 4);
  for (var j = 1; j <= N; j++) {
    for (var i = 1; i <= N; i++) {
      uu[IX(i, j)] -= 0.5 * N * (p[IX(i + 1, j)] - p[IX(i - 1, j)]);
      vv[IX(i, j)] -= 0.5 * N * (p[IX(i, j + 1)] - p[IX(i, j - 1)]);
    }
  }
}

function velStep(dt) {
  addSource(u, uPrev, dt);
  addSource(v, vPrev, dt);
  advect(uPrev, u, u, v, dt);
  advect(vPrev, v, u, v, dt);
  var tmp;
  tmp = u; u = uPrev; uPrev = tmp;
  tmp = v; v = vPrev; vPrev = tmp;
  project(u, v, uPrev, vPrev);
}

function densStep(dt) {
  addSource(dens, densPrev, dt);
  advect(densPrev, dens, u, v, dt);
  var tmp = dens; dens = densPrev; densPrev = tmp;
  diffuse(dens, densPrev, 0.0002, dt);
}

function decaySources() {
  for (var i = 0; i < SZ; i++) {
    uPrev[i] *= 0.6;
    vPrev[i] *= 0.6;
    densPrev[i] *= 0.6;
  }
}

function render() {
  for (var j = 1; j <= N; j += 4) {
    for (var i = 1; i <= N; i += 4) {
      var d = dens[IX(i, j)];
      if (d > 255) { d = 255; }
      ctx.setFillStyle(d, d, d);
      ctx.fillRect(i, j, 4, 4);
    }
  }
}

function frame() {
  velStep(0.1);
  densStep(0.1);
  decaySources();
  render();
  requestAnimationFrame(frame);
}

addEventListener("stir", function (e) {
  var i = e.x | 0, j = e.y | 0;
  if (i < 1) { i = 1; }
  if (j < 1) { j = 1; }
  if (i > N) { i = N; }
  if (j > N) { j = N; }
  uPrev[IX(i, j)] += 40;
  vPrev[IX(i, j)] += 28;
  densPrev[IX(i, j)] += 300;
});
`
