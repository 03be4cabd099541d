package workloads

// ExecKernels lists the ParallelArray-convertible hot loops of the
// Table 1 workloads (plus the Histogram control) for the case study's
// ModeExec: each kernel is the elemental-function form of a loop nest
// that ModeDeep grades "easy" to parallelize, so the speculative engine
// (internal/autopar, via rivertrail.ParallelArray) can execute it both
// ways and report *measured* speedup next to the Amdahl bound.
//
// Every elemental stays within the speculation contract on purpose:
// captures are scalars, flat primitive arrays and interpreted helpers;
// inputs and results are numbers. Apps whose hot loops carry real
// loop-order dependences (Ace's tokenizer state machine, Harmony's
// alpha-beta search, MyScript's stroke recognizer, the scripting-heavy
// sigma/Processing/D3 drivers) have no entry here — that absence *is*
// the §4.1 finding: not every hot loop converts.

// ExecKernel is one convertible hot loop in ParallelArray form.
type ExecKernel struct {
	// App is the Table 1 workload name (or "Histogram").
	App string
	// Loop names the hot loop the kernel mirrors (Table 3 rows).
	Loop string
	// Prelude defines the helpers and constants the elemental captures.
	Prelude string
	// Elemental is the `function (x, i) { ... }` source passed to mapPar.
	Elemental string
	// N is the full-scale element count (scaled by the active Scale).
	N int
	// Input generates input element i.
	Input func(i int) float64
}

// N applies the scale to a full-size element count.
func (s Scale) N(full int) int { return s.n(full) }

// KernelSource converts the elemental to internal/parallel Kernel form
// (`function kernel(i)`) for the scheduler benchmarks and tests. The
// elemental is called with a fixed x — the Input stream perturbs values
// only fractionally and is irrelevant to the cost *shape* the scheduler
// ladder measures.
func (ek ExecKernel) KernelSource() string {
	return ek.Prelude + "\nvar __elemental = " + ek.Elemental + ";\n" +
		"function kernel(i) { return __elemental(0, i); }\n"
}

// ExecKernels returns the convertible hot loops in Table 1 order.
func ExecKernels() []ExecKernel {
	return []ExecKernel{
		{
			App:  "HAAR.js",
			Loop: "evalStage window scan",
			Prelude: `
function haarLum(x, y) {
  return ((x * 211 + y * 17) % 256) * 0.299 + ((x * 31 + y * 97) % 256) * 0.587 + ((x * 7 + y * 139) % 256) * 0.114;
}`,
			Elemental: `function (x, i) {
  var wx = i % 40;
  var wy = (i - wx) / 40;
  var a = 0, b = 0;
  for (var r = 0; r < 6; r++) {
    for (var c = 0; c < 6; c++) {
      var l = haarLum(wx * 2 + c, wy * 2 + r);
      if (c < 3) { a += l; } else { b += l; }
    }
  }
  var resp = a - b + x;
  return resp > 0 ? resp : 0;
}`,
			N:     2048,
			Input: func(i int) float64 { return float64(i % 17) },
		},
		{
			App:  "Tear-able Cloth",
			Loop: "per-particle spring accumulation",
			Prelude: `
var DX = [1, 0, -1, 0];
var DY = [0, 1, 0, -1];
function springF(d, rest, k) { return (d - rest) * k; }`,
			Elemental: `function (x, i) {
  var px = i % 32;
  var py = (i - px) / 32;
  var fx = 0, fy = 0;
  for (var k = 0; k < 4; k++) {
    var nx = px + DX[k], ny = py + DY[k];
    var dx = (nx - px) + Math.sin(nx * 0.3 + x * 0.01) * 0.1;
    var dy = (ny - py) + Math.cos(ny * 0.3) * 0.1;
    var d = Math.sqrt(dx * dx + dy * dy);
    fx += springF(d, 1, 0.8) * dx / d;
    fy += springF(d, 1, 0.8) * dy / d + 0.02;
  }
  return fx * fx + fy * fy;
}`,
			N:     1024,
			Input: func(i int) float64 { return float64((i*7)%23) / 23 },
		},
		{
			App:  "CamanJS",
			Loop: "per-pixel brightness/contrast pass",
			Prelude: `
var BRIGHT = 12;
var CONTRAST = 1.18;
function clampByte(v) { return v < 0 ? 0 : (v > 255 ? 255 : v); }`,
			Elemental: `function (x, i) {
  var r = (x * 7 + i) % 256;
  var g = (x * 13 + i * 3) % 256;
  var b = (x * 29 + i * 7) % 256;
  r = clampByte((r - 128) * CONTRAST + 128 + BRIGHT);
  g = clampByte((g - 128) * CONTRAST + 128 + BRIGHT);
  b = clampByte((b - 128) * CONTRAST + 128 + BRIGHT);
  return (r * 65536 + g * 256 + b) | 0;
}`,
			N:     4096,
			Input: func(i int) float64 { return float64((i * 31) % 251) },
		},
		{
			App:  "fluidSim",
			Loop: "advection cell sampling",
			Prelude: `
var FW = 48;
function fieldAt(x, y) { return Math.sin(x * 0.37) * Math.cos(y * 0.23); }`,
			Elemental: `function (x, i) {
  var cx = i % FW;
  var cy = (i - cx) / FW;
  var vx = fieldAt(cx, cy), vy = fieldAt(cy, cx);
  var sx = cx - vx * 1.5, sy = cy - vy * 1.5;
  var i0 = Math.floor(sx), j0 = Math.floor(sy);
  var s1 = sx - i0, t1 = sy - j0;
  var d00 = fieldAt(i0, j0), d10 = fieldAt(i0 + 1, j0);
  var d01 = fieldAt(i0, j0 + 1), d11 = fieldAt(i0 + 1, j0 + 1);
  var adv = (1 - s1) * ((1 - t1) * d00 + t1 * d01) + s1 * ((1 - t1) * d10 + t1 * d11);
  return adv * (1 + x * 0.001);
}`,
			N:     2304,
			Input: func(i int) float64 { return float64(i % 13) },
		},
		{
			App:  "Realtime Raytracing",
			Loop: "primary-ray sphere intersection",
			Prelude: `
var RTW = 64, RTH = 48;
var SPX = [0, 2.2, -2.1];
var SPY = [0, 0.4, -0.3];
var SPZ = [6, 7.5, 5.2];
var SPR = [1.6, 1.1, 0.9];
var SPC = [255, 60, 60];`,
			Elemental: `function (x, i) {
  var px = i % RTW;
  var py = (i - px) / RTW;
  var dx = (px - RTW / 2) / RTW, dy = (py - RTH / 2) / RTW, dz = 1;
  var il = 1 / Math.sqrt(dx * dx + dy * dy + dz * dz);
  dx *= il; dy *= il; dz *= il;
  var bestT = 1e9, best = -1;
  for (var s = 0; s < 3; s++) {
    var cx = SPX[s], cy = SPY[s], cz = SPZ[s];
    var b = cx * dx + cy * dy + cz * dz;
    var det = b * b - (cx * cx + cy * cy + cz * cz) + SPR[s] * SPR[s];
    if (det > 0) {
      var tHit = b - Math.sqrt(det);
      if (tHit > 0.001 && tHit < bestT) { bestT = tHit; best = s; }
    }
  }
  if (best < 0) {
    var sky = 40 + dy * 80;
    return sky < 0 ? 0 : sky;
  }
  return SPC[best] * (1 - bestT / 20) + x * 0.001;
}`,
			N:     3072,
			Input: func(i int) float64 { return float64(i % 7) },
		},
		{
			App:  "Realtime Raytracing",
			Loop: "skewed adaptive supersampling",
			// The deliberately imbalanced variant: a single large sphere
			// sits in the upper-left of the frame, and only rays that hit
			// it pay a 48-sample supersampling loop — so per-element cost
			// is data-dependent and concentrated in the low-index corner.
			// A static even split pins that corner on one worker; the
			// work-stealing scheduler's shrinking tail chunks migrate it,
			// which is exactly what the BenchmarkSched ladder measures.
			Prelude: `
var SRW = 64, SRH = 48;
var SCX = -1.9, SCY = -1.4, SCZ = 5.0, SCR = 2.4;`,
			Elemental: `function (x, i) {
  var px = i % SRW;
  var py = (i - px) / SRW;
  var dx = (px - SRW / 2) / SRW, dy = (py - SRH / 2) / SRW, dz = 1;
  var il = 1 / Math.sqrt(dx * dx + dy * dy + dz * dz);
  dx *= il; dy *= il; dz *= il;
  var b = SCX * dx + SCY * dy + SCZ * dz;
  var det = b * b - (SCX * SCX + SCY * SCY + SCZ * SCZ) + SCR * SCR;
  if (det <= 0) {
    var sky = 8 + dy * 40;
    return sky < 0 ? 0 : sky;
  }
  var t = b - Math.sqrt(det);
  var acc = 0;
  for (var s = 0; s < 48; s++) {
    var jx = dx + Math.sin(s * 2.3 + px) * 0.002;
    var jy = dy + Math.cos(s * 1.7 + py) * 0.002;
    var jb = SCX * jx + SCY * jy + SCZ * dz;
    var jd = jb * jb - (SCX * SCX + SCY * SCY + SCZ * SCZ) + SCR * SCR;
    acc += jd > 0 ? (jb - Math.sqrt(jd)) : t;
  }
  return acc / 48 * 30 + x * 0.001;
}`,
			N:     3072,
			Input: func(i int) float64 { return float64(i % 7) },
		},
		{
			App:  "Normal Mapping",
			Loop: "relight per-pixel shading",
			Prelude: `
var NMW = 64;
var LX = 0.42, LY = 0.54, LZ = 0.72;
function heightAt(x, y) { return Math.sin(x * 0.2) * Math.cos(y * 0.17) * 8; }
function shadeN(nx, ny, nz, lx, ly, lz) { return Math.max(0, nx * lx + ny * ly + nz * lz); }`,
			Elemental: `function (x, i) {
  var px = i % NMW;
  var py = (i - px) / NMW;
  var nx = heightAt(px - 1, py) - heightAt(px + 1, py);
  var ny = heightAt(px, py - 1) - heightAt(px, py + 1);
  var nz = 2;
  var il = 1 / Math.sqrt(nx * nx + ny * ny + nz * nz);
  var d = shadeN(nx * il, ny * il, nz * il, LX, LY, LZ);
  var spec = d * d;
  spec = spec * spec;
  var v = 30 + d * 170 + spec * 55;
  return v > 255 ? 255 : v | 0;
}`,
			N:     3072,
			Input: func(i int) float64 { return float64(i % 5) },
		},
		{
			App:  "Histogram",
			Loop: "per-pixel luminance map",
			Prelude: `
function lum(r, g, b) { return (r * 2126 + g * 7152 + b * 722) / 10000 | 0; }`,
			Elemental: `function (x, i) {
  var px = i % 96;
  var py = (i - px) / 96;
  var r = (px * 211 + py * 17 + 24) % 256;
  var g = (px * 31 + py * 97 + 48) % 256;
  var b = (px * 7 + py * 139 + 96) % 256;
  return lum(r, g, b) + x * 0;
}`,
			N:     6144,
			Input: func(i int) float64 { return 0 },
		},
	}
}
