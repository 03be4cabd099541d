package workloads

import "repro/internal/browser"

// Caman reproduces CamanJS: an image-manipulation library whose filters
// run a per-pixel callback over ImageData (the paper's 72%-of-loop-time,
// 90k-trip nest). Writes are perfectly disjoint per pixel — the
// "well-defined pattern that allows parallelism" of §4.1 — so the nest
// classifies easy/easy. The per-pixel interpreted callback keeps the
// sampler call-dense: no Active-vs-loops anomaly here.
func Caman(s Scale) *Workload {
	return &Workload{
		Name:        "CamanJS",
		Category:    "Audio and Video",
		Description: "image manipulation library",
		Source:      camanSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			w.IdleFor(1200 * msVirtual)
			passes := s.N(10)
			for i := 0; i < passes; i++ {
				if err := w.DispatchEvent("applyFilters", event(w.In, map[string]float64{"pass": float64(i)})); err != nil {
					return err
				}
				w.IdleFor(300 * msVirtual)
			}
			return nil
		},
		PaperTotalS:            40,
		PaperActiveS:           23,
		PaperLoopsS:            17,
		ExpectComputeIntensive: true,
	}
}

const camanSrc = `
var CW = 72, CH = 56;
var ctx = null;
var imageData = null;

function setup() {
  var cv = document.createElement("canvas");
  cv.setSize(CW, CH);
  document.body.appendChild(cv);
  ctx = cv.getContext("2d");
  // paint a gradient test card
  ctx.setFillStyle(40, 90, 160);
  ctx.fillRect(0, 0, CW, CH);
  ctx.setFillStyle(200, 120, 40);
  ctx.fillRect(8, 8, CW - 16, CH - 16);
  imageData = ctx.getImageData(0, 0, CW, CH);
}

// The CamanJS core: iterate every pixel, apply the callback. This is the
// main Table 3 nest (one instance per filter application).
function processPixels(data, fn) {
  for (var i = 0; i < data.length; i += 4) {
    var out = fn(data[i], data[i + 1], data[i + 2]);
    data[i] = out[0];
    data[i + 1] = out[1];
    data[i + 2] = out[2];
  }
}

function clampByte(v) {
  if (v < 0) { return 0; }
  if (v > 255) { return 255; }
  return v | 0;
}

function brightness(amount) {
  processPixels(imageData.data, function (r, g, b) {
    return [clampByte(r + amount), clampByte(g + amount), clampByte(b + amount)];
  });
}

function contrast(amount) {
  var f = (259 * (amount + 255)) / (255 * (259 - amount));
  processPixels(imageData.data, function (r, g, b) {
    return [clampByte(f * (r - 128) + 128), clampByte(f * (g - 128) + 128), clampByte(f * (b - 128) + 128)];
  });
}

function saturation(amount) {
  processPixels(imageData.data, function (r, g, b) {
    var avg = (r + g + b) / 3;
    return [clampByte(avg + (r - avg) * amount), clampByte(avg + (g - avg) * amount), clampByte(avg + (b - avg) * amount)];
  });
}

// Vignette: distance falloff — the second Table 3 nest (explicit x/y).
function vignette() {
  var data = imageData.data;
  var cx = CW / 2, cy = CH / 2;
  var maxD = Math.sqrt(cx * cx + cy * cy);
  for (var y = 0; y < CH; y++) {
    for (var x = 0; x < CW; x++) {
      var dx = x - cx, dy = y - cy;
      var d = Math.sqrt(dx * dx + dy * dy) / maxD;
      var f = 1 - d * d * 0.6;
      var i = (y * CW + x) * 4;
      data[i] = clampByte(data[i] * f);
      data[i + 1] = clampByte(data[i + 1] * f);
      data[i + 2] = clampByte(data[i + 2] * f);
    }
  }
}

// Box blur: neighbourhood reads — the third nest, reading a snapshot so
// writes stay disjoint.
function boxBlur() {
  var data = imageData.data;
  var src = [];
  for (var i = 0; i < data.length; i++) { src.push(data[i]); }
  for (var y = 1; y < CH - 1; y++) {
    for (var x = 1; x < CW - 1; x++) {
      var i = (y * CW + x) * 4;
      for (var ch = 0; ch < 3; ch++) {
        var sum = 0;
        sum += src[i + ch - 4] + src[i + ch + 4];
        sum += src[i + ch - CW * 4] + src[i + ch + CW * 4];
        sum += src[i + ch];
        data[i + ch] = clampByte(sum / 5);
      }
    }
  }
}

addEventListener("applyFilters", function (e) {
  brightness(10);
  contrast(20);
  saturation(0.8);
  vignette();
  boxBlur();
  ctx.putImageData(imageData, 0, 0);
});
`
