package workloads

import "repro/internal/browser"

// Histogram is not one of the Table 1 apps: it is a reduce-shaped control
// added to exercise the full River Trail primitive set of §5.1. Its
// kernels are the canonical shapes the primitives cover — a per-pixel
// luminance map, a binned histogram reduction, a scalar energy
// reduction, a CDF prefix scan, and a bright-pixel filter — with the
// scalar/array loop-carried dependences that make the nests "breakable
// with modest effort" rather than trivially independent (§4.1's
// reduction discussion).
func Histogram(s Scale) *Workload {
	return &Workload{
		Name:        "Histogram",
		Category:    "Baseline",
		Description: "image histogram + CDF (reduce/scan/filter-shaped control)",
		Source:      histogramSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			w.IdleFor(400 * msVirtual)
			passes := s.N(8)
			for i := 0; i < passes; i++ {
				if err := w.DispatchEvent("analyze", event(w.In, map[string]float64{"pass": float64(i)})); err != nil {
					return err
				}
				w.IdleFor(200 * msVirtual)
			}
			return nil
		},
		PaperTotalS: 0, PaperActiveS: 0, PaperLoopsS: 0,
	}
}

const histogramSrc = `
var HW = 96, HH = 64;
var ctx = null;
var imageData = null;
var histogram = [];
var cdf = [];
var totalEnergy = 0;
var brightCount = 0;

function setup() {
  var cv = document.createElement("canvas");
  cv.setSize(HW, HH);
  document.body.appendChild(cv);
  ctx = cv.getContext("2d");
  // procedural test card: nested gradient blocks
  ctx.setFillStyle(24, 48, 96);
  ctx.fillRect(0, 0, HW, HH);
  ctx.setFillStyle(180, 140, 60);
  ctx.fillRect(6, 6, HW - 12, HH - 12);
  ctx.setFillStyle(230, 230, 210);
  ctx.fillRect(HW / 4, HH / 4, HW / 2, HH / 2);
  imageData = ctx.getImageData(0, 0, HW, HH);
}

function luminance(r, g, b) {
  return (r * 2126 + g * 7152 + b * 722) / 10000 | 0;
}

// Binned reduction: the histogram bins carry an indexed loop dependence
// (hist[bin]++) — parallelizable with per-worker private bins + merge.
function buildHistogram() {
  var data = imageData.data;
  histogram = [];
  for (var b = 0; b < 256; b++) { histogram.push(0); }
  for (var i = 0; i < data.length; i += 4) {
    var lum = luminance(data[i], data[i + 1], data[i + 2]);
    histogram[lum] = histogram[lum] + 1;
  }
}

// Scalar reduction: the classic sum loop (breaking deps: easy).
function sumEnergy() {
  var data = imageData.data;
  var total = 0;
  for (var i = 0; i < data.length; i += 4) {
    total += luminance(data[i], data[i + 1], data[i + 2]);
  }
  totalEnergy = total;
}

// Prefix scan: cdf[b] depends on cdf[b-1] — the scan primitive's shape.
function buildCDF() {
  cdf = [];
  var run = 0;
  for (var b = 0; b < 256; b++) {
    run += histogram[b];
    cdf.push(run);
  }
}

// Filter: count (and equalize) bright pixels against the CDF.
function equalizeBright() {
  var data = imageData.data;
  var n = HW * HH;
  brightCount = 0;
  for (var i = 0; i < data.length; i += 4) {
    var lum = luminance(data[i], data[i + 1], data[i + 2]);
    if (lum >= 128) {
      brightCount++;
      var scaled = (cdf[lum] * 255 / n) | 0;
      data[i] = scaled;
      data[i + 1] = scaled;
      data[i + 2] = scaled;
    }
  }
}

addEventListener("analyze", function (e) {
  buildHistogram();
  sumEnergy();
  buildCDF();
  equalizeBright();
  ctx.putImageData(imageData, 0, 0);
});
`
