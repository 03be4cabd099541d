package workloads

import "repro/internal/browser"

// HAAR reproduces HAAR.js: Viola–Jones face detection. The computation is
// dominated by a recursive cascade evaluation (call-dense, little loop
// time — Table 2 shows Active 2s but only 0.44s in loops), with two loop
// nests: the integral-image construction and the per-window Haar-feature
// rectangle sums (the paper's 50k-instance, 15±15-trip nest whose
// tree-search recursion makes iterations uneven).
func HAAR(s Scale) *Workload {
	return &Workload{
		Name:        "HAAR.js",
		Category:    "User recognition",
		Description: "face recognition (Viola-Jones)",
		Source:      haarSrc,
		Drive: func(w *browser.Window) error {
			in := w.In
			// Page load: resources arrive, user picks an image.
			w.IdleFor(1200 * msVirtual)
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			w.IdleFor(600 * msVirtual)
			runs := s.N(2)
			for i := 0; i < runs; i++ {
				if err := w.DispatchEvent("detect", event(in, map[string]float64{"run": float64(i)})); err != nil {
					return err
				}
				w.IdleFor(700 * msVirtual)
			}
			return nil
		},
		PaperTotalS:            8,
		PaperActiveS:           2,
		PaperLoopsS:            0.44,
		ExpectComputeIntensive: true,
	}
}

const haarSrc = `
var W = 48, H = 48;
var img = [];
var integral = [];
var trees = [];
var found = 0;

function setup() {
  initImage();
  buildCascade();
}

function initImage() {
  var i;
  for (i = 0; i < W * H; i++) {
    img.push(((i * 7919 + 131) % 256));
  }
}

// Integral image: the first loop nest of Table 3 (row-major prefix sums).
function computeIntegral() {
  integral = new Array((W + 1) * (H + 1));
  for (var y = 0; y <= H; y++) { integral[y * (W + 1)] = 0; }
  for (var x = 0; x <= W; x++) { integral[x] = 0; }
  for (var y = 1; y <= H; y++) {
    var rowSum = 0;
    for (var x = 1; x <= W; x++) {
      rowSum += img[(y - 1) * W + (x - 1)];
      integral[y * (W + 1) + x] = integral[(y - 1) * (W + 1) + x] + rowSum;
    }
  }
}

function rectSum(x0, y0, x1, y1) {
  var s = W + 1;
  return integral[y1 * s + x1] - integral[y0 * s + x1] - integral[y1 * s + x0] + integral[y0 * s + x0];
}

// A small random forest of depth-limited decision trees over Haar-like
// rectangle features; evaluation recurses data-dependently (the paper's
// "recursive search through a tree which makes the iterations uneven").
function makeNode(depth, seed) {
  var node = {};
  if (depth === 0) {
    node.leaf = true;
    node.val = (seed % 7) - 3;
    node.val2 = seed % 29;
    node.rich = seed % 4 === 0;
    return node;
  }
  node.leaf = false;
  node.rx = seed % 8;
  node.ry = (seed * 3) % 8;
  node.rw = 2 + seed % 6;
  node.rh = 2 + (seed * 5) % 6;
  node.thr = 120 * node.rw * node.rh;
  // data-dependent early termination: some branches are shallow
  var leftDepth = depth - 1;
  if (seed % 3 === 0) { leftDepth = 0; }
  node.left = makeNode(leftDepth, seed * 2 + 1);
  node.right = makeNode(depth - 1, seed * 2 + 2);
  return node;
}

function buildCascade() {
  for (var t = 0; t < 24; t++) {
    trees.push(makeNode(5, t + 7));
  }
}

// Interior nodes compute a three-rectangle Haar feature inline (no loop:
// the cascade is a call tree, which is why HAAR's Active time dwarfs its
// loop time in Table 2). Rich leaves refine their response with a short
// sub-rectangle loop — the paper's many-instance, ~15-trip nest whose
// enclosing tree recursion makes iterations uneven.
function evalNode(node, wx, wy) {
  if (node.leaf) {
    if (node.rich) {
      return refineLeaf(node, wx, wy);
    }
    return node.val;
  }
  var x0 = wx + node.rx;
  var y0 = wy + node.ry;
  var a = rectSum(x0, y0, x0 + node.rw, y0 + node.rh);
  var b = rectSum(x0, y0 + node.rh, x0 + node.rw, y0 + 2 * node.rh);
  var c = rectSum(x0 + node.rw, y0, x0 + 2 * node.rw, y0 + node.rh);
  var f = 2 * a - b - c;
  if (f < node.thr) {
    return evalNode(node.left, wx, wy);
  }
  return evalNode(node.right, wx, wy);
}

// Leaf refinement: the second Table 3 nest (sub-rectangle sums, ~15
// trips, data-dependent saturation branch).
function refineLeaf(node, wx, wy) {
  var acc = 0;
  var n = 8 + (node.val2 % 14);
  for (var r = 0; r < n; r++) {
    var x0 = wx + ((node.val2 + r) % 10);
    var y0 = wy + ((node.val2 + r * 2) % 10);
    acc += rectSum(x0, y0, x0 + 3, y0 + 3);
    if (acc > 90000) {
      acc = acc - 60000;
    }
  }
  return node.val + (acc % 5) - 2;
}

// Recursive window sweep over positions (call tree, not a loop).
function scanRegion(x0, y0, x1, y1) {
  if (x1 - x0 < 8 || y1 - y0 < 8) {
    var score = 0;
    score = evalTrees(0, score, x0, y0);
    if (score > 2) {
      found++;
    }
    return;
  }
  var mx = (x0 + x1) >> 1;
  var my = (y0 + y1) >> 1;
  scanRegion(x0, y0, mx, my);
  scanRegion(mx, y0, x1, my);
  scanRegion(x0, my, mx, my + (y1 - my));
  scanRegion(mx, my, x1, y1);
}

// The forest is evaluated by recursive chaining — HAAR.js's cascade
// stages short-circuit, so iteration-style loops do not fit here.
function evalTrees(t, score, wx, wy) {
  if (t >= trees.length) {
    return score;
  }
  score += evalNode(trees[t], wx, wy);
  if (score < -40) {
    return score; // cascade early reject
  }
  return evalTrees(t + 1, score, wx, wy);
}

addEventListener("detect", function (e) {
  computeIntegral();
  found = 0;
  scanRegion(0, 0, W - 16, H - 16);
  console.log("faces:", found);
});
`
