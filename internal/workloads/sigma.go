package workloads

import "repro/internal/browser"

// Sigma reproduces sigma.js rendering a GEXF graph: force-directed layout
// updating node positions in place (later iterations read positions
// earlier iterations just wrote — flow dependences that make the nest
// "very hard"), with DOM updates inside the loops. Table 3 lists two
// nests: the layout sweep (68%, 191±27 trips) and the edge pass (22%).
func Sigma(s Scale) *Workload {
	return &Workload{
		Name:        "sigma.js",
		Category:    "Visualization",
		Description: "GEXF rendering",
		Source:      sigmaSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			w.IdleFor(1500 * msVirtual)
			steps := s.N(12)
			for i := 0; i < steps; i++ {
				if err := w.DispatchEvent("layoutStep", event(w.In, nil)); err != nil {
					return err
				}
				w.IdleFor(400 * msVirtual)
			}
			return nil
		},
		PaperTotalS:            32,
		PaperActiveS:           9,
		PaperLoopsS:            8,
		ExpectComputeIntensive: true,
	}
}

const sigmaSrc = `
var NODES = 80;
var nodesX = [], nodesY = [], nodeEls = [];
var edgeA = [], edgeB = [];
var container = null;
var temperature = 8;

function setup() {
  container = document.createElement("div");
  container.setAttribute("id", "graph");
  document.body.appendChild(container);
  for (var i = 0; i < NODES; i++) {
    nodesX.push(Math.cos(i * 2.39) * 60 + 100);
    nodesY.push(Math.sin(i * 2.39) * 60 + 80);
    var el = document.createElement("div");
    container.appendChild(el);
    nodeEls.push(el);
  }
  // GEXF-ish edge list: ring plus chords
  for (var i = 0; i < NODES; i++) {
    edgeA.push(i);
    edgeB.push((i + 1) % NODES);
    edgeA.push(i);
    edgeB.push((i * 7 + 13) % NODES);
    edgeA.push(i);
    edgeB.push((i * 11 + 29) % NODES);
    if (i % 2 === 0) {
      edgeA.push(i);
      edgeB.push((i * 13 + 41) % NODES);
    }
  }
}

// Nest 1 (68% row): repulsion sweep. Positions are updated in place, so
// iteration k reads coordinates iterations < k already moved — true flow
// dependences — and the node's DOM element is updated per iteration.
function repulsionSweep() {
  for (var i = 0; i < NODES; i++) {
    var fx = 0, fy = 0;
    for (var j = 0; j < NODES; j++) {
      if (i === j) { continue; }
      var dx = nodesX[i] - nodesX[j];
      var dy = nodesY[i] - nodesY[j];
      var d2 = dx * dx + dy * dy + 0.1;
      fx += dx / d2 * 30;
      fy += dy / d2 * 30;
    }
    nodesX[i] += clampForce(fx);
    nodesY[i] += clampForce(fy);
    nodeEls[i].setStyle("left", (nodesX[i] | 0) + "px");
    nodeEls[i].setStyle("top", (nodesY[i] | 0) + "px");
  }
}

// Nest 2 (22% row): edge attraction — writes both endpoints, so the same
// coordinates are rewritten across iterations (overlapping writes), with
// a data-dependent skip for short edges (divergence yes).
function attractionPass() {
  for (var e = 0; e < edgeA.length; e++) {
    var a = edgeA[e], b = edgeB[e];
    var dx = nodesX[b] - nodesX[a];
    var dy = nodesY[b] - nodesY[a];
    var d = Math.sqrt(dx * dx + dy * dy);
    if (d < 12) { continue; }
    var f = (d - 12) * 0.02;
    // edge bundling control point (typical sigma.js curved-edge math)
    var mx = (nodesX[a] + nodesX[b]) / 2 + dy / d * 6;
    var my = (nodesY[a] + nodesY[b]) / 2 - dx / d * 6;
    var bend = Math.atan2(my - nodesY[a], mx - nodesX[a]);
    var w1 = Math.cos(bend) * 0.3 + Math.sin(bend) * 0.1;
    var w2 = Math.sin(bend) * 0.3 - Math.cos(bend) * 0.1;
    nodesX[a] += dx / d * f + w1 * 0.01;
    nodesY[a] += dy / d * f + w2 * 0.01;
    nodesX[b] -= dx / d * f + w1 * 0.01;
    nodesY[b] -= dy / d * f + w2 * 0.01;
    nodeEls[a].setStyle("left", (nodesX[a] | 0) + "px");
    nodeEls[b].setStyle("left", (nodesX[b] | 0) + "px");
  }
}

function clampForce(f) {
  if (f > temperature) { return temperature; }
  if (f < -temperature) { return -temperature; }
  return f;
}

addEventListener("layoutStep", function (e) {
  repulsionSweep();
  attractionPass();
  if (temperature > 1) {
    temperature *= 0.95;
  }
});
`
