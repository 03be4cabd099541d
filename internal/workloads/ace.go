package workloads

import "repro/internal/browser"

// Ace reproduces the Cloud9 code editor: keystroke-driven rendering where
// the hot "loops" barely iterate — the renderer re-runs until no more
// cascading layout changes remain, which almost always converges in one
// pass (Table 3: trips 1±0.1). Shared editor state (line widths, cursor,
// scroll metrics) and per-line DOM updates make the nests very hard on
// both dependence and parallelization axes.
func Ace(s Scale) *Workload {
	return &Workload{
		Name:        "Ace",
		Category:    "Productivity",
		Description: "code editor used by the Cloud9 IDE",
		Source:      aceSrc,
		Drive: func(w *browser.Window) error {
			if err := callGlobal(w, "setup"); err != nil {
				return err
			}
			w.IdleFor(2000 * msVirtual)
			keys := s.N(56)
			for i := 0; i < keys; i++ {
				code := float64(97 + (i*7)%26) // letters
				if i%11 == 10 {
					code = 10 // newline
				}
				if err := w.DispatchEvent("key", event(w.In, map[string]float64{"code": code})); err != nil {
					return err
				}
				// typical typing cadence
				w.IdleFor(450 * msVirtual)
			}
			return nil
		},
		PaperTotalS:  30,
		PaperActiveS: 0.4,
		PaperLoopsS:  0.4,
	}
}

const aceSrc = `
var lines = [""];
var lineNodes = [];
var cursorRow = 0, cursorCol = 0;
var maxWidth = 0;
var scrollTop = 0;
var gutterWidth = 2;
var editorEl = null;

function setup() {
  editorEl = document.createElement("div");
  editorEl.setAttribute("id", "editor");
  document.body.appendChild(editorEl);
  addLineNode();
}

function addLineNode() {
  var n = document.createElement("div");
  editorEl.appendChild(n);
  lineNodes.push(n);
}

// Nest 1 (the paper's 42% row): run layout until no cascading changes —
// converges after one pass in the common case, so trips ~ 1.
var layoutCache = { width: 0, height: 0, gutter: 2, generation: 0 };

function renderLoop() {
  var changed = true;
  var guard = 0;
  while (changed && guard < 5) {
    changed = false;
    guard++;
    var width = measureWidths();
    if (width > maxWidth) {
      maxWidth = width;
      // widening the text area changes the gutter, forcing a re-layout
      gutterWidth = 2 + (("" + lines.length).length);
      changed = true;
    }
    // layout cache: every pass reads what the previous pass wrote
    if (layoutCache.width !== maxWidth || layoutCache.height !== lines.length * 10) {
      layoutCache.width = maxWidth;
      layoutCache.height = lines.length * 10;
      layoutCache.gutter = gutterWidth;
      layoutCache.generation = layoutCache.generation + 1;
      changed = changed || layoutCache.generation < 2;
    }
    var newScroll = cursorRow * 10 - 40;
    if (newScroll < 0) { newScroll = 0; }
    if (newScroll !== scrollTop) {
      scrollTop = newScroll;
    }
    // the renderer repositions the scroller every pass (DOM in-loop)
    editorEl.setStyle("top", "-" + scrollTop + "px");
    editorEl.setAttribute("data-gen", "" + layoutCache.generation);
  }
}

// Nest 2 (the 22% row): update dirty line nodes — usually exactly the one
// line being edited, so this while loop over the dirty set trips ~ once.
var dirty = [];
function flushDirty() {
  while (dirty.length > 0) {
    var row = dirty.pop();
    if (row >= lineNodes.length) { continue; }
    lineNodes[row].setText(lines[row]);
    lineNodes[row].setStyle("width", maxWidth + "px");
  }
}

function measureWidths() {
  var w = maxWidth;
  var row = cursorRow;
  // measure only the edited line (shared metric state: read-modify-write)
  if (lines[row].length > w) {
    w = lines[row].length;
  }
  return w;
}

addEventListener("key", function (e) {
  var code = e.code | 0;
  if (code === 10) {
    lines.push("");
    cursorRow = lines.length - 1;
    cursorCol = 0;
    addLineNode();
  } else {
    lines[cursorRow] = lines[cursorRow] + String.fromCharCode(code);
    cursorCol++;
  }
  dirty.push(cursorRow);
  renderLoop();
  flushDirty();
});
`
