package browser

import (
	"strings"
	"testing"

	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

func run(t *testing.T, src string) (*Window, *interp.Interp) {
	t.Helper()
	in := interp.New()
	w := NewWindow(in)
	if err := in.Run(parser.MustParse(src)); err != nil {
		t.Fatalf("run: %v", err)
	}
	return w, in
}

func TestDocumentFromJS(t *testing.T) {
	w, in := run(t, `
var div = document.createElement("div");
div.setAttribute("id", "main");
div.setText("hi");
document.body.appendChild(div);
var found = document.getElementById("main");
var text = found.getText();
var count = document.body.childCount();
`)
	if got := in.Global("text").Str(); got != "hi" {
		t.Errorf("text = %q", got)
	}
	if got := in.Global("count").Num(); got != 1 {
		t.Errorf("childCount = %v", got)
	}
	if w.doc.GetElementByID("main") == nil {
		t.Error("Go-side DOM not updated")
	}
}

func TestNodeWrapperIdentity(t *testing.T) {
	_, in := run(t, `
var a = document.createElement("div");
a.setAttribute("id", "x");
document.body.appendChild(a);
var same = document.getElementById("x") === a;
`)
	if !in.Global("same").ToBool() {
		t.Error("wrapper identity not preserved across lookups")
	}
}

func TestCanvasFromJS(t *testing.T) {
	w, in := run(t, `
var cv = document.createElement("canvas");
cv.setSize(8, 8);
document.body.appendChild(cv);
var ctx = cv.getContext("2d");
ctx.setFillStyle(200, 100, 50);
ctx.fillRect(0, 0, 8, 8);
var img = ctx.getImageData(0, 0, 2, 2);
var r0 = img.data[0];
ctx.putImageData(img, 4, 4);
`)
	if got := in.Global("r0").Num(); got != 200 {
		t.Errorf("r0 = %v", got)
	}
	if len(w.Canvases) != 1 || w.Canvases[0].W != 8 {
		t.Fatalf("canvas substrate missing")
	}
	cv := w.Canvases[0]
	if r := cv.Pix[(7*cv.W+7)*4]; r != 200 {
		t.Errorf("Go-side canvas not painted: r = %d", r)
	}
}

func TestTimersAndPump(t *testing.T) {
	w, in := run(t, `
var fired = [];
setTimeout(function () { fired.push("b"); }, 20);
setTimeout(function () { fired.push("a"); }, 10);
var id = setTimeout(function () { fired.push("never"); }, 30);
clearTimeout(id);
`)
	n, err := w.PumpN(10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("pumped %d, want 2", n)
	}
	arr := in.Global("fired").Object()
	if len(arr.Elems) != 2 || arr.Elems[0].Str() != "a" || arr.Elems[1].Str() != "b" {
		t.Errorf("fired = %v", value.ObjectVal(arr).Inspect())
	}
	// virtual clock advanced to the second deadline
	if in.Now() < 20_000_000 {
		t.Errorf("clock = %d, want >= 20ms", in.Now())
	}
}

func TestAnimationFrames(t *testing.T) {
	w, in := run(t, `
var frames = 0;
function tick() {
  frames++;
  if (frames < 5) { requestAnimationFrame(tick); }
}
requestAnimationFrame(tick);
`)
	if _, err := w.PumpN(100); err != nil {
		t.Fatal(err)
	}
	if got := in.Global("frames").Num(); got != 5 {
		t.Errorf("frames = %v, want 5", got)
	}
	// 5 frames at 16ms cadence
	if in.Now() < 5*16_000_000 {
		t.Errorf("clock = %d, want >= 80ms", in.Now())
	}
}

func TestDispatchEvent(t *testing.T) {
	w, in := run(t, `
var seen = [];
addEventListener("click", function (e) { seen.push(e.x); });
addEventListener("click", function (e) { seen.push(e.x * 2); });
`)
	payload := in.NewObject()
	payload.Set("x", value.Int(5))
	if err := w.DispatchEvent("click", value.ObjectVal(payload)); err != nil {
		t.Fatal(err)
	}
	arr := in.Global("seen").Object()
	if len(arr.Elems) != 2 || arr.Elems[0].Num() != 5 || arr.Elems[1].Num() != 10 {
		t.Errorf("seen = %v", value.ObjectVal(arr).Inspect())
	}
}

func TestHandlerErrorSurfaces(t *testing.T) {
	w, _ := run(t, `addEventListener("boom", function () { throw "bad"; });`)
	err := w.DispatchEvent("boom", value.Undefined())
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("err = %v", err)
	}
}

// hostOpLog records the host operations it is sent.
type hostOpLog struct{ ops []string }

func (l *hostOpLog) HostOp(category, op string) { l.ops = append(l.ops, category+":"+op) }

func TestHostOpsEmitted(t *testing.T) {
	in := interp.New()
	rec := &hostOpLog{}
	in.SetHooks(rec)
	w := NewWindow(in)
	if err := in.Run(parser.MustParse(`
var d = document.createElement("div");
document.body.appendChild(d);
d.setStyle("color", "red");
`)); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rec.ops, ",")
	for _, want := range []string{"dom:createElement", "dom:appendChild", "dom:setStyle"} {
		if !strings.Contains(joined, want) {
			t.Errorf("ops %v missing %s", rec.ops, want)
		}
	}
	_ = w
}

func TestTaskBoundaries(t *testing.T) {
	w, _ := run(t, `
addEventListener("go", function () {});
setTimeout(function () {}, 1);
`)
	var log []string
	w.OnTask = func(label string, begin bool) {
		if begin {
			log = append(log, "+"+label)
		} else {
			log = append(log, "-"+label)
		}
	}
	if err := w.DispatchEvent("go", value.Undefined()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.PumpN(1); err != nil {
		t.Fatal(err)
	}
	want := []string{"+go", "-go", "+timeout", "-timeout"}
	if strings.Join(log, ",") != strings.Join(want, ",") {
		t.Errorf("task log = %v, want %v", log, want)
	}
}

func TestIdleForAdvancesTotalNotScript(t *testing.T) {
	_, in := run(t, `var x = 1;`)
	w := NewWindow(in)
	script := in.ScriptTime()
	w.IdleFor(100_000_000)
	if in.ScriptTime() != script {
		t.Error("idle advanced script time")
	}
	if in.Now() < script+100_000_000 {
		t.Error("idle did not advance wall clock")
	}
}
