// Package browser is the web browser hosting the case-study applications
// (Fig. 5's "browser" box): a minimal in-memory DOM (package dom), a
// software RGBA canvas (package canvas) and a timer/animation-frame queue
// over virtual time (package event), wired into a JavaScript interpreter.
//
// It installs `document`, element objects, 2D canvas contexts, timers and
// requestAnimationFrame, plus an addEventListener/DispatchEvent pair the
// workload drivers use to simulate user interaction. Every DOM/canvas
// operation is reported to the interpreter as a host op — the one count
// of them — so JS-CERES can attribute it to loop nests (Table 3's "DOM
// access" column), and charged virtual time so profiles have realistic
// shapes.
package browser

import (
	"fmt"

	"repro/internal/browser/canvas"
	"repro/internal/browser/dom"
	"repro/internal/browser/event"
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// Virtual costs of host operations (nanoseconds).
const (
	costDOMOp       = 3_000 // structural DOM mutation / query
	costStyleOp     = 1_500
	costCanvasOp    = 2_000  // path/command-level canvas op
	costPerPixel    = 4      // per-pixel cost of image-data transfers
	costEventLayout = 50_000 // layout charge after a dispatched event batch
)

// Window hosts one page: interpreter + DOM + event queue + canvases.
type Window struct {
	In *interp.Interp

	Canvases []*canvas.Canvas

	doc      *dom.Document
	queue    *event.Queue
	nodeWrap map[*dom.Node]*value.Object
	handlers map[string][]value.Value

	// Dispatched counts callbacks run by the pump.
	Dispatched int64

	// OnTask, when set, observes event-loop task boundaries: it is called
	// with begin=true before each dispatched callback and begin=false
	// after (used by the task-graph limit study).
	OnTask func(label string, begin bool)
}

func (w *Window) taskBegin(label string) {
	if w.OnTask != nil {
		w.OnTask(label, true)
	}
}

func (w *Window) taskEnd(label string) {
	if w.OnTask != nil {
		w.OnTask(label, false)
	}
}

// NewWindow creates a window around the interpreter and installs the host
// globals.
func NewWindow(in *interp.Interp) *Window {
	w := &Window{
		In:       in,
		doc:      dom.NewDocument(),
		queue:    event.NewQueue(),
		nodeWrap: make(map[*dom.Node]*value.Object),
		handlers: make(map[string][]value.Value),
	}
	w.install()
	return w
}

func (w *Window) native(name string, fn value.NativeFn) value.Value {
	return value.ObjectVal(value.NewNative(name, fn))
}

// wrapNode returns the (cached) JS object for a DOM node.
func (w *Window) wrapNode(n *dom.Node) value.Value {
	if n == nil {
		return value.Null()
	}
	if o, ok := w.nodeWrap[n]; ok {
		return value.ObjectVal(o)
	}
	o := &value.Object{Class: value.ClassHost, Host: n}
	w.nodeWrap[n] = o
	o.Set("tagName", value.String(n.Tag))
	o.Set("appendChild", w.native("appendChild", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		child := w.unwrapNode(interp.Arg(args, 0))
		w.In.EmitHostOp("dom", "appendChild", costDOMOp)
		n.AppendChild(child)
		return interp.Arg(args, 0), nil
	}))
	o.Set("removeChild", w.native("removeChild", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		child := w.unwrapNode(interp.Arg(args, 0))
		w.In.EmitHostOp("dom", "removeChild", costDOMOp)
		n.RemoveChild(child)
		return interp.Arg(args, 0), nil
	}))
	o.Set("setAttribute", w.native("setAttribute", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		w.In.EmitHostOp("dom", "setAttribute", costDOMOp)
		n.SetAttribute(interp.Arg(args, 0).ToString(), interp.Arg(args, 1).ToString())
		return value.Undefined(), nil
	}))
	o.Set("getAttribute", w.native("getAttribute", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		w.In.EmitHostOp("dom", "getAttribute", costDOMOp)
		return value.String(n.GetAttribute(interp.Arg(args, 0).ToString())), nil
	}))
	o.Set("setStyle", w.native("setStyle", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		w.In.EmitHostOp("dom", "setStyle", costStyleOp)
		n.SetStyle(interp.Arg(args, 0).ToString(), interp.Arg(args, 1).ToString())
		return value.Undefined(), nil
	}))
	o.Set("getStyle", w.native("getStyle", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		w.In.EmitHostOp("dom", "getStyle", costStyleOp)
		return value.String(n.GetStyle(interp.Arg(args, 0).ToString())), nil
	}))
	o.Set("setText", w.native("setText", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		w.In.EmitHostOp("dom", "setText", costDOMOp)
		n.SetText(interp.Arg(args, 0).ToString())
		return value.Undefined(), nil
	}))
	o.Set("getText", w.native("getText", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		w.In.EmitHostOp("dom", "getText", costDOMOp)
		return value.String(n.GetText()), nil
	}))
	o.Set("childCount", w.native("childCount", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		w.In.EmitHostOp("dom", "childCount", costDOMOp)
		return value.Int(n.NumChildren()), nil
	}))
	o.Set("childAt", w.native("childAt", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		w.In.EmitHostOp("dom", "childAt", costDOMOp)
		return w.wrapNode(n.ChildAt(int(interp.Arg(args, 0).ToNumber()))), nil
	}))
	if n.Tag == "canvas" {
		o.Set("getContext", w.native("getContext", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			return w.contextFor(n), nil
		}))
		o.Set("setSize", w.native("setSize", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
			wd, ht := int(interp.Arg(args, 0).ToNumber()), int(interp.Arg(args, 1).ToNumber())
			n.SetAttribute("width", value.Int(wd).ToString())
			n.SetAttribute("height", value.Int(ht).ToString())
			return value.Undefined(), nil
		}))
	}
	return value.ObjectVal(o)
}

func (w *Window) unwrapNode(v value.Value) *dom.Node {
	if !v.IsObject() {
		return nil
	}
	n, _ := v.Object().Host.(*dom.Node)
	return n
}

// contextFor lazily creates the canvas surface and its JS context object.
func (w *Window) contextFor(n *dom.Node) value.Value {
	type ctxHost struct{ cv *canvas.Canvas }
	wrap := w.nodeWrap[n]
	if ctxV, ok := wrap.GetOwn("_ctx"); ok {
		return ctxV
	}
	cw, ch := 300, 150
	if s := n.GetAttribute("width"); s != "" {
		cw = int(value.String(s).ToNumber())
	}
	if s := n.GetAttribute("height"); s != "" {
		ch = int(value.String(s).ToNumber())
	}
	cv := canvas.New(cw, ch)
	w.Canvases = append(w.Canvases, cv)

	ctx := &value.Object{Class: value.ClassHost, Host: &ctxHost{cv: cv}}
	emit := func(op string, cost int64) { w.In.EmitHostOp("canvas", op, cost) }
	ctx.Set("fillRect", w.native("fillRect", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		emit("fillRect", costCanvasOp)
		cv.FillRect(interp.Arg(args, 0).ToNumber(), interp.Arg(args, 1).ToNumber(), interp.Arg(args, 2).ToNumber(), interp.Arg(args, 3).ToNumber())
		return value.Undefined(), nil
	}))
	ctx.Set("clearRect", w.native("clearRect", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		emit("clearRect", costCanvasOp)
		cv.ClearRect(interp.Arg(args, 0).ToNumber(), interp.Arg(args, 1).ToNumber(), interp.Arg(args, 2).ToNumber(), interp.Arg(args, 3).ToNumber())
		return value.Undefined(), nil
	}))
	ctx.Set("setFillStyle", w.native("setFillStyle", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		emit("fillStyle", costCanvasOp/4)
		cv.SetFillStyle(
			uint8(interp.Arg(args, 0).ToNumber()), uint8(interp.Arg(args, 1).ToNumber()),
			uint8(interp.Arg(args, 2).ToNumber()), alphaOrOpaque(args))
		return value.Undefined(), nil
	}))
	ctx.Set("setStrokeStyle", w.native("setStrokeStyle", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		emit("strokeStyle", costCanvasOp/4)
		cv.SetStrokeStyle(uint8(interp.Arg(args, 0).ToNumber()), uint8(interp.Arg(args, 1).ToNumber()), uint8(interp.Arg(args, 2).ToNumber()))
		return value.Undefined(), nil
	}))
	ctx.Set("beginPath", w.native("beginPath", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		emit("beginPath", costCanvasOp/4)
		cv.BeginPath()
		return value.Undefined(), nil
	}))
	ctx.Set("moveTo", w.native("moveTo", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		emit("moveTo", costCanvasOp/4)
		cv.MoveTo(interp.Arg(args, 0).ToNumber(), interp.Arg(args, 1).ToNumber())
		return value.Undefined(), nil
	}))
	ctx.Set("lineTo", w.native("lineTo", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		emit("lineTo", costCanvasOp/4)
		cv.LineTo(interp.Arg(args, 0).ToNumber(), interp.Arg(args, 1).ToNumber())
		return value.Undefined(), nil
	}))
	ctx.Set("stroke", w.native("stroke", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		emit("stroke", costCanvasOp)
		cv.Stroke()
		return value.Undefined(), nil
	}))
	ctx.Set("arc", w.native("arc", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		emit("arc", costCanvasOp)
		cv.Arc(interp.Arg(args, 0).ToNumber(), interp.Arg(args, 1).ToNumber(), interp.Arg(args, 2).ToNumber())
		return value.Undefined(), nil
	}))
	ctx.Set("getImageData", w.native("getImageData", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		x, y := int(interp.Arg(args, 0).ToNumber()), int(interp.Arg(args, 1).ToNumber())
		iw, ih := int(interp.Arg(args, 2).ToNumber()), int(interp.Arg(args, 3).ToNumber())
		emit("getImageData", costCanvasOp+int64(iw*ih)*costPerPixel)
		pix := cv.GetImageData(x, y, iw, ih)
		data := make([]value.Value, len(pix))
		for i, b := range pix {
			data[i] = value.Int(int(b))
		}
		img := &value.Object{Class: value.ClassObject}
		img.Set("width", value.Int(iw))
		img.Set("height", value.Int(ih))
		img.Set("data", value.ObjectVal(value.NewArray(data...)))
		return value.ObjectVal(img), nil
	}))
	ctx.Set("putImageData", w.native("putImageData", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		img := interp.Arg(args, 0)
		if !img.IsObject() {
			return value.Undefined(), value.ThrowTypeError("putImageData: not an ImageData")
		}
		wV, _ := img.Object().Get("width")
		hV, _ := img.Object().Get("height")
		dV, _ := img.Object().Get("data")
		iw, ih := int(wV.ToNumber()), int(hV.ToNumber())
		emit("putImageData", costCanvasOp+int64(iw*ih)*costPerPixel)
		if !dV.IsObject() || !dV.Object().IsArray() {
			return value.Undefined(), value.ThrowTypeError("putImageData: data is not an array")
		}
		elems := dV.Object().Elems
		pix := make([]uint8, len(elems))
		for i, e := range elems {
			pix[i] = uint8(int64(e.ToNumber()) & 0xFF)
		}
		x, y := int(interp.Arg(args, 1).ToNumber()), int(interp.Arg(args, 2).ToNumber())
		if err := cv.PutImageData(pix, x, y, iw, ih); err != nil {
			return value.Undefined(), value.ThrowTypeError(err.Error())
		}
		return value.Undefined(), nil
	}))
	wrap.Set("_ctx", value.ObjectVal(ctx))
	return value.ObjectVal(ctx)
}

func alphaOrOpaque(args []value.Value) uint8 {
	if len(args) > 3 && !args[3].IsUndefined() {
		return uint8(args[3].ToNumber())
	}
	return 255
}

// install registers document, timers and event listener APIs as globals.
func (w *Window) install() {
	in := w.In

	doc := &value.Object{Class: value.ClassHost, Host: w.doc}
	doc.Set("createElement", w.native("createElement", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		in.EmitHostOp("dom", "createElement", costDOMOp)
		return w.wrapNode(w.doc.CreateElement(interp.Arg(args, 0).ToString())), nil
	}))
	doc.Set("getElementById", w.native("getElementById", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		in.EmitHostOp("dom", "getElementById", costDOMOp)
		return w.wrapNode(w.doc.GetElementByID(interp.Arg(args, 0).ToString())), nil
	}))
	doc.Set("body", w.wrapNode(w.doc.Body()))
	in.SetGlobal("document", value.ObjectVal(doc))

	in.SetGlobal("setTimeout", w.native("setTimeout", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		fn := interp.Arg(args, 0)
		ms := interp.Arg(args, 1).ToNumber()
		t := w.queue.ScheduleTimeout(in.Now(), int64(ms*1e6), fn)
		return value.Int(int(t.ID)), nil
	}))
	in.SetGlobal("setInterval", w.native("setInterval", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		fn := interp.Arg(args, 0)
		ms := interp.Arg(args, 1).ToNumber()
		t := w.queue.ScheduleInterval(in.Now(), int64(ms*1e6), fn)
		return value.Int(int(t.ID)), nil
	}))
	clear := w.native("clearTimeout", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		w.queue.Cancel(int64(interp.Arg(args, 0).ToNumber()))
		return value.Undefined(), nil
	})
	in.SetGlobal("clearTimeout", clear)
	in.SetGlobal("clearInterval", clear)
	in.SetGlobal("requestAnimationFrame", w.native("requestAnimationFrame", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		fn := interp.Arg(args, 0)
		t := w.queue.ScheduleFrame(in.Now(), fn)
		return value.Int(int(t.ID)), nil
	}))
	in.SetGlobal("addEventListener", w.native("addEventListener", func(c value.Caller, this value.Value, args []value.Value) (value.Value, error) {
		name := interp.Arg(args, 0).ToString()
		w.handlers[name] = append(w.handlers[name], interp.Arg(args, 1))
		return value.Undefined(), nil
	}))
}

// DispatchEvent invokes every listener registered for name with the given
// payload (used by workload drivers to simulate user input).
func (w *Window) DispatchEvent(name string, payload value.Value) error {
	w.In.EmitHostOp("event", name, costEventLayout)
	for _, fn := range w.handlers[name] {
		w.Dispatched++
		w.taskBegin(name)
		_, err := w.In.SafeCall(fn, value.Undefined(), []value.Value{payload})
		w.taskEnd(name)
		if err != nil {
			return fmt.Errorf("browser: %s handler: %w", name, err)
		}
	}
	return nil
}

// IdleFor advances the virtual clock without running script — user
// think-time between interactions.
func (w *Window) IdleFor(ns int64) { w.In.AdvanceTime(ns) }

func taskLabel(t *event.Task) string {
	if t.Frame {
		return "frame"
	}
	if t.Interval > 0 {
		return "interval"
	}
	return "timeout"
}

// PumpN dispatches up to n queued tasks (regardless of virtual deadline).
func (w *Window) PumpN(n int) (int, error) {
	done := 0
	for done < n && w.queue.Live() > 0 {
		now := w.In.Now()
		t, fire, err := w.queue.Next(now)
		if err != nil {
			break
		}
		if fire > now {
			w.In.AdvanceTime(fire - now)
		}
		fn, _ := t.Data.(value.Value)
		if fn.IsCallable() {
			w.Dispatched++
			done++
			w.taskBegin(taskLabel(t))
			_, err := w.In.SafeCall(fn, value.Undefined(), nil)
			w.taskEnd(taskLabel(t))
			if err != nil {
				return done, err
			}
		}
	}
	return done, nil
}
