// Package instrument implements the proxy-side source-to-source transform
// of Fig. 5: JavaScript arriving from the web server is rewritten so that
// every syntactic loop reports entry, iteration, and exit to a small
// injected runtime, exactly the lightweight/loop-profiling instrumentation
// strategy of §3.1–§3.2 (open-loop counter, per-loop trip statistics with
// Welford's update, timestamps from the high-resolution timer).
//
// The rewrite is a splice: the output is the runtime, then the page's own
// text byte for byte with the hook calls inserted at the offsets the
// parser recorded for each loop. No insertion holds a newline, so source
// line N is output line N plus the runtime's line count. The contract,
// held by the tests against an AST-rewriting reference: the spliced text
// parses to the tree that wrapping every loop node by hand would give.
//
// The transform is engine-agnostic: output is plain JavaScript that runs
// on any engine providing performance.now — including this repository's
// interpreter, which is how the proxy pipeline is tested end to end.
package instrument

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
)

// Mode selects how much instrumentation the rewriter injects.
type Mode int

// Modes, in increasing overhead order (§3's three stages; the dependence
// mode is interpreter-assisted and not expressible as pure source rewrite
// without shadowing every property access, so the proxy offers the two
// profiling stages).
const (
	// ModeLight counts only total-vs-in-loop time (open-loop counter).
	ModeLight Mode = iota
	// ModeLoops additionally tracks per-loop instances/trips/time with
	// Welford statistics.
	ModeLoops
)

// String returns the command-line name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeLight:
		return "light"
	case ModeLoops:
		return "loops"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps a command-line mode name to a Mode; unknown names are
// an error, never silently defaulted.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "light":
		return ModeLight, nil
	case "loops":
		return ModeLoops, nil
	}
	return 0, fmt.Errorf("instrument: unknown mode %q (want light or loops)", name)
}

// Result is the rewriter's output.
type Result struct {
	Source   string
	NumLoops int
}

// Rewrite parses src, brackets every loop with runtime callbacks, and
// prepends the runtime. The original program's behaviour is preserved
// (loop exit fires through try/finally even on break/return/throw) and
// so is its text: the output is src plus insertions.
//
// Rewrite is the one-shot composition of the four pipeline stages the
// proxy's serving path runs as separate scheduler jobs:
// Decode → Parse → Transform → Encode.
func Rewrite(src string, mode Mode) (*Result, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	Transform(prog)
	return &Result{Source: string(Encode(prog, mode)), NumLoops: len(prog.Loops)}, nil
}

// Decode is pipeline stage 1: raw response bytes → source text. It
// strips a UTF-8 byte-order mark (the lexer treats U+FEFF as a stray
// token, so a BOM-prefixed script would otherwise fail to parse and
// fall back to passthrough). The text is a copy: body stays the
// caller's, and the program parsed from the text must not change if
// the caller reuses it.
func Decode(body []byte) string {
	const bom = "\xef\xbb\xbf"
	s := string(body)
	return strings.TrimPrefix(s, bom)
}

// Parse is pipeline stage 2: source text → the loop inventory, with the
// package's error prefix. The returned program carries its source and
// every loop's offsets, all the transform plans from, and no Body:
// parser.Loops runs the grammar without building the tree, and its
// loops and verdict are parser.Parse's.
func Parse(src string) (*ast.Program, error) {
	loops, err := parser.Loops(src)
	if err != nil {
		return nil, fmt.Errorf("instrument: %w", err)
	}
	return &ast.Program{Source: src, Loops: loops}, nil
}

// The places around a loop where text goes in. At one offset they sort
// in this order: what closes before what opens.
const (
	closeBody = iota // `}` after a brace-less body
	exitLoop         // `}finally{__ceresExit(id);}}` after the statement
	iterBlock        // `__ceresIter(id);` after a block body's `{`
	iterBare         // `{__ceresIter(id);` before a brace-less body
	enterLoop        // `{__ceresEnter(id);try{` before the loop keyword
)

// edge is one insertion of the plan before it is rendered to text.
type edge struct {
	off, kind int
	loop      *ast.LoopInfo
}

// compareEdges orders insertions by offset. At one offset closes come
// first, the innermost loop's first (it starts last), its body's before
// its statement's; then opens, the outermost loop's first.
func compareEdges(a, b edge) int {
	aOpens, bOpens := a.kind > exitLoop, b.kind > exitLoop
	switch {
	case a.off != b.off:
		return cmp.Compare(a.off, b.off)
	case aOpens && bOpens:
		return cmp.Compare(a.loop.Start, b.loop.Start)
	case !aOpens && !bOpens && a.loop != b.loop:
		return cmp.Compare(b.loop.Start, a.loop.Start)
	}
	return cmp.Compare(a.kind, b.kind)
}

// Transform is pipeline stage 3: plan the splice. Every loop in
// prog.Loops — wherever it sits, a function literal in another loop's
// header included — becomes
//
//	{__ceresEnter(id);try{ for (…) {__ceresIter(id); … } }finally{__ceresExit(id);}}
//
// so that exit fires on break, return and throw; a brace-less body gets
// the braces the per-iteration call needs. The insertions go on
// prog.Splices, sorted for Encode; prog is one Parse returned and its
// AST is not touched. The plan is mode-independent — the mode only
// selects which runtime Encode prepends.
func Transform(prog *ast.Program) {
	edges := make([]edge, 0, 4*len(prog.Loops))
	for i := range prog.Loops {
		li := &prog.Loops[i]
		edges = append(edges, edge{li.Start, enterLoop, li}, edge{li.End, exitLoop, li})
		if strings.HasPrefix(prog.Source[li.BodyStart:], "{") {
			edges = append(edges, edge{li.BodyStart + 1, iterBlock, li})
		} else {
			edges = append(edges, edge{li.BodyStart, iterBare, li}, edge{li.BodyEnd, closeBody, li})
		}
	}
	slices.SortFunc(edges, compareEdges)

	// One buffer holds every hook and the splices are slices of it: the
	// plan is a handful of allocations, not a string per hook.
	var text strings.Builder
	text.Grow(32 * len(edges))
	prog.Splices = make([]ast.Splice, len(edges))
	for i, e := range edges {
		at := text.Len()
		switch e.kind {
		case closeBody:
			text.WriteByte('}')
		case exitLoop:
			hook(&text, "}finally{__ceresExit(", e.loop.ID, ");}}")
		case iterBlock:
			hook(&text, "__ceresIter(", e.loop.ID, ");")
		case iterBare:
			hook(&text, "{__ceresIter(", e.loop.ID, ");")
		case enterLoop:
			hook(&text, "{__ceresEnter(", e.loop.ID, ");try{")
		}
		prog.Splices[i] = ast.Splice{Off: e.off, Text: text.String()[at:]}
	}
}

func hook(text *strings.Builder, pre string, id ast.LoopID, post string) {
	var num [20]byte
	text.WriteString(pre)
	text.Write(strconv.AppendInt(num[:0], int64(id), 10))
	text.WriteString(post)
}

// Encode is pipeline stage 4: the runtime for mode, then prog's source
// copied verbatim with Transform's insertions in place — the response
// body, built in one right-sized slice.
func Encode(prog *ast.Program, mode Mode) []byte {
	rt, src := Runtime(mode), prog.Source
	n := len(rt) + len(src)
	for _, sp := range prog.Splices {
		n += len(sp.Text)
	}
	body := make([]byte, 0, n)
	body = append(body, rt...)
	at := 0
	for _, sp := range prog.Splices {
		body = append(body, src[at:sp.Off]...)
		body = append(body, sp.Text...)
		at = sp.Off
	}
	return append(body, src[at:]...)
}

// Runtime returns the injected JavaScript runtime for the given mode.
func Runtime(mode Mode) string {
	if mode == ModeLight {
		return lightRuntime
	}
	return loopsRuntime
}

// lightRuntime implements §3.1 verbatim: an open-loop counter, a
// timestamp when 0→1, accumulation when 1→0.
const lightRuntime = `// JS-CERES lightweight profiling runtime (injected by the proxy)
var __ceresOpen = 0;
var __ceresLoopStart = 0;
var __ceresLoopTotal = 0;
var __ceresStart = performance.now();
function __ceresEnter(id) {
  if (__ceresOpen === 0) {
    __ceresLoopStart = performance.now();
  }
  __ceresOpen++;
}
function __ceresIter(id) {}
function __ceresExit(id) {
  __ceresOpen--;
  if (__ceresOpen === 0) {
    __ceresLoopTotal += performance.now() - __ceresLoopStart;
  }
}
function __ceresReport() {
  return {
    mode: "light",
    totalMs: performance.now() - __ceresStart,
    inLoopsMs: __ceresLoopTotal
  };
}
`

// loopsRuntime implements §3.2: per-loop instances and running totals,
// with mean/variance of time and trip count via Welford's online update.
const loopsRuntime = `// JS-CERES loop profiling runtime (injected by the proxy)
var __ceresLoops = {};
var __ceresStack = [];
var __ceresStart = performance.now();
function __ceresLoopRec(id) {
  var rec = __ceresLoops[id];
  if (!rec) {
    rec = {
      id: id, instances: 0,
      timeN: 0, timeMean: 0, timeM2: 0,
      tripN: 0, tripMean: 0, tripM2: 0
    };
    __ceresLoops[id] = rec;
  }
  return rec;
}
function __ceresWelford(rec, pre, x) {
  rec[pre + "N"]++;
  var d = x - rec[pre + "Mean"];
  rec[pre + "Mean"] += d / rec[pre + "N"];
  rec[pre + "M2"] += d * (x - rec[pre + "Mean"]);
}
function __ceresEnter(id) {
  var rec = __ceresLoopRec(id);
  rec.instances++;
  __ceresStack.push({id: id, start: performance.now(), trips: 0});
}
function __ceresIter(id) {
  var i = __ceresStack.length - 1;
  while (i >= 0 && __ceresStack[i].id !== id) { i--; }
  if (i >= 0) { __ceresStack[i].trips++; }
}
function __ceresExit(id) {
  var i = __ceresStack.length - 1;
  while (i >= 0 && __ceresStack[i].id !== id) { i--; }
  if (i < 0) { return; }
  var frame = __ceresStack[i];
  __ceresStack.splice(i, 1);
  var rec = __ceresLoopRec(id);
  __ceresWelford(rec, "time", performance.now() - frame.start);
  __ceresWelford(rec, "trip", frame.trips);
}
function __ceresReport() {
  var loops = [];
  for (var id in __ceresLoops) {
    var r = __ceresLoops[id];
    var tripVar = r.tripN > 0 ? r.tripM2 / r.tripN : 0;
    loops.push({
      id: r.id, instances: r.instances,
      totalMs: r.timeMean * r.timeN,
      meanTrips: r.tripMean, tripStd: Math.sqrt(tripVar)
    });
  }
  return {
    mode: "loops",
    totalMs: performance.now() - __ceresStart,
    loops: loops
  };
}
`
