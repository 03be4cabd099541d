package workloads

// ImagePipe is the pipeline workload for ModeExec's pipeline ladder: a
// decode → filter → encode image pass whose stages form a produce →
// consume chain. Flat mapPar cannot merge the chain — each stage's loop
// reads the array the previous loop wrote, so the three loops are
// sequentially dependent — but pipePar runs the fused chain over chunks
// of the index space on one worker pool (autopar.PipelineSpec), with no
// barrier between the stages.
//
// Like ExecKernels, every stage stays within the speculation contract:
// captures are scalars and interpreted helpers, inputs and results are
// numbers, so the static prover can prove each stage and the pipeline
// runs guard-free under -static=assist.

import "strconv"

// PipeStage is one stage of the pipeline workload in elemental form.
type PipeStage struct {
	// Name labels the stage in reports ("decode", "filter", "encode").
	Name string
	// Elemental is the `function (x, i) { ... }` source for this stage;
	// its x is the previous stage's result (the raw input for stage 0).
	Elemental string
}

// PipeKernel is a produce → consume hot-loop chain in pipePar form.
type PipeKernel struct {
	// App and Loop mirror ExecKernel labeling.
	App, Loop string
	// Prelude defines the helpers and constants the stages capture.
	Prelude string
	// Stages in produce → consume order.
	Stages []PipeStage
	// N is the full-scale element count (scaled by the active Scale).
	N int
	// Input generates raw input element i (the packed pixel stream).
	Input func(i int) float64
	// WantPairs is the number of produce → consume pairs the
	// core.PipePairDetector must find in PairProgram (the setup loop
	// feeding stage 1, plus each adjacent stage pair).
	WantPairs int
}

// ImagePipe returns the decode → filter → encode pipeline workload.
func ImagePipe() PipeKernel {
	return PipeKernel{
		App:  "CamanJS",
		Loop: "decode/filter/encode pixel pipeline",
		Prelude: `
var GAMMA_N = 24;
function srgbExpand(v) {
  var c = v / 255;
  var acc = c;
  for (var g = 0; g < GAMMA_N; g++) { acc = acc * 0.92 + c * c * 0.08; }
  return acc;
}
function toneCurve(l) {
  var t = l;
  for (var g = 0; g < GAMMA_N; g++) { t = t + Math.sin(t * 3.1) * 0.01; }
  return t < 0 ? 0 : (t > 1 ? 1 : t);
}
function ditherByte(v, i) {
  var d = v * 255 + ((i * 7) % 4) * 0.25 - 0.375;
  d = d < 0 ? 0 : (d > 255 ? 255 : d);
  return d - d % 1;
}`,
		Stages: []PipeStage{
			{Name: "decode", Elemental: `function (x, i) {
  var r = (x * 7 + i) % 256;
  var g = (x * 13 + i * 3) % 256;
  var b = (x * 29 + i * 7) % 256;
  return srgbExpand(r) * 0.2126 + srgbExpand(g) * 0.7152 + srgbExpand(b) * 0.0722;
}`},
			{Name: "filter", Elemental: `function (x, i) {
  return toneCurve(x * 1.18 + 0.04);
}`},
			{Name: "encode", Elemental: `function (x, i) {
  return ditherByte(x, i);
}`},
		},
		N:     4096,
		Input: func(i int) float64 { return float64((i * 31) % 251) },
		// setup → decode, decode → filter, filter → encode.
		WantPairs: 3,
	}
}

// PairProgram renders the kernel as raw dependent for-loops — the form
// a page author actually writes, and the form core.PipePairDetector
// analyzes. Loop 1 packs the raw input; loops 2..k+1 are the stages,
// each pushing into its own output array after reading its
// predecessor's. n is the element count (callers pass a scaled-down n;
// the detector's answer is count-independent beyond n >= 1).
func (pk PipeKernel) PairProgram(n int) string {
	src := pk.Prelude + "\nvar __s0 = [];\n"
	src += "for (var q = 0; q < " + itoa(n) + "; q++) { __s0.push((q * 31) % 251); }\n"
	for s, st := range pk.Stages {
		src += "var __f" + itoa(s+1) + " = " + st.Elemental + ";\n"
		src += "var __s" + itoa(s+1) + " = [];\n"
		src += "for (var i = 0; i < " + itoa(n) + "; i++) { __s" + itoa(s+1) +
			".push(__f" + itoa(s+1) + "(__s" + itoa(s) + "[i], i)); }\n"
	}
	return src
}

func itoa(n int) string { return strconv.Itoa(n) }
