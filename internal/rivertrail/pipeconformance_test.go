package rivertrail_test

// Differential pipeline conformance: every produce→consume corpus
// program runs twice — pipelined (the stage chain dispatched) and
// sequential (the fused composition, guarded, on one interpreter) —
// and the two observations must agree byte-for-byte: output signature,
// error string, console stream and the guard's purity verdict. Any
// divergence is a hard failure, mirroring the engine conformance suite
// in internal/js/interp. The corpus doubles as the seed set for
// FuzzPipelineDifferential.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/autopar"
	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/rivertrail"
)

// pipeProgram is one corpus entry: prelude (captured state, helpers),
// a per-index input expression (qi is the index), and 1–3 stage
// elementals.
type pipeProgram struct {
	name    string
	prelude string
	input   string
	stages  []string
	n       int
}

var pipeCorpus = []pipeProgram{
	// --- pure numeric pipelines (must dispatch and stay identical) ---
	{"affine-chain", "", "qi", []string{
		"function (x, i) { return x * 2 + i; }",
		"function (x, i) { return x - 3; }"}, 160},
	{"three-stages", "", "qi % 23", []string{
		"function (x, i) { return x + 1; }",
		"function (x, i) { return x * x; }",
		"function (x, i) { return x % 97; }"}, 200},
	{"single-stage", "", "qi * 3", []string{
		"function (x, i) { return x / 7; }"}, 120},
	{"one-captured-helper", "var k = 3; function tw(v) { return v * k; }", "qi", []string{
		"function (x, i) { return tw(x) + i; }"}, 140},
	{"math-ambients", "", "qi + 1", []string{
		"function (x, i) { return Math.sqrt(x) + Math.sin(i); }",
		"function (x, i) { return Math.floor(x * 1000); }"}, 150},
	{"float-precision", "", "qi * 0.1", []string{
		"function (x, i) { return x * 1e15 + i; }",
		"function (x, i) { return x / 3; }"}, 130},
	{"nan-propagation", "", "qi - 5", []string{
		"function (x, i) { return x === 3 ? 0 / 0 : x; }",
		"function (x, i) { return x + 1; }"}, 90},
	{"negative-zero", "", "qi - 8", []string{
		"function (x, i) { return x * 0; }",
		"function (x, i) { return 1 / x; }"}, 100},
	{"bitwise-chain", "", "qi * 2654435761 % 4096", []string{
		"function (x, i) { return (x ^ (i * 31)) & 1023; }",
		"function (x, i) { return (x << 2) | (x >> 3); }"}, 170},
	{"mixed-types", "", "qi", []string{
		"function (x, i) { return i < 50 ? x : 's' + x; }",
		"function (x, i) { return typeof x === 'string' ? x.length : x; }"}, 140},
	{"string-build", "", "qi % 9", []string{
		"function (x, i) { return x + '-' + i; }",
		"function (x, i) { return x.length + x.charCodeAt(0); }"}, 110},
	{"undefined-holes", "", "qi", []string{
		"function (x, i) { if (x % 7 === 0) { return undefined; } return x; }",
		"function (x, i) { return x === undefined ? null : x; }"}, 120},
	{"boolean-logic", "", "qi % 2", []string{
		"function (x, i) { return x === 1 || i % 3 === 0; }",
		"function (x, i) { return x ? i : -i; }"}, 130},
	{"captured-scalar", "var scale = 7; var bias = -2;", "qi", []string{
		"function (x, i) { return x * scale; }",
		"function (x, i) { return x + bias; }"}, 150},
	{"captured-flat-array", "var lut = [3, 1, 4, 1, 5, 9, 2, 6];", "qi", []string{
		"function (x, i) { return lut[x % 8] + x; }",
		"function (x, i) { return x * lut[i % 8]; }"}, 160},
	{"captured-helper", "function clampish(v) { return v > 100 ? 100 : v; }", "qi * 3", []string{
		"function (x, i) { return clampish(x); }",
		"function (x, i) { return clampish(x + i); }"}, 140},
	{"recursive-helper", "function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); }", "qi % 10", []string{
		"function (x, i) { return fact(x) % 1009; }",
		"function (x, i) { return x + 1; }"}, 120},
	{"shared-readonly-capture", "var k = 13;", "qi", []string{
		"function (x, i) { return x + k; }",
		"function (x, i) { return x - k; }"}, 130},
	{"empty-input", "", "qi", []string{
		"function (x, i) { return x; }",
		"function (x, i) { return x + 1; }"}, 0},
	{"tiny-input", "", "qi", []string{
		"function (x, i) { return x * 2; }",
		"function (x, i) { return x + 1; }"}, 3},

	// --- impurity: the guard must give the same verdict either way ---
	{"impure-a-immediate", "var hits = 0;", "qi", []string{
		"function (x, i) { hits = hits + 1; return x; }",
		"function (x, i) { return x * 2; }"}, 120},
	{"impure-a-midstream", "var late = 0;", "qi", []string{
		"function (x, i) { if (i >= 90) { late = late + x; } return x + 1; }",
		"function (x, i) { return x * 2; }"}, 180},
	{"impure-b-midstream", "var tail = 0;", "qi", []string{
		"function (x, i) { return x + 1; }",
		"function (x, i) { if (i >= 100) { tail = tail + 1; } return x * 3; }"}, 200},
	{"impure-both-stages", "var a = 0; var b = 0;", "qi", []string{
		"function (x, i) { if (i > 60) { a = i; } return x; }",
		"function (x, i) { if (i > 60) { b = i; } return x; }"}, 150},
	{"impure-object-prop", "var cfg = {count: 0};", "qi", []string{
		"function (x, i) { return x * 2; }",
		"function (x, i) { if (i >= 80) { cfg.count = i; } return x; }"}, 160},
	{"implicit-global-write", "", "qi", []string{
		"function (x, i) { if (i >= 70) { stray = x; } return x; }",
		"function (x, i) { return x + 1; }"}, 140},
	{"flow-through-capture", "var carry = 0;", "qi", []string{
		"function (x, i) { if (i >= 96) { carry = x; } return x + carry; }",
		"function (x, i) { return x * 2; }"}, 180},

	{"one-impure-midstream", "var late = 0;", "qi", []string{
		"function (x, i) { if (i >= 90) { late = late + x; } return x + 1; }"}, 180},
	{"one-refuted-global-write", "var g = 0;", "qi", []string{
		"function (x, i) { g = g + x; return g; }"}, 100},
	{"one-unknown-this", "", "qi", []string{
		"function (x, i) { if (false) { return this.x; } return x + 1; }"}, 130},

	// --- throws: identical error strings either way ---
	{"one-throw-midstream", "", "qi", []string{
		"function (x, i) { if (i === 111) { throw 'only stage at ' + i; } return x + 1; }"}, 190},
	{"throw-immediately", "", "qi", []string{
		"function (x, i) { if (i === 0) { throw 'first element'; } return x; }",
		"function (x, i) { return x; }"}, 100},
	{"throw-a-midstream", "", "qi", []string{
		"function (x, i) { if (i === 111) { throw 'stage A at ' + i; } return x + 1; }",
		"function (x, i) { return x * 2; }"}, 190},
	{"throw-b-midstream", "", "qi", []string{
		"function (x, i) { return x + 1; }",
		"function (x, i) { if (i === 123) { throw 'stage B at ' + i; } return x; }"}, 200},
	{"throw-type-error", "", "qi", []string{
		"function (x, i) { var o = i > 95 ? null : {v: 1}; return o.v + x; }",
		"function (x, i) { return x; }"}, 160},
	{"non-function-stage", "var notAFunction = 42;", "qi",
		[]string{"function (x, i) { return x; }", "notAFunction"}, 90},

	// --- serialization limits: abort to sequential, still identical ---
	{"one-object-result", "", "qi", []string{
		"function (x, i) { if (i >= 90) { return {v: x}; } return x; }"}, 170},
	{"one-object-capture", "var cfg = {k: 2};", "qi", []string{
		"function (x, i) { return x * cfg.k; }"}, 120},
	{"one-console", "", "qi", []string{
		"function (x, i) { if (i % 50 === 0) { console.log('at', i); } return x; }"}, 130},
	{"object-result-midstream", "", "qi", []string{
		"function (x, i) { if (i >= 90) { return {v: x}; } return x; }",
		"function (x, i) { return typeof x === 'object' ? x.v + 1 : x; }"}, 170},
	{"object-elements", "", "({v: qi})", []string{
		"function (x, i) { return x.v * 2; }",
		"function (x, i) { return x + 1; }"}, 120},
	{"console-in-stage", "", "qi", []string{
		"function (x, i) { if (i % 40 === 0) { console.log('at', i); } return x; }",
		"function (x, i) { return x + 1; }"}, 130},
	{"math-random-in-stage", "", "qi", []string{
		"function (x, i) { return x + Math.random(); }",
		"function (x, i) { return Math.floor(x * 100); }"}, 110},
}

// Step budget for both engines: generous for the corpus, a hang guard
// for fuzzed programs. Worker interpreters inherit it from the main one.
const pipeDiffMaxSteps = 4_000_000

// pipeObs is one run's observable outcome.
type pipeObs struct {
	errStr      string
	sig         string
	console     string
	stepLimited bool
	report      autopar.Outcome // the operation's outcome; zero when the run threw
}

// pipeSeqOpts is the sequential reference: one interpreter, fused
// composition, fully guarded.
func pipeSeqOpts(static autopar.StaticMode) autopar.Options {
	return autopar.Options{Workers: 1, Static: static}
}

// pipePipeOpts dispatches on four workers.
func pipePipeOpts(static autopar.StaticMode) autopar.Options {
	return autopar.Options{Workers: 4, Static: static}
}

// assemblePipeProgram builds the full JS source for one corpus shape
// run through one ParallelArray method.
func assemblePipeProgram(prelude, input, method string, stages []string, n int) string {
	return rawProgram(prelude, input, n) + opProgram(method, stages)
}

// rawProgram is the head of a corpus program: the prelude, then the
// global array raw filled from the per-index input expression.
func rawProgram(prelude, input string, n int) string {
	return prelude + "\nvar raw = [];\n" +
		"for (var qi = 0; qi < " + strconv.Itoa(n) + "; qi++) { raw.push(" + input + "); }\n"
}

// opProgram is the tail of every differential program: one
// ParallelArray method over the global array raw, then the signature.
// mapPar and filterPar read only the first stage. The signature ends
// with the final value of stray when the program made it, the implicit
// global the implicit-global-write case writes: a worker's write that
// never reached the main interpreter shows there.
func opProgram(method string, stages []string) string {
	return "var pa = ParallelArray(raw);\n" +
		"var res = pa." + method + "(" + strings.Join(stages, ", ") + ");\n" +
		"var sig = res.toArray().join(',') + (typeof stray === 'undefined' ? '' : ' stray=' + stray);\n"
}

// runPipeProgram executes one assembled program under opts and captures
// everything the differential compares.
func runPipeProgram(src string, opts autopar.Options) pipeObs {
	return runProgram(src, opts, nil)
}

// runProgram is runPipeProgram for a source that reads the global array
// raw instead of building it (raw == nil: the source builds its own).
func runProgram(src string, opts autopar.Options, raw []value.Value) pipeObs {
	prog, err := interp.Load(src)
	if err != nil {
		return pipeObs{errStr: "parse: " + err.Error()}
	}
	in := interp.New(interp.WithSeed(11), interp.WithMaxSteps(pipeDiffMaxSteps))
	st := rivertrail.Install(in)
	st.SetOptions(opts)
	if raw != nil {
		in.SetGlobal("raw", value.ObjectVal(in.NewArray(raw...)))
	}
	if err := in.Run(prog); err != nil {
		return pipeObs{
			errStr:      err.Error(),
			console:     strings.Join(in.Console(), "\n"),
			stepLimited: strings.Contains(err.Error(), "step limit exceeded"),
		}
	}
	return pipeObs{
		sig:     in.Global("sig").ToString(),
		console: strings.Join(in.Console(), "\n"),
		report:  st.Last(),
	}
}

// diffPipeRun is the shared oracle: run both ways, fail hard on any
// observable divergence. Returns the two observations for extra
// per-case assertions.
func diffPipeRun(t *testing.T, src string, static autopar.StaticMode) (seq, pipe pipeObs) {
	t.Helper()
	seq = runPipeProgram(src, pipeSeqOpts(static))
	pipe = runPipeProgram(src, pipePipeOpts(static))
	if seq.errStr != pipe.errStr {
		t.Fatalf("error divergence:\n  sequential: %q\n  pipelined:  %q", seq.errStr, pipe.errStr)
	}
	if seq.errStr != "" {
		return seq, pipe
	}
	if seq.sig != pipe.sig {
		t.Fatalf("output divergence:\n  sequential: %q\n  pipelined:  %q", seq.sig, pipe.sig)
	}
	if seq.console != pipe.console {
		t.Fatalf("console divergence:\n  sequential: %q\n  pipelined:  %q", seq.console, pipe.console)
	}
	// Guard verdicts must agree, with one documented exception: an
	// implicit global (`leak = i`, no declaration) is an in-epoch side
	// effect on the sequential path (the binding lands, pure) but a
	// deliverability violation on a share-nothing worker (guardparity
	// pins Pure=false there), so the two configurations legitimately
	// disagree — for that shape only, the output/error/console equality
	// above is the whole oracle.
	implicitGlobal := strings.Contains(pipe.report.AbortReason, "implicit global")
	if seq.report.Pure != pipe.report.Pure && !implicitGlobal {
		t.Fatalf("guard verdict divergence: sequential pure=%v, pipelined pure=%v (abort %q)", seq.report.Pure, pipe.report.Pure, pipe.report.AbortReason)
	}
	return seq, pipe
}

func TestPipelineConformance(t *testing.T) {
	for _, pc := range pipeCorpus {
		t.Run(pc.name, func(t *testing.T) {
			src := assemblePipeProgram(pc.prelude, pc.input, "pipePar", pc.stages, pc.n)
			diffPipeRun(t, src, autopar.StaticOff)
		})
	}
}

// The same corpus must also agree when the static prover is assisting
// both sides: a Proven stage elides its guard, which must never change
// a single observable byte.
func TestPipelineConformanceStaticAssist(t *testing.T) {
	for _, pc := range pipeCorpus {
		t.Run(pc.name, func(t *testing.T) {
			src := assemblePipeProgram(pc.prelude, pc.input, "pipePar", pc.stages, pc.n)
			diffPipeRun(t, src, autopar.StaticAssist)
		})
	}
}

// Sanity: the corpus is not vacuous — the pure entries really stream,
// the impure ones really trip the guard.
func TestPipelineCorpusCoverage(t *testing.T) {
	streamed, impure, errored := 0, 0, 0
	for _, pc := range pipeCorpus {
		src := assemblePipeProgram(pc.prelude, pc.input, "pipePar", pc.stages, pc.n)
		pipe := runPipeProgram(src, pipePipeOpts(autopar.StaticOff))
		switch {
		case pipe.errStr != "":
			errored++
		case !pipe.report.Pure:
			impure++
		case pipe.report.Parallel:
			streamed++
		}
	}
	t.Logf("%d programs: %d streamed, %d impure, %d errored", len(pipeCorpus), streamed, impure, errored)
	if streamed < 10 {
		t.Errorf("only %d corpus programs actually streamed; the suite is not exercising dispatch", streamed)
	}
	if impure < 5 {
		t.Errorf("only %d corpus programs tripped the guard", impure)
	}
	if errored < 4 {
		t.Errorf("only %d corpus programs errored", errored)
	}
}
