package rivertrail

// FuzzPipelineDifferential mutates the pipeline conformance corpus and
// holds the pipelined execution to the sequential oracle: byte-identical
// signature, identical error string and console stream, and matching
// guard verdicts (modulo the documented implicit-global asymmetry). The
// fuzzer owns the program shape — prelude, per-index input expression,
// up to three stage sources and the element-wise method that runs them
// (pipePar, or mapPar/filterPar over the first) — so it can invent
// impurity patterns, mid-stream throws and serialization limits the
// corpus never wrote down. CI runs a 30 s smoke alongside
// FuzzInterpDifferential.

import (
	"strings"
	"testing"

	"repro/internal/autopar"
)

// fuzzPipeMaxSrc bounds the assembled source; larger mutants spend the
// budget parsing, not differencing.
const fuzzPipeMaxSrc = 4096

// fuzzMethods are the element-wise methods the fuzzer's op byte picks
// from — all one spine, so all one oracle.
var fuzzMethods = []string{"pipePar", "mapPar", "filterPar"}

func FuzzPipelineDifferential(f *testing.F) {
	for _, pc := range pipeCorpus {
		s2, s3 := "", ""
		if len(pc.stages) > 1 {
			s2 = pc.stages[1]
		}
		if len(pc.stages) > 2 {
			s3 = pc.stages[2]
		}
		f.Add(pc.prelude, pc.input, pc.stages[0], s2, s3, uint16(pc.n), uint8(0))
		if len(pc.stages) == 1 {
			f.Add(pc.prelude, pc.input, pc.stages[0], "", "", uint16(pc.n), uint8(1))
		}
	}
	f.Add("var cut = 3;", "qi", "function (x, i) { return x % cut; }", "", "", uint16(150), uint8(2))
	f.Fuzz(func(t *testing.T, prelude, input, s1, s2, s3 string, n uint16, op uint8) {
		stages := []string{s1}
		if s2 != "" {
			stages = append(stages, s2)
		}
		if s3 != "" {
			stages = append(stages, s3)
		}
		src := assemblePipeProgram(prelude, input, fuzzMethods[int(op)%len(fuzzMethods)], stages, int(n)%256)
		if len(src) > fuzzPipeMaxSrc {
			t.Skip("oversize input")
		}
		seq := runPipeProgram(src, pipeSeqOpts(autopar.StaticOff))
		pipe := runPipeProgram(src, pipePipeOpts(autopar.StaticOff))
		// The two strategies spend main-interpreter steps differently
		// (profile slice + Verify shadow vs. the full guarded run), so a
		// program that exhausts the budget on either side has no
		// comparable oracle — the budget exists to stop hangs, not to be
		// an observable.
		if seq.stepLimited || pipe.stepLimited {
			t.Skip("step budget exhausted")
		}
		if seq.errStr != pipe.errStr {
			t.Fatalf("error divergence:\n  sequential: %q\n  pipelined:  %q\nsource:\n%s", seq.errStr, pipe.errStr, src)
		}
		if seq.errStr != "" {
			return
		}
		if seq.sig != pipe.sig {
			t.Fatalf("output divergence:\n  sequential: %q\n  pipelined:  %q\nsource:\n%s", seq.sig, pipe.sig, src)
		}
		if seq.console != pipe.console {
			t.Fatalf("console divergence:\n  sequential: %q\n  pipelined:  %q\nsource:\n%s", seq.console, pipe.console, src)
		}
		if seq.report.Pure != pipe.report.Pure && !strings.Contains(pipe.report.AbortReason, "implicit global") {
			t.Fatalf("guard verdict divergence: sequential pure=%v, pipelined pure=%v (abort %q)\nsource:\n%s",
				seq.report.Pure, pipe.report.Pure, pipe.report.AbortReason, src)
		}
		if pipe.report.Misspeculated {
			t.Fatalf("misspeculation surfaced through Verify instead of the guard\nsource:\n%s", src)
		}
	})
}
