package study

// Pipeline-ladder validation: the image workload must stream
// byte-identically at every worker count and against the chained-mapPar
// baseline, the detector must find the produce → consume pairs in the
// raw-loop form, and the stage verdicts must all be proven (the
// workload is written inside the speculation contract on purpose).

import (
	"testing"

	"repro/internal/autopar"
	"repro/internal/workloads"
)

func TestRunPipeAllByteIdenticalAndDetected(t *testing.T) {
	workloads.SetScale(workloads.Scale{Div: 8})
	defer workloads.SetScale(workloads.FullScale)

	rows, counts, err := RunPipeAll(7, []int{2, 1, 2}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("normalized counts = %v, want [1 2]", counts)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if !r.Identical {
		t.Errorf("outputs not byte-identical: %s", r.AbortReason)
	}
	if !r.Parallel {
		t.Errorf("pipeline did not stream: %s", r.AbortReason)
	}
	if r.Stages != 3 || r.Batches == 0 {
		t.Errorf("missing dispatch telemetry: %+v", r)
	}
	if r.PairsFound != r.PairsWant {
		t.Errorf("detector found %d pairs, want %d", r.PairsFound, r.PairsWant)
	}
	if len(r.StageVerdicts) != 3 {
		t.Fatalf("stage verdicts = %v, want 3", r.StageVerdicts)
	}
	for s, v := range r.StageVerdicts {
		if v != "proven" {
			t.Errorf("stage %d verdict = %q, want proven", s, v)
		}
	}
	if r.PipeMS[1] <= 0 || r.PipeMS[2] <= 0 || r.ChainMS[1] <= 0 || r.ChainMS[2] <= 0 {
		t.Errorf("missing wall-clock measurements: pipe %v chain %v", r.PipeMS, r.ChainMS)
	}
}

func TestPipeOnceStaticAssistElidesGuards(t *testing.T) {
	workloads.SetScale(workloads.Scale{Div: 8})
	defer workloads.SetScale(workloads.FullScale)

	pk := workloads.ImagePipe()
	n := workloads.CurrentScale().N(pk.N)
	opts := autopar.Options{Workers: 2, Static: autopar.StaticAssist}
	sig, rep, _, err := measureOnce(pk, n, 7, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GuardElided || !rep.Parallel {
		t.Fatalf("proven stages did not stream guard-free: %+v", rep)
	}
	seqSig, _, _, err := measureOnce(pk, n, 7, autopar.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if sig != seqSig {
		t.Fatal("guard-elided pipeline diverged from sequential")
	}
}
