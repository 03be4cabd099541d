package study

// ModeExec validation: every convertible workload kernel must execute
// byte-identically at every worker count, with the autopar Verify shadow
// cross-check armed — the misspeculation-fallback safety contract, under
// -race in CI. The image pipeline runs fused, its detector must find
// the produce → consume pairs in the raw-loop form, and its stage
// verdicts must all be proven (the workload is written inside the
// speculation contract on purpose).

import (
	"testing"

	"repro/internal/autopar"
	"repro/internal/workloads"
)

func TestExecKernelsByteIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	for _, pk := range execKernels() {
		pk := pk
		fused := len(pk.Stages) > 1
		t.Run(pk.App, func(t *testing.T) {
			n := workloads.QuickScale.N(pk.N)
			base, err := measureOnce(pk, n, 7, autopar.Options{Workers: 1}, fused)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if !base.oc.Pure {
				t.Fatalf("convertible kernel not pure sequentially: %+v", base.oc)
			}
			for _, w := range []int{2, 4} {
				m, err := measureOnce(pk, n, 7, autopar.Options{Workers: w, Verify: true}, fused)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if m.sig != base.sig {
					t.Errorf("workers=%d output diverged from sequential", w)
				}
				if !m.oc.Parallel || m.oc.Workers < 2 {
					t.Errorf("workers=%d did not speculate: %+v", w, m.oc)
				}
				if m.oc.AbortReason != "" {
					t.Errorf("workers=%d aborted: %s", w, m.oc.AbortReason)
				}
			}
		})
	}
}

// TestRunExecAllReportsSpeedupAndBounds runs serially: its rows are
// wall-clock measurements, which tests beside it would skew.
func TestRunExecAllReportsSpeedupAndBounds(t *testing.T) {
	rows, counts, err := RunExecAll(7, workloads.Scale{Div: 8}, []int{2, 1, 2}, autopar.StaticOff)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("normalized counts = %v, want [1 2]", counts)
	}
	if len(rows) != len(workloads.ExecKernels())+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(workloads.ExecKernels())+1)
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: outputs not byte-identical: %s", r.App, r.AbortReason)
		}
		if !r.Parallel {
			t.Errorf("%s: speculation did not engage: %s", r.App, r.AbortReason)
		}
		if r.WallMS[1] <= 0 || r.WallMS[2] <= 0 {
			t.Errorf("%s: missing wall-clock measurements: %+v", r.App, r.WallMS)
		}
		if _, ok := r.Speedup[2]; !ok {
			t.Errorf("%s: missing speedup at 2 workers", r.App)
		}
		if r.Amdahl16 <= 0 {
			t.Errorf("%s: missing ModeDeep Amdahl bound", r.App)
		}
		if r.Chunks[2] == 0 {
			t.Errorf("%s: missing dispatch telemetry: %+v", r.App, r.Chunks)
		}
		if len(r.StageVerdicts) != r.Stages {
			t.Fatalf("%s: stage verdicts = %v, want %d", r.App, r.StageVerdicts, r.Stages)
		}
		for s, v := range r.StageVerdicts {
			if v != "proven" {
				t.Errorf("%s: stage %d verdict = %q, want proven", r.App, s, v)
			}
		}
		if r.Stages == 1 {
			if r.ChainMS != nil || r.PairsWant != 0 {
				t.Errorf("%s: one-stage row has pipeline columns: %+v", r.App, r)
			}
			continue
		}
		if r.ChainMS[1] <= 0 || r.ChainMS[2] <= 0 {
			t.Errorf("%s: missing chained-mapPar measurements: %v", r.App, r.ChainMS)
		}
		if r.PairsFound != 3 || r.PairsWant != 3 {
			t.Errorf("%s: detector found %d/%d pairs, want 3/3", r.App, r.PairsFound, r.PairsWant)
		}
	}
	if last := rows[len(rows)-1]; last.Stages != 3 {
		t.Errorf("last row is not the 3-stage pipeline: %+v", last)
	}
}

func TestPipeOnceStaticAssistElidesGuards(t *testing.T) {
	t.Parallel()
	pk := workloads.ImagePipe()
	n := workloads.Scale{Div: 8}.N(pk.N)
	opts := autopar.Options{Workers: 2, Static: autopar.StaticAssist}
	m, err := measureOnce(pk, n, 7, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	if !m.oc.GuardElided || !m.oc.Parallel {
		t.Fatalf("proven stages did not stream guard-free: %+v", m.oc)
	}
	seq, err := measureOnce(pk, n, 7, autopar.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.sig != seq.sig {
		t.Fatal("guard-elided pipeline diverged from sequential")
	}
}
