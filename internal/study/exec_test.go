package study

// ModeExec validation: every convertible workload kernel must execute
// byte-identically at every worker count, with the autopar Verify shadow
// cross-check armed — the misspeculation-fallback safety contract, under
// -race in CI.

import (
	"testing"

	"repro/internal/autopar"
	"repro/internal/workloads"
)

func TestExecKernelsByteIdenticalAcrossWorkers(t *testing.T) {
	workloads.SetScale(workloads.QuickScale)
	defer workloads.SetScale(workloads.FullScale)

	for _, ek := range workloads.ExecKernels() {
		ek := ek
		t.Run(ek.App, func(t *testing.T) {
			n := workloads.CurrentScale().N(ek.N)
			baseSig, baseRep, _, err := measureOnce(onePipe(ek), n, 7, autopar.Options{Workers: 1}, false)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if !baseRep.Pure {
				t.Fatalf("convertible kernel not pure sequentially: %+v", baseRep)
			}
			for _, w := range []int{2, 4} {
				sig, rep, _, err := measureOnce(onePipe(ek), n, 7, autopar.Options{Workers: w, Verify: true}, false)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if sig != baseSig {
					t.Errorf("workers=%d output diverged from sequential", w)
				}
				if !rep.Parallel || rep.Workers < 2 {
					t.Errorf("workers=%d did not speculate: %+v", w, rep)
				}
				if rep.AbortReason != "" {
					t.Errorf("workers=%d aborted: %s", w, rep.AbortReason)
				}
			}
		})
	}
}

func TestRunExecAllReportsSpeedupAndBounds(t *testing.T) {
	workloads.SetScale(workloads.Scale{Div: 8})
	defer workloads.SetScale(workloads.FullScale)

	rows, counts, err := RunExecAll(7, []int{2, 1, 2}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("normalized counts = %v, want [1 2]", counts)
	}
	if len(rows) != len(workloads.ExecKernels()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(workloads.ExecKernels()))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: outputs not byte-identical", r.App)
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
	}
}

func TestModeExecString(t *testing.T) {
	if ModeExec.String() != "exec" {
		t.Errorf("ModeExec.String() = %q", ModeExec.String())
	}
}
