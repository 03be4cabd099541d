package rivertrail

// The equivalence internal/autopar's design rests on: a map is a
// one-stage pipeline. pa.mapPar(f) and pa.pipePar(f) run one spine, so
// everything a page can observe — output, console, thrown error, and the
// report apart from the method's own name and the per-stage telemetry —
// must be identical, at every worker count and static mode.

import (
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/autopar"
	"repro/internal/js/value"
	"repro/internal/workloads"
)

// raceIndexRE strips what a worker-side abort reason owes to the
// scheduler race rather than to the operation: which worker's chunk
// faulted first, and at which of its elements.
var raceIndexRE = regexp.MustCompile(`(worker |kernel\()\d+`)

// normalized clears the Report fields the two spellings may differ in:
// the four the operation name implies, plus steal counts (timing) and
// the raced indices of an abort reason.
func normalized(r Report) Report {
	r.Op, r.Stages, r.Batches, r.StageVerdicts = "", 0, 0, nil
	r.Steals = 0
	r.AbortReason = raceIndexRE.ReplaceAllString(r.AbortReason, "${1}N")
	return r
}

func TestMapIsOneStagePipeline(t *testing.T) {
	type program struct {
		name, setup, elemental string
		raw                    []value.Value
	}
	var programs []program
	for _, pc := range pipeCorpus {
		if len(pc.stages) != 1 {
			continue
		}
		programs = append(programs, program{name: pc.name, setup: rawProgram(pc.prelude, pc.input, pc.n), elemental: pc.stages[0]})
	}
	workloads.SetScale(workloads.Scale{Div: 8})
	defer workloads.SetScale(workloads.FullScale)
	for _, ek := range workloads.ExecKernels() {
		raw := make([]value.Value, workloads.CurrentScale().N(ek.N))
		for i := range raw {
			raw[i] = value.Number(ek.Input(i))
		}
		programs = append(programs, program{name: ek.Loop, setup: ek.Prelude + "\n", elemental: ek.Elemental, raw: raw})
	}
	if len(programs) < 16 {
		t.Fatalf("only %d one-stage programs; the corpus lost its single-stage entries", len(programs))
	}

	for _, p := range programs {
		for _, static := range []autopar.StaticMode{autopar.StaticOff, autopar.StaticAssist, autopar.StaticStrict} {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", p.name, static, workers), func(t *testing.T) {
					opts := pipePipeOpts(static)
					opts.Workers = workers
					stage := []string{p.elemental}
					m := runProgram(p.setup+opProgram("mapPar", stage), opts, p.raw)
					pp := runProgram(p.setup+opProgram("pipePar", stage), opts, p.raw)
					if m.errStr != pp.errStr || m.sig != pp.sig || m.console != pp.console {
						t.Fatalf("observable divergence:\n  mapPar:  err %q sig %q console %q\n  pipePar: err %q sig %q console %q",
							m.errStr, m.sig, m.console, pp.errStr, pp.sig, pp.console)
					}
					if m.errStr != "" {
						return
					}
					if m.report.Op != "mapPar" || pp.report.Op != "pipePar" {
						t.Fatalf("ops = %q, %q", m.report.Op, pp.report.Op)
					}
					if a, b := normalized(m.report), normalized(pp.report); !reflect.DeepEqual(a, b) {
						t.Fatalf("report divergence:\n  mapPar:  %+v\n  pipePar: %+v", a, b)
					}
				})
			}
		}
	}
}
