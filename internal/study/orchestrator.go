package study

// This file is the concurrent case-study scheduler. The paper runs each
// Table 1 workload through the staged JS-CERES modes one after another;
// here the (workload × analysis-mode) grid becomes a pool of independent
// jobs — share-nothing interpreter instances per job, exactly the model
// internal/parallel uses for loop iterations — so the whole study scales
// with cores while producing output byte-identical to the sequential run.
//
// Scheduling goes through internal/sched at job granularity (a unit
// chunk plan): deep jobs cost an order of magnitude more than light
// ones and the spread across apps is wide, so claiming jobs one at a
// time in order — not a static job split — is what keeps the pool busy
// to the last job. Job
// results land in index-addressed slots and merge in input order, which
// is why the schedule never shows in the output.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/workloads"
)

// Mode selects which instrumentation stage a job runs.
type Mode int

const (
	// ModeLight is the §3.1 lightweight profile that fills Table 2.
	ModeLight Mode = iota
	// ModeDeep is the §3.2 loop profile + §3.3 dependence analysis that
	// fills Table 3 and the Amdahl bounds.
	ModeDeep
)

func (m Mode) String() string {
	switch m {
	case ModeLight:
		return "light"
	case ModeDeep:
		return "deep"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Job is one unit of orchestrator work: one workload under one mode.
type Job struct {
	Workload *workloads.Workload
	Mode     Mode
}

// JobTiming records the wall-clock cost and outcome of one job.
type JobTiming struct {
	App  string
	Mode Mode
	Wall time.Duration
	Err  error
}

// Options configures Orchestrate.
type Options struct {
	// Seed feeds every job's deterministic interpreter.
	Seed uint64
	// Workers is the pool size; <= 0 means GOMAXPROCS, 1 is sequential.
	Workers int
	// Workloads are the apps to run, each built at its scale;
	// casestudy passes workloads.AllAt (Table 1 order).
	Workloads []*workloads.Workload
}

// RunReport is the orchestrator outcome: merged per-app results plus the
// scheduling telemetry the -workers wall-clock report prints.
type RunReport struct {
	// Results holds one AppResult per workload whose jobs all succeeded,
	// in input (Table 1) order — independent of scheduling.
	Results []*AppResult
	// Timings has one entry per job in submission order (light before
	// deep for each app).
	Timings []JobTiming
	// Workers is the resolved pool size.
	Workers int
	// Wall is the end-to-end orchestration time.
	Wall time.Duration
	// Sched is the job scheduler's telemetry (chunk counters). Its
	// per-worker tallies are timing-dependent; they never feed the
	// deterministic tables.
	Sched sched.Stats
}

// Orchestrate runs every (workload × mode) job on a worker pool and
// merges the results deterministically. Jobs are independent: each gets
// fresh interpreter, parser and analyzer instances, so the merge in input
// order makes concurrent output identical to the sequential baseline.
//
// Job failures do not abort the run: every job still executes (unless ctx
// is cancelled), failures are recorded per job, and the joined error
// lists all of them while Results keeps the apps that succeeded.
func Orchestrate(ctx context.Context, opts Options) (*RunReport, error) {
	wls := opts.Workloads
	jobs := make([]Job, 0, 2*len(wls))
	for _, wl := range wls {
		jobs = append(jobs, Job{wl, ModeLight}, Job{wl, ModeDeep})
	}

	// Per-job output slots: jobs[2*wi] is wls[wi] light, jobs[2*wi+1] deep.
	// Index-addressed writes + input-order merge = the schedule never
	// shows in the output.
	t2s := make([]Table2Row, len(wls))
	deeps := make([]*AppResult, len(wls))
	timings := make([]JobTiming, len(jobs))

	start := time.Now()
	// One chunk per job: jobs are coarse (whole instrumented app runs),
	// so claims balance at job granularity. Job errors are recorded
	// per slot, never returned to the scheduler — a broken app must not
	// cancel its siblings (error aggregation, contract 3 in DESIGN.md).
	stats, _ := sched.RunPlan(sched.UnitPlan(len(jobs)), sched.Options{Workers: opts.Workers}, func(w, ci, lo, hi int) error {
		for ji := lo; ji < hi; ji++ {
			job := jobs[ji]
			t0 := time.Now()
			err := ctx.Err()
			if err == nil {
				switch job.Mode {
				case ModeLight:
					t2s[ji/2], err = RunLight(job.Workload, opts.Seed)
				case ModeDeep:
					deeps[ji/2], _, _, err = RunDeepOnly(job.Workload, opts.Seed)
				}
			}
			if err != nil {
				err = fmt.Errorf("study: %s/%s: %w", job.Workload.Name, job.Mode, err)
			}
			timings[ji] = JobTiming{App: job.Workload.Name, Mode: job.Mode, Wall: time.Since(t0), Err: err}
		}
		return nil
	})

	rep := &RunReport{Timings: timings, Workers: stats.Workers, Wall: time.Since(start), Sched: stats}
	var errs []error
	for wi := range wls {
		lightErr := timings[2*wi].Err
		deepErr := timings[2*wi+1].Err
		if lightErr != nil {
			errs = append(errs, lightErr)
		}
		if deepErr != nil {
			errs = append(errs, deepErr)
		}
		if lightErr != nil || deepErr != nil {
			continue
		}
		res := deeps[wi]
		res.Table2 = t2s[wi]
		rep.Results = append(rep.Results, res)
	}
	if len(errs) > 0 {
		return rep, errors.Join(errs...)
	}
	return rep, nil
}
