package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/browser"
	"repro/internal/study"
	"repro/internal/workloads"
)

// studyInst is the paper's own use of the system: the 12 Table-1 apps
// under the light and the deep analysis, 24 jobs on W workers.
type studyInst struct {
	cfg   runConfig
	apps  []*workloads.Workload
	got   []string // rendered results of each pass, not yet compared
	last  *study.RunReport
	tr    *tracer // tracer of the pass in flight
	trMu  sync.Mutex
	trReq int64
}

// studyApps picks the pass: all 12 apps at full size, only the four
// cheapest when the run is scaled far down (the smoke test).
func studyApps(cfg runConfig) []*workloads.Workload {
	all := workloads.All()
	if cfg.scale >= 0.1 {
		return all
	}
	var small []*workloads.Workload
	for _, wl := range all {
		switch wl.Name {
		case "Harmony", "Ace", "MyScript", "sigma.js":
			small = append(small, wl)
		}
	}
	return small
}

func setupStudy(cfg runConfig) (instance, error) {
	workloads.SetScale(workloads.Scale{Div: studyDiv(cfg)})
	s := &studyInst{cfg: cfg, apps: studyApps(cfg)}
	// Each job's drive phase is timed from here: Drive is the one call
	// into a job the orchestrator leaves to its caller.
	for _, wl := range s.apps {
		drive, name := wl.Drive, wl.Name
		wl.Drive = func(w *browser.Window) error {
			t0 := time.Now()
			err := drive(w)
			s.trMu.Lock()
			tr, req := s.tr, s.trReq
			s.trMu.Unlock()
			tr.add("job_drive:"+name, req, t0, time.Now())
			return err
		}
	}
	// Warm-up: one pass parses every source into the process-wide cache
	// and grows the heap to its working size.
	if rr := s.round(nil); rr.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed", rr.failed, rr.attempted)
	}
	return s, nil
}

func (s *studyInst) pass(workers int) (*study.RunReport, error) {
	return study.Orchestrate(context.Background(), study.Options{Seed: s.cfg.seed, Workers: workers, Workloads: s.apps})
}

// round is one pass. An operation is a job, and what a user of the case
// study waits for is the pass, so the pass wall is the round's one
// latency sample; the median job wall would sit on the boundary between
// the 12 light jobs and the 12 deep ones.
func (s *studyInst) round(tr *tracer) roundResult {
	s.trMu.Lock()
	s.tr, s.trReq = tr, s.trReq+1
	req := s.trReq
	s.trMu.Unlock()
	t0 := time.Now()
	rep, _ := s.pass(s.cfg.w) // job errors are in rep.Timings
	tr.add("study_pass", req, t0, t0.Add(rep.Wall))
	rr := roundResult{wall: rep.Wall, attempted: len(rep.Timings), lat: []time.Duration{rep.Wall}}
	for _, jt := range rep.Timings {
		if jt.Err != nil {
			rr.failed++
		}
	}
	rr.ops = float64(rr.attempted - rr.failed)
	rr.opsPerS = rr.ops / rep.Wall.Seconds()
	s.got = append(s.got, renderStudy(rep))
	s.last = rep
	return rr
}

// renderStudy prints everything a pass computed, in Table 1 order, so
// that two passes can be compared as text.
func renderStudy(rep *study.RunReport) string {
	out := ""
	for _, r := range rep.Results {
		out += fmt.Sprintf("%s %+v %+v %v %v %v %v\n", r.Workload.Name, r.Table2, r.Nests,
			r.PolymorphicVars, r.AmdahlEasy, r.Amdahl16, r.AmdahlBreakable)
	}
	return out
}

// verify holds every W-worker pass to the 1-worker pass of the same
// seed; a differing pass fails all its jobs.
func (s *studyInst) verify() (int, error) {
	rep, err := s.pass(1)
	if err != nil {
		return len(rep.Timings), fmt.Errorf("1-worker pass: %w", err)
	}
	want := renderStudy(rep)
	failed := 0
	for _, got := range s.got {
		if got != want {
			failed += len(rep.Timings)
			err = fmt.Errorf("results at %d workers differ from the 1-worker pass", s.cfg.w)
		}
	}
	s.got = nil
	return failed, err
}

// layers splits the traced pass by mode and measures what the hooks
// cost over the bare interpreter.
func (s *studyInst) layers(m measured, spans []span, traced roundResult) {
	rep := s.last
	var busy [2]time.Duration
	var slowest time.Duration
	for _, jt := range rep.Timings {
		if jt.Mode == study.ModeLight || jt.Mode == study.ModeDeep {
			busy[jt.Mode] += jt.Wall
		}
		slowest = max(slowest, jt.Wall)
	}
	m.set("study.pass_s", rep.Wall.Seconds())
	m.set("study.light_busy_s", busy[study.ModeLight].Seconds())
	m.set("study.deep_busy_s", busy[study.ModeDeep].Seconds())
	m.set("study.pool_efficiency", ratio((busy[0]+busy[1]).Seconds(), float64(rep.Workers)*rep.Wall.Seconds()))
	m.set("study.slowest_job_share", ratio(slowest.Seconds(), rep.Wall.Seconds()))
	m.set("study.steals", float64(rep.Sched.Steals))

	var bare, light, deep time.Duration
	var steps int64
	for _, wl := range s.apps {
		in := workloads.NewInterp(s.cfg.seed)
		t0 := time.Now()
		if _, err := workloads.Run(wl, in); err != nil {
			return
		}
		bare += time.Since(t0)
		steps += in.Steps()
		t0 = time.Now()
		if _, err := study.RunLight(wl, s.cfg.seed); err != nil {
			return
		}
		light += time.Since(t0)
		t0 = time.Now()
		if _, err := study.RunDeep(wl, s.cfg.seed); err != nil {
			return
		}
		deep += time.Since(t0)
	}
	m.set("js.unhooked_msteps_per_s", ratio(float64(steps)/1e6, bare.Seconds()))
	m.set("core.light_hook_ratio", ratio(light.Seconds(), bare.Seconds()))
	m.set("core.deep_hook_ratio", ratio(deep.Seconds(), bare.Seconds()))
}

func (s *studyInst) close() {}
