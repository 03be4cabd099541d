package study

import (
	"repro/internal/browser"
	"repro/internal/workloads"
)

// RunFortuna runs a workload under the task-graph collector, reproducing
// the Fortuna et al. limit-study baseline the paper positions itself
// against (§6): how much speedup is available from independent event-loop
// tasks, as opposed to loop iterations.
func RunFortuna(wl *workloads.Workload, seed uint64) (*TaskGraph, error) {
	in := workloads.NewInterp(seed)
	col := NewTaskCollector(in)
	in.SetHooks(col)
	_, err := workloads.RunWith(wl, in, func(w *browser.Window) {
		w.OnTask = func(label string, begin bool) {
			if begin {
				col.BeginTask(label)
			} else {
				col.EndTask()
			}
		}
	})
	if err != nil {
		return nil, err
	}
	col.EndTask()
	return col.Graph(), nil
}

// FortunaRow is one application's task-level limit result.
type FortunaRow struct {
	App    string
	Tasks  int
	Limit  float64
	WorkMS float64
	CritMS float64
}

// RunFortunaAll computes the baseline for every Table 1 workload plus the
// LegacyPage control: a page-centric site with independent widgets, the
// kind of workload where Fortuna et al. found their task-level speedups.
func RunFortunaAll(seed uint64) ([]FortunaRow, error) {
	apps := append(workloads.All(), workloads.LegacyPage())
	var out []FortunaRow
	for _, wl := range apps {
		g, err := RunFortuna(wl, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, FortunaRow{
			App:    wl.Name,
			Tasks:  len(g.Tasks),
			Limit:  g.SpeedupLimit(),
			WorkMS: float64(g.TotalWork()) / 1e6,
			CritMS: float64(g.CriticalPath()) / 1e6,
		})
	}
	return out, nil
}
