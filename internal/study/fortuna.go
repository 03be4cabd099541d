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

// FortunaRow is one application's task-level limit result. Work and
// critical path are virtual nanoseconds, as TaskGraph measures them.
type FortunaRow struct {
	App    string
	Tasks  int
	Edges  int // dependence edges between tasks
	Limit  float64
	WorkNS int64
	CritNS int64
}

// RunFortunaAll computes the baseline at scale s for every Table 1
// workload plus the LegacyPage control: a page-centric site with
// independent widgets, the kind of workload where Fortuna et al. found
// their task-level speedups.
func RunFortunaAll(seed uint64, s workloads.Scale) ([]FortunaRow, error) {
	apps := append(workloads.AllAt(s), workloads.LegacyPage(s))
	var out []FortunaRow
	for _, wl := range apps {
		g, err := RunFortuna(wl, seed)
		if err != nil {
			return nil, err
		}
		edges := 0
		for _, task := range g.Tasks {
			edges += len(task.Deps)
		}
		out = append(out, FortunaRow{
			App:    wl.Name,
			Tasks:  len(g.Tasks),
			Edges:  edges,
			Limit:  g.SpeedupLimit(),
			WorkNS: g.TotalWork(),
			CritNS: g.CriticalPath(),
		})
	}
	return out, nil
}
