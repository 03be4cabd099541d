package study

// The task graph behind RunFortuna: the baseline the paper contrasts
// itself against, Fortuna et al.'s task-level limit study of JavaScript
// parallelism (IISWC'10, [20] in the paper). Each event-loop task
// (dispatched callback) becomes a node; a task depends on an earlier one
// when it reads state the earlier task wrote or writes state it touched
// (core.Marks). The speedup limit
// is total work over the critical path — parallelism from *independent
// tasks*, not loop iterations, which is exactly the distinction the
// paper draws in §1 and §6.

import (
	"repro/internal/core"
	"repro/internal/js/interp"
)

// Task is one dynamic event-loop task.
type Task struct {
	ID    int
	Label string
	// DurNS is the task's virtual running time.
	DurNS int64
	// Deps are IDs of earlier tasks this one must follow.
	Deps []int
}

// TaskGraph is the task dependence DAG of one application run.
type TaskGraph struct {
	Tasks []*Task
}

// TaskCollector builds a TaskGraph by observing interpreter hooks between
// task boundaries, marking each binding and object with the tasks that
// read and wrote it (core.Marks) — conservative (two tasks touching
// different elements of one array still conflict), as a limit study
// must be.
type TaskCollector struct {
	core.Marker
	clock interface{ Now() int64 }

	graph   *TaskGraph
	current *Task
	deps    core.Units // the open task's dependences, and perhaps itself
	started int64
}

// NewTaskCollector returns a collector reading the interpreter's clock;
// never install it beside core.DepAnalyzer, which shares the Aux slots.
func NewTaskCollector(in *interp.Interp) *TaskCollector {
	c := &TaskCollector{clock: in, graph: &TaskGraph{}}
	c.Marker = core.NewMarker(c.first)
	return c
}

// first orders the open task after every earlier writer of a location
// it reads, and every earlier writer and reader of one it writes.
func (c *TaskCollector) first(m *core.Marks, write bool) {
	c.deps.Or(m.Writers)
	if write {
		c.deps.Or(m.Readers)
	}
}

// Graph returns the collected task graph.
func (c *TaskCollector) Graph() *TaskGraph { return c.graph }

// BeginTask opens a new task; it closes any open one first.
func (c *TaskCollector) BeginTask(label string) {
	c.EndTask()
	c.current = &Task{ID: len(c.graph.Tasks), Label: label}
	c.Unit = c.current.ID
	c.started = c.clock.Now()
}

// EndTask closes the open task with its dependences on earlier tasks.
func (c *TaskCollector) EndTask() {
	if c.current == nil {
		return
	}
	t := c.current
	c.current, c.Unit = nil, -1
	t.DurNS = c.clock.Now() - c.started
	for u := range c.deps.All() {
		if u < t.ID { // not t itself
			t.Deps = append(t.Deps, u)
		}
	}
	c.deps = nil
	c.graph.Tasks = append(c.graph.Tasks, t)
}

// TotalWork returns the sum of task durations.
func (g *TaskGraph) TotalWork() int64 {
	var sum int64
	for _, t := range g.Tasks {
		sum += t.DurNS
	}
	return sum
}

// CriticalPath returns the longest dependence chain's duration.
func (g *TaskGraph) CriticalPath() int64 {
	finish := make([]int64, len(g.Tasks))
	var longest int64
	for i, t := range g.Tasks { // tasks are already in topological order
		var start int64
		for _, d := range t.Deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[i] = start + t.DurNS
		if finish[i] > longest {
			longest = finish[i]
		}
	}
	return longest
}

// SpeedupLimit is the Fortuna-style bound: total work / critical path.
func (g *TaskGraph) SpeedupLimit() float64 {
	cp := g.CriticalPath()
	if cp == 0 {
		return 1
	}
	return float64(g.TotalWork()) / float64(cp)
}
