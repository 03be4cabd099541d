package study

// The task graph behind RunFortuna: the baseline the paper contrasts
// itself against, Fortuna et al.'s task-level limit study of JavaScript
// parallelism (IISWC'10, [20] in the paper). Each event-loop task
// (dispatched callback) becomes a node; a task depends on an earlier one
// when it reads or writes state the earlier task wrote. The speedup limit
// is total work over the critical path — parallelism from *independent
// tasks*, not loop iterations, which is exactly the distinction the
// paper draws in §1 and §6.

import (
	"repro/internal/js/interp"
	"repro/internal/js/value"
)

// Task is one dynamic event-loop task.
type Task struct {
	ID    int
	Label string
	// DurNS is the task's virtual running time.
	DurNS int64
	// Deps are IDs of earlier tasks this one must follow.
	Deps []int

	reads  map[any]struct{}
	writes map[any]struct{}
}

// TaskGraph is the task dependence DAG of one application run.
type TaskGraph struct {
	Tasks []*Task
}

// TaskCollector builds a TaskGraph by observing interpreter hooks between
// task boundaries. Access sets are tracked at object/binding granularity
// — conservative (two tasks touching different elements of one array
// still conflict), matching a limit study that must never overestimate
// safety.
type TaskCollector struct {
	clock interface{ Now() int64 }

	graph   *TaskGraph
	current *Task
	started int64
	// setCap bounds per-task set sizes.
	setCap int
}

// NewTaskCollector returns a collector reading the interpreter's clock.
func NewTaskCollector(in *interp.Interp) *TaskCollector {
	return &TaskCollector{clock: in, graph: &TaskGraph{}, setCap: 1 << 16}
}

// Graph returns the collected task graph.
func (c *TaskCollector) Graph() *TaskGraph { return c.graph }

// BeginTask opens a new task; it closes any open one first.
func (c *TaskCollector) BeginTask(label string) {
	c.EndTask()
	t := &Task{
		ID:     len(c.graph.Tasks),
		Label:  label,
		reads:  make(map[any]struct{}),
		writes: make(map[any]struct{}),
	}
	c.current = t
	c.started = c.clock.Now()
}

// EndTask closes the open task, computing its dependences on all earlier
// tasks (write→read, write→write, read→write conflicts).
func (c *TaskCollector) EndTask() {
	if c.current == nil {
		return
	}
	t := c.current
	c.current = nil
	t.DurNS = c.clock.Now() - c.started
	for _, prev := range c.graph.Tasks {
		if conflicts(prev, t) {
			t.Deps = append(t.Deps, prev.ID)
		}
	}
	c.graph.Tasks = append(c.graph.Tasks, t)
}

func conflicts(a, b *Task) bool {
	// b reads or writes something a wrote, or b writes something a read.
	for loc := range b.reads {
		if _, ok := a.writes[loc]; ok {
			return true
		}
	}
	for loc := range b.writes {
		if _, ok := a.writes[loc]; ok {
			return true
		}
		if _, ok := a.reads[loc]; ok {
			return true
		}
	}
	return false
}

func (c *TaskCollector) note(m map[any]struct{}, loc any) {
	if c.current == nil || len(m) >= c.setCap {
		return
	}
	m[loc] = struct{}{}
}

// VarRead is an interp hook event.
func (c *TaskCollector) VarRead(_ string, b *interp.Binding) {
	if c.current != nil {
		c.note(c.current.reads, b)
	}
}

// VarWrite is an interp hook event.
func (c *TaskCollector) VarWrite(_ string, b *interp.Binding) {
	if c.current != nil {
		c.note(c.current.writes, b)
	}
}

// PropRead is an interp hook event.
func (c *TaskCollector) PropRead(o *value.Object, _ string, _ *interp.Binding) {
	if c.current != nil {
		c.note(c.current.reads, o)
	}
}

// PropWrite is an interp hook event.
func (c *TaskCollector) PropWrite(o *value.Object, _ string, _ *interp.Binding) {
	if c.current != nil {
		c.note(c.current.writes, o)
	}
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
