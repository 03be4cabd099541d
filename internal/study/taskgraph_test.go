package study_test

import (
	"math"
	"runtime"
	"testing"
	"weak"

	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/study"
)

// runTasks executes each snippet as one task in a fresh shared program.
func runTasks(t *testing.T, setup string, tasks []string) *study.TaskGraph {
	t.Helper()
	in := interp.New()
	col := study.NewTaskCollector(in)
	if setup != "" {
		if err := in.Run(parser.MustParse(setup)); err != nil {
			t.Fatal(err)
		}
	}
	in.SetHooks(col)
	for i, src := range tasks {
		col.BeginTask("task")
		if err := in.Run(parser.MustParse(src)); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		col.EndTask()
	}
	col.EndTask()
	return col.Graph()
}

func TestIndependentTasksFullParallel(t *testing.T) {
	t.Parallel()
	g := runTasks(t, "var a = 0, b = 0, c = 0;", []string{
		"var x1 = 0; for (var i = 0; i < 1000; i++) { x1 += i; } a = x1;",
		"var x2 = 0; for (var i2 = 0; i2 < 1000; i2++) { x2 += i2; } b = x2;",
		"var x3 = 0; for (var i3 = 0; i3 < 1000; i3++) { x3 += i3; } c = x3;",
	})
	if len(g.Tasks) != 3 {
		t.Fatalf("tasks = %d, want 3", len(g.Tasks))
	}
	// Each task writes a distinct global... but they share the loop scaffolding
	// only if variables collide; speedup should approach 3.
	limit := g.SpeedupLimit()
	if limit < 2.5 {
		t.Errorf("speedup limit = %.2f, want ~3 for independent tasks", limit)
	}
}

func TestChainedTasksSequential(t *testing.T) {
	t.Parallel()
	g := runTasks(t, "var acc = 0;", []string{
		"for (var i = 0; i < 500; i++) { acc += i; }",
		"for (var j = 0; j < 500; j++) { acc += j; }",
		"for (var k = 0; k < 500; k++) { acc += k; }",
	})
	limit := g.SpeedupLimit()
	if limit > 1.2 {
		t.Errorf("speedup limit = %.2f, want ~1 for a dependence chain", limit)
	}
}

func TestReadSharingAllowsParallelism(t *testing.T) {
	t.Parallel()
	// Tasks 2..4 read what task 1 wrote but are mutually independent:
	// limit ≈ work/(t1 + max(t2..t4)).
	g := runTasks(t, "var table = [];", []string{
		"for (var i = 0; i < 300; i++) { table.push(i); }",
		"var s1 = 0; for (var a = 0; a < 300; a++) { s1 += table[a]; }",
		"var s2 = 0; for (var b = 0; b < 300; b++) { s2 += table[b]; }",
		"var s3 = 0; for (var c = 0; c < 300; c++) { s3 += table[c]; }",
	})
	limit := g.SpeedupLimit()
	if limit < 1.5 || limit > 3.0 {
		t.Errorf("speedup limit = %.2f, want ~2 (producer + 3 parallel readers)", limit)
	}
}

func TestWriteAfterReadConflict(t *testing.T) {
	t.Parallel()
	g := runTasks(t, "var shared = {v: 1};", []string{
		"var r = shared.v;",
		"shared.v = 2;", // anti-dependence on task 0
	})
	if len(g.Tasks[1].Deps) == 0 {
		t.Error("write-after-read conflict not detected")
	}
}

func TestObjectGranularity(t *testing.T) {
	t.Parallel()
	// Conservative: element-disjoint writes to one array still conflict.
	g := runTasks(t, "var arr = [0, 0];", []string{
		"arr[0] = 1;",
		"arr[1] = 2;",
	})
	if len(g.Tasks[1].Deps) == 0 {
		t.Error("object-granularity conflict not detected (limit study must be conservative)")
	}
}

func TestCriticalPathComputation(t *testing.T) {
	t.Parallel()
	g := &study.TaskGraph{Tasks: []*study.Task{
		{ID: 0, DurNS: 10},
		{ID: 1, DurNS: 20},
		{ID: 2, DurNS: 5, Deps: []int{0, 1}},
	}}
	if cp := g.CriticalPath(); cp != 25 {
		t.Errorf("critical path = %d, want 25", cp)
	}
	if w := g.TotalWork(); w != 35 {
		t.Errorf("total work = %d, want 35", w)
	}
	if l := g.SpeedupLimit(); math.Abs(l-35.0/25.0) > 1e-9 {
		t.Errorf("limit = %v, want 1.4", l)
	}
}

func TestEmptyGraph(t *testing.T) {
	t.Parallel()
	g := &study.TaskGraph{}
	if g.SpeedupLimit() != 1 {
		t.Errorf("empty graph limit = %v, want 1", g.SpeedupLimit())
	}
}

func TestCollectorHooksDirect(t *testing.T) {
	t.Parallel()
	in := interp.New()
	col := study.NewTaskCollector(in)
	col.BeginTask("a")
	b := &interp.Binding{Name: "x"}
	col.VarWrite("x", b)
	col.EndTask()
	col.BeginTask("b")
	col.VarRead("x", b)
	col.EndTask()
	g := col.Graph()
	if len(g.Tasks) != 2 || len(g.Tasks[1].Deps) != 1 {
		t.Fatalf("flow dependence between tasks not recorded: %+v", g.Tasks)
	}
}

// An object one task creates and a later task drops is garbage once
// the tasks end: the collector's dependence record lives in the object,
// and nothing the collector or its graph holds points back at it.
func TestCollectorRetainsNoDroppedObject(t *testing.T) {
	in := interp.New()
	col := study.NewTaskCollector(in)
	in.SetHooks(col)
	col.BeginTask("create")
	if err := in.Run(parser.MustParse("var o = {v: 1}; o.v = o.v + 1;")); err != nil {
		t.Fatal(err)
	}
	col.EndTask()
	dropped := weak.Make(in.Global("o").Object())
	col.BeginTask("drop")
	if err := in.Run(parser.MustParse("o = null;")); err != nil {
		t.Fatal(err)
	}
	col.EndTask()
	runtime.GC()
	if dropped.Value() != nil {
		t.Fatal("the dropped object is still reachable after its tasks ended")
	}
	if g := col.Graph(); len(g.Tasks) != 2 || len(g.Tasks[1].Deps) != 1 {
		t.Fatalf("tasks %+v, want the drop to follow the create", g.Tasks)
	}
	runtime.KeepAlive(in)
}
