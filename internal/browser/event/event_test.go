package event

import (
	"testing"

	"repro/internal/browser"
)

func TestTimeoutOrdering(t *testing.T) {
	q := browser.NewTaskQueue()
	a := q.ScheduleTimeout(0, 5_000_000, "a")
	b := q.ScheduleTimeout(0, 2_000_000, "b")
	c := q.ScheduleTimeout(0, 2_000_000, "c") // same deadline: FIFO by seq
	_ = a
	_ = b
	_ = c
	t1, fire1, err := q.Next(0)
	if err != nil || t1.Data != "b" || fire1 != 2_000_000 {
		t.Fatalf("first = %v at %d (%v)", t1.Data, fire1, err)
	}
	t2, _, _ := q.Next(fire1)
	if t2.Data != "c" {
		t.Fatalf("second = %v, want c (FIFO tie-break)", t2.Data)
	}
	t3, fire3, _ := q.Next(fire1)
	if t3.Data != "a" || fire3 != 5_000_000 {
		t.Fatalf("third = %v at %d", t3.Data, fire3)
	}
	if _, _, err := q.Next(fire3); err != browser.ErrQueueEmpty {
		t.Fatalf("empty queue err = %v", err)
	}
}

func TestIntervalRearms(t *testing.T) {
	q := browser.NewTaskQueue()
	iv := q.ScheduleInterval(0, 10_000_000, "tick")
	now := int64(0)
	for i := 0; i < 3; i++ {
		task, fire, err := q.Next(now)
		if err != nil || task.Data != "tick" {
			t.Fatalf("tick %d: %v %v", i, task, err)
		}
		wantFire := int64(10_000_000 * (i + 1))
		if fire != wantFire {
			t.Fatalf("tick %d at %d, want %d", i, fire, wantFire)
		}
		now = fire
	}
	if !q.Cancel(iv.ID) {
		t.Fatal("cancel failed")
	}
	if _, _, err := q.Next(now); err != browser.ErrQueueEmpty {
		t.Fatal("interval still firing after cancel")
	}
}

func TestIntervalClamping(t *testing.T) {
	q := browser.NewTaskQueue()
	q.ScheduleInterval(0, 1, "fast") // clamps to 1ms like browsers
	_, fire, _ := q.Next(0)
	if fire < 1_000_000 {
		t.Errorf("interval fired at %d, want >= 1ms", fire)
	}
}

func TestCancelSemantics(t *testing.T) {
	q := browser.NewTaskQueue()
	a := q.ScheduleTimeout(0, 1000, "a")
	if !q.Cancel(a.ID) {
		t.Error("first cancel")
	}
	if q.Cancel(a.ID) {
		t.Error("double cancel reported true")
	}
	if q.Cancel(999) {
		t.Error("unknown id canceled")
	}
	if q.Len() != 0 {
		t.Errorf("len = %d", q.Len())
	}
	if _, _, err := q.Next(0); err != browser.ErrQueueEmpty {
		t.Error("canceled task fired")
	}
}

func TestFrameCadence(t *testing.T) {
	q := browser.NewTaskQueue()
	q.ScheduleFrame(0, "f1")
	task, fire, err := q.Next(0)
	if err != nil || task.Data != "f1" {
		t.Fatal(err)
	}
	if fire != q.FrameInterval {
		t.Fatalf("first frame at %d, want %d", fire, q.FrameInterval)
	}
	// scheduling from within a frame targets the NEXT boundary
	q.ScheduleFrame(fire, "f2")
	_, fire2, _ := q.Next(fire)
	if fire2 != 2*q.FrameInterval {
		t.Fatalf("second frame at %d, want %d", fire2, 2*q.FrameInterval)
	}
}

func TestLateTimerFiresAtNow(t *testing.T) {
	q := browser.NewTaskQueue()
	q.ScheduleTimeout(0, 1_000_000, "late")
	_, fire, _ := q.Next(50_000_000) // far past the deadline
	if fire != 50_000_000 {
		t.Errorf("fired at %d, want now", fire)
	}
}

func TestZeroDelay(t *testing.T) {
	q := browser.NewTaskQueue()
	q.ScheduleTimeout(100, -50, "neg") // negative delay clamps to 0
	_, fire, _ := q.Next(100)
	if fire != 100 {
		t.Errorf("fired at %d, want 100", fire)
	}
}
