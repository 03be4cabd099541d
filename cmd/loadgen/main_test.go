package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

// checkFlat is the only holder of the two latency-class invariants
// (isolation, shed order) in CI's priority smoke, so each way it can
// pass or fail is pinned here without running a round.
func TestCheckFlat(t *testing.T) {
	row := func(batch int, p99 time.Duration, rejected, shed int64) report.ServingRow {
		return report.ServingRow{BatchClients: batch, QWaitP99: p99, Rejected: rejected, BatchShed: shed}
	}
	const ms = time.Millisecond
	cases := []struct {
		name    string
		rows    []report.ServingRow
		mult    float64
		wantErr string // substring; "" = pass
	}{
		{"flat ladder", []report.ServingRow{row(0, 2*ms, 0, 0), row(2, 3*ms, 0, 0), row(4, 40*ms, 0, 9)}, 20, ""},
		{"loaded rung above bound names the rung",
			[]report.ServingRow{row(0, 2*ms, 0, 0), row(2, 3*ms, 0, 0), row(4, 41*ms, 0, 0)}, 20, "batch-clients=4"},
		{"sub-millisecond baseline uses the 1ms floor",
			[]report.ServingRow{row(0, 10*time.Microsecond, 0, 0), row(2, 20*ms, 0, 0)}, 20, ""},
		{"floor is not a free pass",
			[]report.ServingRow{row(0, 10*time.Microsecond, 0, 0), row(2, 21*ms, 0, 0)}, 20, "batch-clients=2"},
		{"interactive 429s with batch shed are the intended order",
			[]report.ServingRow{row(0, ms, 0, 0), row(8, ms, 5, 12)}, 20, ""},
		{"interactive 429s with zero batch shed",
			[]report.ServingRow{row(0, ms, 0, 0), row(8, ms, 5, 0)}, 20, "interactive paid before batch"},
		{"baseline row is held to shed order too",
			[]report.ServingRow{row(0, ms, 1, 0), row(2, ms, 0, 0)}, 20, "batch-clients=0"},
		{"baseline only", []report.ServingRow{row(0, ms, 0, 0)}, 20, "at least one loaded rung"},
		{"no rows", nil, 20, "at least one loaded rung"},
	}
	for _, c := range cases {
		err := checkFlat(c.rows, c.mult)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: passed, want error containing %q", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseCounts(t *testing.T) {
	cases := []struct {
		in   string
		min  int
		want []int // nil = error
	}{
		{"1,2,4,8", 1, []int{1, 2, 4, 8}},
		{" 0 , 2 ", 0, []int{0, 2}},
		{"0,2", 1, nil},
		{"-1", 0, nil},
		{"2,x", 0, nil},
		{"2,,4", 0, nil},
		{"", 0, nil},
		{"1.5", 0, nil},
	}
	for _, c := range cases {
		got, err := parseCounts(c.in, c.min)
		if (err != nil) != (c.want == nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseCounts(%q, %d) = %v, %v; want %v", c.in, c.min, got, err, c.want)
		}
	}
}
