package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files. Spans of one operation share Req. Parent is the index of
// the innermost span of the same operation that contains this one
// (-1 for a root); resolve fills it and Self in.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run pays nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Req: req, Parent: -1,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// resolve links every span to its parent and computes self times: a
// span's duration minus the part of it its children cover (children of
// concurrent work overlap, so the cover is a union, not a sum).
func (t *tracer) resolve() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	// Within one operation: earlier start first, and on a tie the longer
	// span first, so a container always precedes what it contains.
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Req != y.Req {
			return x.Req < y.Req
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	children := make(map[int][]int)
	var open []int
	lastReq := int64(-1)
	for _, i := range order {
		s := &spans[i]
		if s.Req != lastReq {
			open, lastReq = open[:0], s.Req
		}
		for j := len(open) - 1; j >= 0; j-- {
			if p := spans[open[j]]; p.Start <= s.Start && s.End <= p.End {
				s.Parent = open[j]
				children[open[j]] = append(children[open[j]], i)
				break
			}
		}
		open = append(open, i)
	}
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start - covered(spans, children[i])
	}
	return spans
}

// covered is the length of the union of the given spans' intervals;
// kids arrive sorted by start.
func covered(spans []span, kids []int) int64 {
	var total, hi int64
	hi = -1 << 62
	for _, k := range kids {
		lo, end := spans[k].Start, spans[k].End
		if lo < hi {
			lo = hi
		}
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return total
}

// writeTrace stores the resolved spans as out/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// durationsOf lists the durations of spans with the given name.
func durationsOf(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	sortDurations(out)
	return out
}
