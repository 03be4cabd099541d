// Command benchproxy measures the serving proxy's latency-class
// isolation and persists the result as machine-readable
// BENCH_proxy.json — the serving-side entry of the repo's perf
// trajectory. It runs the internal/loadharness priority scenario at a
// fixed configuration (2 rewrite workers, admission depth 8, 4
// interactive clients) over a ladder of background batch generators,
// and records per-class queue waits, throughput, shed counts and
// promotions per rung.
//
// Usage:
//
//	benchproxy [-out=BENCH_proxy.json] [-requests=300] [-check]
//
// -check validates the -out file against the bench-proxy/v1 schema —
// including the two latency-class invariants (interactive q-wait p99
// within bound of the batch-free baseline; batch sheds strictly before
// interactive 429s) — and exits non-zero on violations (the CI smoke).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/instrument"
	"repro/internal/loadharness"
)

// Schema is the persisted format identifier; bump on breaking change.
const Schema = "bench-proxy/v1"

// MaxP99Ratio is the flatness bound -check enforces: loaded interactive
// q-wait p99 must stay within this multiple of max(baseline, 1ms). It
// matches the CI loadgen -assert-flat multiplier.
const MaxP99Ratio = 20.0

// Rung is one priority round at a fixed batch-generator count.
type Rung struct {
	BatchClients int     `json:"batch_clients"`
	ReqPerSec    float64 `json:"req_per_sec"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	// QWait percentiles are the server's own per-class admission-queue
	// numbers, in microseconds.
	QWaitP50US      float64 `json:"qwait_p50_us"`
	QWaitP99US      float64 `json:"qwait_p99_us"`
	Rejected        int64   `json:"rejected"`
	BatchPerSec     float64 `json:"batch_per_sec"`
	BatchQWaitP99US float64 `json:"batch_qwait_p99_us"`
	BatchShed       int64   `json:"batch_shed"`
	Promoted        int64   `json:"promoted"`
}

// Summary condenses the file for trajectory plots and CI assertions.
type Summary struct {
	// InteractiveP99Ratio is the worst loaded rung's interactive q-wait
	// p99 over max(baseline p99, 1ms) — the flatness number. 1.0 or less
	// means batch load never touched the interactive tail.
	InteractiveP99Ratio float64 `json:"interactive_p99_ratio"`
	// BatchShedFirst is true when no rung rejected interactive work
	// without also shedding batch work — the shed-order invariant.
	BatchShedFirst bool `json:"batch_shed_first"`
	// MaxBatchPerSec is the best background throughput achieved while
	// the flatness bound held.
	MaxBatchPerSec float64 `json:"max_batch_per_sec"`
}

// File is the full bench-proxy/v1 document.
type File struct {
	Schema       string  `json:"schema"`
	Workers      int     `json:"workers"`
	QueueDepth   int     `json:"queue_depth"`
	Clients      int     `json:"clients"`
	Requests     int     `json:"requests"`
	ScriptLoops  int     `json:"script_loops"`
	BatchSize    int     `json:"batch_size"`
	BatchLadder  []int   `json:"batch_ladder"`
	BatchMaxWait string  `json:"batch_max_wait"`
	Rungs        []Rung  `json:"rungs"`
	Summary      Summary `json:"summary"`
}

// batchLadder is the fixed background-load ladder; rung 0 is the
// batch-free baseline the flatness ratio is computed against.
var batchLadder = []int{0, 1, 2, 4}

const (
	workers      = 2
	queueDepth   = 8
	clients      = 4
	scriptLoops  = 12
	batchSize    = 8
	batchMaxWait = 500 * time.Millisecond
)

func main() {
	out := flag.String("out", "BENCH_proxy.json", "output path for the bench document")
	requests := flag.Int("requests", 300, "interactive requests per rung")
	check := flag.Bool("check", false, "validate the -out file against the schema and exit non-zero on violations (the CI smoke)")
	flag.Parse()

	if *check {
		if err := checkFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "benchproxy: check %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("benchproxy: %s conforms to %s\n", *out, Schema)
		return
	}

	doc, err := run(*requests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchproxy: %v\n", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchproxy: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchproxy: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchproxy: wrote %s (interactive p99 ratio %.2fx, batch sheds first: %v, max batch/s %.0f)\n",
		*out, doc.Summary.InteractiveP99Ratio, doc.Summary.BatchShedFirst, doc.Summary.MaxBatchPerSec)
}

func run(requests int) (*File, error) {
	origin, stopOrigin, err := loadharness.StartOrigin(scriptLoops)
	if err != nil {
		return nil, err
	}
	defer stopOrigin()

	doc := &File{
		Schema:       Schema,
		Workers:      workers,
		QueueDepth:   queueDepth,
		Clients:      clients,
		Requests:     requests,
		ScriptLoops:  scriptLoops,
		BatchSize:    batchSize,
		BatchLadder:  batchLadder,
		BatchMaxWait: batchMaxWait.String(),
	}
	for _, bc := range batchLadder {
		row, err := loadharness.RunPriorityRound(origin, loadharness.Config{
			Mode:         instrument.ModeLight,
			CacheBytes:   64 << 20,
			Shards:       8,
			Workers:      workers,
			QueueDepth:   queueDepth,
			Clients:      clients,
			Requests:     requests,
			ScriptLoops:  scriptLoops,
			Seed:         7,
			BatchClients: bc,
			BatchSize:    batchSize,
			BatchMaxWait: batchMaxWait,
		})
		if err != nil {
			return nil, fmt.Errorf("batch-clients=%d: %w", bc, err)
		}
		doc.Rungs = append(doc.Rungs, Rung{
			BatchClients:    bc,
			ReqPerSec:       row.ReqPerSec,
			P50MS:           float64(row.P50.Microseconds()) / 1000,
			P99MS:           float64(row.P99.Microseconds()) / 1000,
			QWaitP50US:      float64(row.QWaitP50.Nanoseconds()) / 1000,
			QWaitP99US:      float64(row.QWaitP99.Nanoseconds()) / 1000,
			Rejected:        row.Rejected,
			BatchPerSec:     row.BatchPerSec,
			BatchQWaitP99US: float64(row.BatchQWaitP99.Nanoseconds()) / 1000,
			BatchShed:       row.BatchShed,
			Promoted:        row.Promoted,
		})
	}
	doc.Summary = summarize(doc.Rungs)
	return doc, nil
}

// summarize derives the trajectory numbers from the measured rungs.
func summarize(rungs []Rung) Summary {
	s := Summary{BatchShedFirst: true}
	base := rungs[0].QWaitP99US
	if floor := 1000.0; base < floor { // 1ms floor, as in loadgen -assert-flat
		base = floor
	}
	for _, r := range rungs {
		if r.Rejected > 0 && r.BatchShed == 0 {
			s.BatchShedFirst = false
		}
		if ratio := r.QWaitP99US / base; ratio > s.InteractiveP99Ratio {
			s.InteractiveP99Ratio = ratio
		}
		if r.BatchPerSec > s.MaxBatchPerSec {
			s.MaxBatchPerSec = r.BatchPerSec
		}
	}
	return s
}

// checkFile validates a bench document against the v1 schema and the
// latency-class invariants.
func checkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc File
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if doc.Schema != Schema {
		return fmt.Errorf("schema = %q, want %q", doc.Schema, Schema)
	}
	if doc.Workers < 1 || doc.QueueDepth < 1 || doc.Clients < 1 || doc.Requests < 1 {
		return fmt.Errorf("incomplete config: %+v", doc)
	}
	if len(doc.BatchLadder) < 2 || doc.BatchLadder[0] != 0 {
		return fmt.Errorf("batch ladder %v must start at 0 (the baseline) and hold at least one loaded rung", doc.BatchLadder)
	}
	if len(doc.Rungs) != len(doc.BatchLadder) {
		return fmt.Errorf("%d rungs for %d ladder entries", len(doc.Rungs), len(doc.BatchLadder))
	}
	for i, r := range doc.Rungs {
		if r.BatchClients != doc.BatchLadder[i] {
			return fmt.Errorf("rung %d: batch_clients %d, ladder says %d", i, r.BatchClients, doc.BatchLadder[i])
		}
		if r.ReqPerSec <= 0 || r.P50MS <= 0 || r.P99MS < r.P50MS {
			return fmt.Errorf("rung %d: inconsistent latency %+v", i, r)
		}
		if r.QWaitP50US < 0 || r.QWaitP99US < r.QWaitP50US {
			return fmt.Errorf("rung %d: inconsistent queue waits %+v", i, r)
		}
		if r.BatchClients > 0 && r.BatchPerSec <= 0 {
			return fmt.Errorf("rung %d: batch clients ran but batch_per_sec = %v", i, r.BatchPerSec)
		}
		if r.Rejected > 0 && r.BatchShed == 0 {
			return fmt.Errorf("rung %d: %d interactive 429s with zero batch shed", i, r.Rejected)
		}
	}
	s := doc.Summary
	if s.InteractiveP99Ratio <= 0 || s.InteractiveP99Ratio > MaxP99Ratio {
		return fmt.Errorf("interactive_p99_ratio %.2f outside (0, %.0f] — interactive tail moved under batch load", s.InteractiveP99Ratio, MaxP99Ratio)
	}
	if !s.BatchShedFirst {
		return fmt.Errorf("batch_shed_first = false — an interactive 429 preceded batch shedding")
	}
	if s.MaxBatchPerSec <= 0 {
		return fmt.Errorf("max_batch_per_sec %v, want > 0", s.MaxBatchPerSec)
	}
	return nil
}
