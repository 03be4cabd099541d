package loadharness

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/instrument"
)

// checkGoroutineLeak fails the test if it ends with more goroutines
// than it started with (after a settle window for conn teardown). The
// harness starts real HTTP servers and client pools per round; a
// forgotten listener or unjoined Serve goroutine shows up here — this
// is the regression net for the origin-listener leak, where an early
// round error left the origin's Serve goroutine running for the life
// of the process.
func checkGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return // the real failure is more interesting than fallout
		}
		deadline := time.Now().Add(3 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		// A small slack absorbs runtime helpers (GC workers, netpoll)
		// that come and go; a leaked server is persistent and larger.
		if now > before+3 {
			t.Errorf("goroutine leak: %d before round, %d after settle", before, now)
		}
	})
}

func baseConfig() Config {
	return Config{
		Mode:        instrument.ModeLight,
		CacheBytes:  1 << 24,
		Shards:      4,
		Workers:     2,
		QueueDepth:  8,
		Clients:     2,
		Requests:    30,
		Hot:         4,
		UniqueFrac:  0.25,
		ScriptLoops: 4,
		Seed:        7,
	}
}

// TestRunRoundMix: the extracted harness still drives a full round end
// to end — served responses, sane percentiles, no failures.
func TestRunRoundMix(t *testing.T) {
	checkGoroutineLeak(t)
	origin, stop, err := StartOrigin(4)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cfg := baseConfig()
	cfg.Scenario = "mix"
	row, err := RunRound(origin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.ReqPerSec <= 0 || row.P50 <= 0 || row.P99 < row.P50 {
		t.Errorf("implausible round: %+v", *row)
	}
	if row.Failures != 0 {
		t.Errorf("round reported %d rewrite failures", row.Failures)
	}
	if row.Hits+row.Misses == 0 {
		t.Error("round saw no cache traffic at all")
	}
}

// TestRunPriorityRound: the mixed-class round produces a per-class row
// with background work done, and batch pressure never surfaces as
// interactive 429s without batch shedding first. The timed phase is a few
// dozen requests and may be over before a second batch returns, so the
// test reads BatchDone (the generators' lifetime), not the phase's
// batch/s.
func TestRunPriorityRound(t *testing.T) {
	checkGoroutineLeak(t)
	origin, stop, err := StartOrigin(4)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cfg := baseConfig()
	cfg.BatchClients = 1
	cfg.BatchSize = 4
	cfg.BatchMaxWait = 500 * time.Millisecond
	row, err := RunPriorityRound(origin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !row.PerClass || row.BatchClients != 1 {
		t.Fatalf("row not per-class: %+v", *row)
	}
	if row.ReqPerSec <= 0 {
		t.Errorf("no interactive throughput: %+v", *row)
	}
	if row.BatchDone <= 0 {
		t.Errorf("batch generators produced nothing: %+v", *row)
	}
	if row.Rejected > 0 && row.BatchShed == 0 {
		t.Errorf("interactive 429s with zero batch shed: %+v", *row)
	}
	if row.Failures != 0 {
		t.Errorf("round reported %d rewrite failures", row.Failures)
	}
}

// TestGenerateScriptDeterministic: same id, same bytes — the origin
// and the spammers' inline lookahead sources must agree exactly, or
// the priority scenario's coalescing overlap silently disappears.
func TestGenerateScriptDeterministic(t *testing.T) {
	a := GenerateScript("/shared/42.js", 12)
	b := GenerateScript("/shared/42.js", 12)
	if a != b {
		t.Fatal("GenerateScript is not deterministic")
	}
	if c := GenerateScript("/shared/43.js", 12); c == a {
		t.Fatal("distinct ids produced identical scripts")
	}
}
