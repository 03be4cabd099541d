// Command loadgen hammers the JS-CERES instrumentation proxy with a
// configurable mix of repeated ("hot") and unique scripts and reports
// throughput, rewrites/sec, latency and admission queue-wait
// percentiles, and backpressure counts per client count — the
// measurement the ROADMAP's "heavy traffic" north star asks for: does
// the sharded, pipelined proxy actually scale with concurrent clients,
// and does it shed load instead of stretching the tail when it can't?
//
// The harness (internal/loadharness) is self-contained: it starts a
// synthetic origin that generates deterministic JavaScript on demand,
// puts the real serving proxy in front of it, and drives both through
// the loopback TCP stack.
//
// Four scenarios:
//
//   - mix (default): the hot/unique request blend — the steady-state
//     cache story.
//   - saturation: every request is a distinct script, so every request
//     pays a full rewrite; with a small -queue-depth the pipeline
//     saturates and the rejected column shows backpressure engaging
//     while q-wait p99 stays bounded.
//   - prewarm: POSTs the hot set to /__ceres/prewarm first, then runs
//     the mix — the hot pool is served from cache from request one.
//   - priority: a fixed interactive client count (first -clients entry)
//     against a ladder of -batch-clients background prewarm generators.
//     Each row splits the admission queue per latency class; the claim
//     to check is that interactive q-wait p99 stays flat against the
//     batch-free baseline while batch/s fills residual capacity, and
//     that at saturation batch sheds strictly before any interactive
//     429. -assert-flat N turns that claim into an exit code.
//   - cluster: -nodes in-process fleet members (each a full serving
//     proxy plus consistent-hash routing over the peer protocol),
//     clients spread across all of them; -kill-node abruptly kills one
//     mid-run (and revives it later unless -revive-node=false) while
//     the round measures forwarding, rebalancing, and whether
//     interactive requests survive the disruption. The round fails if
//     any request hangs or errs, or if interactive 429s appear.
//
// Usage:
//
//	loadgen -clients 1,2,4,8 -requests 400 -hot 16 -unique 0.25 \
//	    -script-loops 12 -mode light -cache-bytes 67108864 \
//	    -shards 8 -rewrite-workers 4 -queue-depth 64 -scenario mix
//
//	loadgen -scenario priority -clients 4 -batch-clients 0,2,4,8 \
//	    -requests 300 -rewrite-workers 2 -queue-depth 8 -assert-flat 20
//
//	loadgen -scenario cluster -nodes 3 -clients 4 -requests 300 \
//	    -rewrite-workers 2 -queue-depth 32 -kill-node
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/instrument"
	"repro/internal/loadharness"
	"repro/internal/proxy"
	"repro/internal/report"
)

func main() {
	clientsFlag := flag.String("clients", "1,2,4,8", "comma-separated client goroutine counts (priority: first entry only)")
	requests := flag.Int("requests", 400, "requests per client-count round")
	hot := flag.Int("hot", 16, "distinct scripts in the repeated (hot) pool")
	uniqueFrac := flag.Float64("unique", 0.25, "fraction of requests for a never-seen script")
	scriptLoops := flag.Int("script-loops", 12, "loops per generated script (rewrite cost knob)")
	mode := flag.String("mode", "light", "instrumentation mode: light, loops")
	cacheBytes := flag.Int64("cache-bytes", proxy.DefaultCacheBytes, "rewrite cache budget in bytes (> 0)")
	shards := flag.Int("shards", proxy.DefaultShards, "cache shard count")
	workers := flag.Int("rewrite-workers", 0, "rewrite pipeline workers (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "admission bound before 429s (0 = workers*2)")
	scenario := flag.String("scenario", "mix", "workload scenario: mix, saturation, prewarm, priority, cluster")
	seed := flag.Int64("seed", 7, "deterministic request-mix seed")
	batchClients := flag.String("batch-clients", "0,2,4,8", "priority scenario: comma-separated batch generator counts, one round each")
	batchSize := flag.Int("batch-size", 8, "priority scenario: sources per background prewarm POST")
	batchMaxWait := flag.Duration("batch-max-wait", 500*time.Millisecond, "queue-wait deadline for batch admissions (0 = none)")
	assertFlat := flag.Float64("assert-flat", 0, "priority scenario: fail unless loaded interactive q-wait p99 <= N x max(baseline, 1ms) and batch sheds before interactive 429s (0 = off)")
	nodes := flag.Int("nodes", 3, "cluster scenario: fleet size (in-process nodes)")
	killNode := flag.Bool("kill-node", false, "cluster scenario: abruptly kill one node mid-run")
	reviveNode := flag.Bool("revive-node", true, "cluster scenario: restart the killed node later in the run")
	replicateQPS := flag.Float64("cluster-replicate-qps", 0, "cluster scenario: per-key request rate above which non-owners serve a hot key locally (0 = off)")
	flag.Parse()

	m, err := instrument.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	counts, err := parseCounts(*clientsFlag, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: bad -clients: %v\n", err)
		os.Exit(2)
	}
	if *hot < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -hot must be >= 1 (use -unique 1 for an all-unique mix)")
		os.Exit(2)
	}
	if *cacheBytes <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -cache-bytes must be > 0")
		os.Exit(2)
	}
	if *requests < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -requests must be >= 1")
		os.Exit(2)
	}
	if !(*uniqueFrac >= 0 && *uniqueFrac <= 1) {
		fmt.Fprintln(os.Stderr, "loadgen: -unique must be within [0,1]")
		os.Exit(2)
	}
	if *assertFlat > 0 && *scenario != "priority" {
		fmt.Fprintln(os.Stderr, "loadgen: -assert-flat applies to -scenario priority only")
		os.Exit(2)
	}
	var batchCounts []int
	switch *scenario {
	case "mix", "prewarm", "cluster":
	case "saturation":
		// Saturation = no cache reuse: every request pays a rewrite, so
		// the admission queue is the contended resource.
		*uniqueFrac = 1.0
	case "priority":
		batchCounts, err = parseCounts(*batchClients, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: bad -batch-clients: %v\n", err)
			os.Exit(2)
		}
		if *assertFlat > 0 && (batchCounts[0] != 0 || len(batchCounts) < 2) {
			fmt.Fprintln(os.Stderr, "loadgen: -assert-flat needs -batch-clients to start with 0 (the baseline row) and name at least one loaded rung")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -scenario %q (want mix, saturation, prewarm, priority or cluster)\n", *scenario)
		os.Exit(2)
	}

	originURL, stopOrigin, err := loadharness.StartOrigin(*scriptLoops)
	if err != nil {
		log.Fatal(err)
	}
	defer stopOrigin()

	fmt.Printf("loadgen: scenario=%s mode=%s hot=%d unique=%.0f%% requests=%d script-loops=%d cache=%dB shards=%d workers=%d queue-depth=%d\n",
		*scenario, m, *hot, *uniqueFrac*100, *requests, *scriptLoops,
		*cacheBytes, *shards, *workers, *queueDepth)

	cfg := loadharness.Config{
		Mode:         m,
		CacheBytes:   *cacheBytes,
		Shards:       *shards,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		Scenario:     *scenario,
		Requests:     *requests,
		Hot:          *hot,
		UniqueFrac:   *uniqueFrac,
		ScriptLoops:  *scriptLoops,
		Seed:         *seed,
		BatchSize:    *batchSize,
		BatchMaxWait: *batchMaxWait,
	}

	if *scenario == "cluster" {
		cfg.Clients = counts[0]
		runCluster(originURL, loadharness.ClusterConfig{
			Config:       cfg,
			Nodes:        *nodes,
			ReplicateQPS: *replicateQPS,
			Kill:         *killNode,
			Revive:       *killNode && *reviveNode,
		})
		return
	}

	var rows []report.ServingRow
	if *scenario == "priority" {
		cfg.Clients = counts[0]
		for _, bc := range batchCounts {
			c := cfg
			c.BatchClients = bc
			row, err := loadharness.RunPriorityRound(originURL, c)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, *row)
		}
	} else {
		for _, n := range counts {
			c := cfg
			c.Clients = n
			row, err := loadharness.RunRound(originURL, c)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, *row)
		}
	}
	fmt.Print(report.Serving(fmt.Sprintf("serving ladder (%s)", *scenario), rows))

	if *assertFlat > 0 {
		if err := checkFlat(rows, *assertFlat); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("assert-flat: ok (interactive q-wait p99 within %gx of baseline, batch sheds first)\n", *assertFlat)
	}
}

// runCluster drives one cluster round and renders the summary row plus
// the per-node breakdown. The round's invariants are enforced as exit
// codes: every request completed (the harness already fails a round
// with a hung or errored request), and no interactive 429s slipped
// through without batch shed — the cluster round runs no batch load,
// so any interactive rejection is a failure.
func runCluster(originURL string, ccfg loadharness.ClusterConfig) {
	res, err := loadharness.RunClusterRound(originURL, ccfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.Serving("cluster round (interactive summary)", []report.ServingRow{res.Row}))
	fmt.Print(report.Cluster(fmt.Sprintf("cluster fleet (%d nodes)", ccfg.Nodes), res.NodeRows))
	if ccfg.Kill {
		fmt.Printf("chaos: killed=%s revived=%v disrupted=%d rebalances=%d\n",
			res.KilledNode, ccfg.Revive, res.Disrupted, res.Rebalances)
	}
	if res.Row.Rejected > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d interactive 429s in a round with no batch load\n", res.Row.Rejected)
		os.Exit(1)
	}
	if ccfg.Kill && res.Rebalances == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL: node killed but no ring rebalance observed")
		os.Exit(1)
	}
	fmt.Println("cluster asserts: ok (all requests completed, no interactive 429s)")
}

// checkFlat enforces the two latency-class invariants over a priority
// ladder whose first row is the batch-free baseline:
//
//  1. Flatness — every loaded row's interactive q-wait p99 is within
//     mult x the baseline's (with a 1ms floor so a near-zero baseline
//     on a fast machine doesn't make scheduling jitter a failure).
//  2. Shed order — no row rejects interactive requests unless it also
//     shed or rejected batch work: batch pays first, always.
func checkFlat(rows []report.ServingRow, mult float64) error {
	if len(rows) < 2 {
		return fmt.Errorf("%d rows: flatness needs the baseline and at least one loaded rung", len(rows))
	}
	base := rows[0].QWaitP99
	if floor := time.Millisecond; base < floor {
		base = floor
	}
	bound := time.Duration(float64(base) * mult)
	for _, r := range rows[1:] {
		if r.QWaitP99 > bound {
			return fmt.Errorf("batch-clients=%d: interactive q-wait p99 %v exceeds %v (%gx of baseline %v)",
				r.BatchClients, r.QWaitP99, bound, mult, rows[0].QWaitP99)
		}
	}
	for _, r := range rows {
		if r.Rejected > 0 && r.BatchShed == 0 {
			return fmt.Errorf("batch-clients=%d: %d interactive 429s with zero batch shed — interactive paid before batch",
				r.BatchClients, r.Rejected)
		}
	}
	return nil
}

// parseCounts parses a comma-separated int list with a per-entry floor.
func parseCounts(s string, min int) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad entry %q (min %d)", f, min)
		}
		out = append(out, n)
	}
	return out, nil
}
