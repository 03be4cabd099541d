// Package loadharness is the self-contained proxy load harness behind
// cmd/loadgen's ladder reports and CI smokes. It starts a synthetic
// origin that generates deterministic JavaScript on demand, puts the real
// serving proxy (internal/proxy over HTTP: sharded cache + staged
// pipeline with bounded admission) in front of it, and drives both
// through the loopback TCP stack, so numbers include real serialization
// cost.
//
// Scenarios:
//
//   - mix: the hot/unique request blend — the steady-state cache story.
//   - saturation: every request is a distinct script (callers set
//     UniqueFrac = 1), so every request pays a full rewrite; with a
//     small QueueDepth the pipeline saturates and rejected shows
//     backpressure engaging while q-wait p99 stays bounded.
//   - prewarm: POSTs the hot set to /__ceres/prewarm first, then runs
//     the mix — the hot pool is served from cache from request one.
//   - priority (RunPriorityRound): BatchClients background generators
//     spam /__ceres/prewarm with fresh sources — batch-class work —
//     while Clients interactive clients walk a shared script sequence
//     the spammers prewarm slightly ahead of. The row splits queue
//     waits per class: the claim to check is interactive q-wait p99
//     flat against the unloaded baseline while batch/s fills residual
//     capacity and batch, never interactive, sheds at saturation.
package loadharness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/instrument"
	"repro/internal/proxy"
	"repro/internal/report"
)

// Config sizes one harness round. A fresh proxy (fresh cache and
// pipeline) is built per round so rounds are comparable.
type Config struct {
	// Mode selects the instrumentation stage injected by the proxy.
	Mode instrument.Mode
	// CacheBytes is the rewrite-cache budget (0 disables caching).
	CacheBytes int64
	// Shards, Workers, QueueDepth size the serving layer
	// (proxy.ServeConfig semantics).
	Shards     int
	Workers    int
	QueueDepth int
	// Scenario is mix, saturation or prewarm (RunRound); RunPriorityRound
	// ignores it.
	Scenario string
	// Clients and Requests drive the interactive side: Requests total
	// spread over Clients goroutines.
	Clients  int
	Requests int
	// Hot and UniqueFrac shape the mix: 1-UniqueFrac of requests hit
	// one of Hot repeated scripts.
	Hot        int
	UniqueFrac float64
	// ScriptLoops is the loop count per generated script (rewrite cost
	// knob). Must match the origin the round runs against.
	ScriptLoops int
	// Seed makes the request mix deterministic.
	Seed int64
	// BatchClients/BatchSize drive the priority scenario's background
	// load: BatchClients goroutines each POSTing prewarm batches of
	// BatchSize fresh sources back to back (BatchSize <= 0 → 8).
	BatchClients int
	BatchSize    int
	// BatchMaxWait is the queue-wait deadline for batch admissions
	// (proxy.ServeConfig.BatchMaxWait).
	BatchMaxWait time.Duration
}

// StartOrigin serves deterministic generated JavaScript: any path
// yields a distinct-but-reproducible script whose content is derived
// from the path, so hot pools repeat byte-identically and unique paths
// never collide. The returned stop function shuts the server down and
// waits for its accept goroutine to exit — a round that errors early
// must not leave listener goroutines behind (the leak the round
// smokes' goroutine check guards).
func StartOrigin(loops int) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		io.WriteString(w, GenerateScript(r.URL.Path, loops))
	})}
	return "http://" + ln.Addr().String(), serveAndTrack(srv, ln), nil
}

// serveAndTrack runs srv on ln and returns a stop function that shuts
// the server down gracefully (falling back to a hard close after a
// short grace period) and then joins the accept goroutine, so callers
// hold a real "no goroutines left" guarantee, not just a closed
// listener.
func serveAndTrack(srv *http.Server, ln net.Listener) func() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		<-done
	}
}

// GenerateScript emits a parseable loop-heavy script seeded by id, so
// rewrite cost is uniform across scripts while content (and therefore
// cache key) differs per id.
func GenerateScript(id string, loops int) string {
	h := fnv.New64a()
	io.WriteString(h, id)
	seed := h.Sum64() % 1000003
	var sb strings.Builder
	fmt.Fprintf(&sb, "var seed = %d;\nvar acc = 0;\n", seed)
	for i := 0; i < loops; i++ {
		fmt.Fprintf(&sb, "for (var i%d = 0; i%d < %d; i%d++) { acc += (i%d * seed) %% %d; }\n",
			i, i, 40+i, i, i, 7+i)
	}
	return sb.String()
}

// startProxy builds the round's serving proxy over loopback TCP.
func startProxy(origin string, cfg Config) (*proxy.Proxy, string, func(), error) {
	p, err := proxy.NewServing(origin, cfg.Mode, "", proxy.ServeConfig{
		CacheBytes:   cfg.CacheBytes,
		DisableCache: cfg.CacheBytes == 0,
		Shards:       cfg.Shards,
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		BatchMaxWait: cfg.BatchMaxWait,
	})
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: p}
	stopSrv := serveAndTrack(srv, ln)
	stop := func() {
		stopSrv()
		p.Close()
	}
	return p, "http://" + ln.Addr().String(), stop, nil
}

func newClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients * 2,
		MaxIdleConnsPerHost: clients * 2,
	}}
}

// RunRound drives one mix/saturation/prewarm round and reports it as a
// ServingRow. 429s count as rejected — not errors, and not samples:
// req/s and the latency percentiles describe served (200) responses
// only, so shedding shows up in the rejected column instead of
// flattering the tail.
func RunRound(origin string, cfg Config) (*report.ServingRow, error) {
	p, base, stop, err := startProxy(origin, cfg)
	if err != nil {
		return nil, err
	}
	defer stop()
	client := newClient(cfg.Clients)
	defer client.CloseIdleConnections()

	if cfg.Scenario == "prewarm" {
		if err := PrewarmHotSet(client, base, cfg.Hot); err != nil {
			return nil, err
		}
	}

	var uniqueID atomic.Int64
	res, err := driveClients(client, base, cfg, func(rng *rand.Rand) string {
		if rng.Float64() < cfg.UniqueFrac {
			return fmt.Sprintf("/unique/%d.js", uniqueID.Add(1))
		}
		return fmt.Sprintf("/hot/%d.js", rng.Intn(cfg.Hot))
	})
	if err != nil {
		return nil, err
	}
	stats := p.Stats()
	row := &report.ServingRow{
		Clients:        cfg.Clients,
		ReqPerSec:      float64(len(res.latencies)) / res.wall.Seconds(),
		RewritesPerSec: float64(stats.Rewrites) / res.wall.Seconds(),
		P50:            percentile(res.latencies, 50),
		P99:            percentile(res.latencies, 99),
		QWaitP50:       percentile(res.qwaits, 50),
		QWaitP99:       percentile(res.qwaits, 99),
		Rejected:       res.rejected,
		Hits:           stats.CacheHits,
		Misses:         stats.CacheMisses,
		Coalesced:      stats.Coalesced,
		Failures:       stats.Failures,
	}
	return row, nil
}

// driveResult is the interactive side of one round.
type driveResult struct {
	latencies []time.Duration // sorted, served (200) responses only
	qwaits    []time.Duration // sorted, from the X-Ceres-Queue-Wait header
	rejected  int64
	// disrupted counts requests retried on another node after hitting
	// a dying connection (cluster rounds with a kill in play only).
	disrupted int64
	wall      time.Duration
}

// driveClients runs cfg.Requests requests over cfg.Clients goroutines,
// asking pathFor for each target path.
func driveClients(client *http.Client, base string, cfg Config, pathFor func(rng *rand.Rand) string) (*driveResult, error) {
	var next, rejected atomic.Int64
	latencies := make([][]time.Duration, cfg.Clients)
	qwaits := make([][]time.Duration, cfg.Clients)
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			for int(next.Add(1)) <= cfg.Requests {
				path := pathFor(rng)
				t0 := time.Now()
				res, err := get(client, base+path)
				if err != nil {
					errs[w] = err
					return
				}
				if res.status == http.StatusTooManyRequests {
					// Backpressure: shed fast, retry never (the round
					// measures shedding, not client retry policy). Shed
					// requests are counted, not sampled — mixing their
					// near-instant turnaround into p50/p99 or req/s would
					// understate served latency and overstate throughput
					// exactly when saturation engages.
					rejected.Add(1)
					continue
				}
				latencies[w] = append(latencies[w], time.Since(t0))
				if res.status != http.StatusOK {
					errs[w] = fmt.Errorf("GET %s: status %d", path, res.status)
					return
				}
				if !strings.Contains(res.body, "__ceres") {
					errs[w] = fmt.Errorf("response for %s not instrumented", path)
					return
				}
				qwaits[w] = append(qwaits[w], res.queueWait)
			}
		}(w)
	}
	wg.Wait()
	out := &driveResult{wall: time.Since(start), rejected: rejected.Load()}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range latencies {
		out.latencies = append(out.latencies, latencies[i]...)
		out.qwaits = append(out.qwaits, qwaits[i]...)
	}
	sort.Slice(out.latencies, func(i, j int) bool { return out.latencies[i] < out.latencies[j] })
	sort.Slice(out.qwaits, func(i, j int) bool { return out.qwaits[i] < out.qwaits[j] })
	return out, nil
}

// PrewarmHotSet POSTs the round's hot set to /__ceres/prewarm so a mix
// starts against a warm cache.
func PrewarmHotSet(client *http.Client, base string, hot int) error {
	req := proxy.PrewarmRequest{}
	for i := 0; i < hot; i++ {
		req.URLs = append(req.URLs, fmt.Sprintf("/hot/%d.js", i))
	}
	pr, err := postPrewarm(client, base, req)
	if err != nil {
		return err
	}
	fmt.Printf("prewarm: ok=%d saturated=%d failed=%d\n", pr.OK, pr.Saturated, pr.Failed)
	return nil
}

func postPrewarm(client *http.Client, base string, req proxy.PrewarmRequest) (*proxy.PrewarmResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(base+"/__ceres/prewarm", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("prewarm: status %d: %s", resp.StatusCode, out)
	}
	var pr proxy.PrewarmResponse
	if err := json.Unmarshal(out, &pr); err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	return &pr, nil
}

type getResult struct {
	status    int
	body      string
	queueWait time.Duration
}

func get(client *http.Client, rawURL string) (*getResult, error) {
	resp, err := client.Get(rawURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	res := &getResult{status: resp.StatusCode, body: string(body)}
	if v := resp.Header.Get(proxy.QueueWaitHeader); v != "" {
		if us, err := strconv.ParseInt(v, 10, 64); err == nil {
			res.queueWait = time.Duration(us) * time.Microsecond
		}
	}
	return res, nil
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
