// The cluster scenario: N in-process fleet nodes — each a full serving
// proxy (sharded cache, staged pipeline) plus a cluster.Node routing
// layer — over loopback TCP, driven by interactive clients that spread
// requests across every live node, with one node killed abruptly
// mid-run (and optionally revived) to measure the disruption: forwards
// to the dead owner fail over to local rewrites, the survivors eject
// it and rebalance the ring, and the row reports whether interactive
// latency stayed flat and nothing hung through it all.
package loadharness

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/proxy"
	"repro/internal/report"
)

// ClusterConfig sizes one cluster round.
type ClusterConfig struct {
	Config
	// Nodes is the fleet size (<= 0 → 3).
	Nodes int
	// ReplicateQPS is the hot-key replication threshold handed to every
	// node (0 disables replication).
	ReplicateQPS float64
	// Kill abruptly closes one node (the last) partway through the
	// round; Revive restarts it on the same address later in the round
	// (the "add a node mid-run" half of the chaos story).
	Kill   bool
	Revive bool
	// Watchdog bounds the whole round; a round that exceeds it returns
	// an error instead of hanging (0 → 120s).
	Watchdog time.Duration
}

// ClusterResult is one cluster round's outcome.
type ClusterResult struct {
	// Row is the interactive summary (client-side latencies, queue
	// waits from response headers — forwarded requests report the
	// owner's wait).
	Row report.ServingRow
	// NodeRows is the per-node ownership/forwarding breakdown; the
	// killed node's row merges its pre-kill and post-revive counters.
	NodeRows []report.ClusterNodeRow
	// KilledNode names the killed member ("" when Kill is off).
	KilledNode string
	// Disrupted counts requests that hit a dying connection and were
	// retried on another node — each one a request the chaos touched
	// but did not lose.
	Disrupted int64
	// Rebalances sums ring rebuilds observed across the fleet.
	Rebalances int64
}

// fleetNode is one member's server-side state.
type fleetNode struct {
	addr string // fixed host:port, reused on revive
	url  string

	mu      sync.Mutex
	p       *proxy.Proxy
	cn      *cluster.Node
	stopSrv func()
	srv     *http.Server
	// killedStats snapshots the proxy and cluster counters at kill
	// time, so the round's report keeps the pre-kill history.
	killedStats *proxy.Stats
}

// start builds and serves a fresh proxy+cluster pair on n.addr.
func (n *fleetNode) start(origin string, urls []string, self string, cfg ClusterConfig, ln net.Listener) error {
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", n.addr)
		if err != nil {
			return err
		}
	}
	p, err := proxy.NewServing(origin, cfg.Mode, "", proxy.ServeConfig{
		CacheBytes:   cfg.CacheBytes,
		Shards:       cfg.Shards,
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		BatchMaxWait: cfg.BatchMaxWait,
	})
	if err != nil {
		ln.Close()
		return err
	}
	cn, err := cluster.New(cluster.Config{
		Self:         self,
		Peers:        urls,
		ReplicateQPS: cfg.ReplicateQPS,
		// Fast membership for a short round: a dead peer is ejected
		// after ~2 probe ticks, so rebalancing lands inside the run.
		ProbeInterval:  50 * time.Millisecond,
		ProbeTimeout:   200 * time.Millisecond,
		FailThreshold:  2,
		ForwardTimeout: 2 * time.Second,
		ForwardRetries: 2,
	})
	if err != nil {
		p.Close()
		ln.Close()
		return err
	}
	p.Cluster = cn
	cn.Start()
	srv := &http.Server{Handler: p}
	stopSrv := serveAndTrack(srv, ln)
	n.mu.Lock()
	n.p, n.cn, n.srv, n.stopSrv = p, cn, srv, stopSrv
	n.mu.Unlock()
	return nil
}

// kill snapshots the node's counters, then tears it down abruptly:
// listener and live connections closed (in-flight requests see a
// reset, exactly like a crashed process), prober stopped, pipeline
// drained.
func (n *fleetNode) kill() {
	n.mu.Lock()
	p, cn, srv := n.p, n.cn, n.srv
	stopSrv := n.stopSrv
	n.p, n.cn, n.srv, n.stopSrv = nil, nil, nil, nil
	n.mu.Unlock()
	if p == nil {
		return
	}
	st := p.Stats()
	n.mu.Lock()
	n.killedStats = &st
	n.mu.Unlock()
	srv.Close() // abrupt: closes listener and every live connection
	stopSrv()   // joins the accept goroutine (Serve already returned)
	cn.Close()
	p.Close()
}

// stop is the graceful end-of-round teardown.
func (n *fleetNode) stop() {
	n.mu.Lock()
	p, cn, stopSrv := n.p, n.cn, n.stopSrv
	n.p, n.cn, n.srv, n.stopSrv = nil, nil, nil, nil
	n.mu.Unlock()
	if p == nil {
		return
	}
	stopSrv()
	cn.Close()
	p.Close()
}

// statsRow folds the node's counters (merging a killed node's pre-kill
// snapshot with its revived successor's) into a report row.
func (n *fleetNode) statsRow(name string, killed bool) report.ClusterNodeRow {
	row := report.ClusterNodeRow{Node: name, Killed: killed}
	n.mu.Lock()
	defer n.mu.Unlock()
	add := func(st proxy.Stats) {
		row.Hits += st.CacheHits
		row.Misses += st.CacheMisses
		row.Rejected += st.Rejected
		if st.Cluster == nil {
			return
		}
		row.OwnedServed += st.Cluster.OwnedServed
		row.ForwardedOut += st.Cluster.ForwardedOut
		row.PeerReceived += st.Cluster.PeerReceived
		row.ReplicaServed += st.Cluster.ReplicaServed
		row.ForwardFallbacks += st.Cluster.ForwardFallbacks
		row.Rebalances += st.Cluster.Rebalances
	}
	if n.killedStats != nil {
		add(*n.killedStats)
	}
	if n.p != nil {
		row.Live = true
		add(n.p.Stats())
	}
	return row
}

// RunClusterRound drives one cluster scenario round.
func RunClusterRound(origin string, cfg ClusterConfig) (*ClusterResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = 120 * time.Second
	}

	// Listeners first: every node needs the full URL list at build
	// time (the ring is a pure function of it).
	lns := make([]net.Listener, cfg.Nodes)
	nodes := make([]*fleetNode, cfg.Nodes)
	urls := make([]string, cfg.Nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, err
		}
		lns[i] = ln
		addr := ln.Addr().String()
		nodes[i] = &fleetNode{addr: addr, url: "http://" + addr}
		urls[i] = nodes[i].url
	}
	for i, n := range nodes {
		if err := n.start(origin, urls, urls[i], cfg, lns[i]); err != nil {
			for _, m := range nodes {
				m.stop()
			}
			return nil, err
		}
	}
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()

	client := newClient(cfg.Clients * 2)
	defer client.CloseIdleConnections()

	killIdx := cfg.Nodes - 1
	var killedFlag atomic.Bool
	var progress atomic.Int64

	// The chaos controller: kill at ~40% of the request budget,
	// revive at ~75% — both well inside the run so the disruption and
	// the recovery are measured, not straddled.
	ctrlDone := make(chan error, 1)
	ctrlStop := make(chan struct{})
	go func() {
		defer close(ctrlDone)
		if !cfg.Kill {
			return
		}
		waitFor := func(frac float64) bool {
			target := int64(float64(cfg.Requests) * frac)
			for progress.Load() < target {
				select {
				case <-ctrlStop:
					return false
				case <-time.After(2 * time.Millisecond):
				}
			}
			return true
		}
		if !waitFor(0.4) {
			return
		}
		killedFlag.Store(true)
		nodes[killIdx].kill()
		if !cfg.Revive || !waitFor(0.75) {
			return
		}
		if err := nodes[killIdx].start(origin, urls, urls[killIdx], cfg, nil); err != nil {
			ctrlDone <- fmt.Errorf("revive %s: %w", urls[killIdx], err)
			return
		}
		killedFlag.Store(false)
	}()

	res, err := driveClusterClients(client, cfg, urls, killIdx, &killedFlag, &progress)
	close(ctrlStop)
	if cerr := <-ctrlDone; cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	out := &ClusterResult{Disrupted: res.disrupted}
	if cfg.Kill {
		out.KilledNode = urls[killIdx]
	}
	out.Row = report.ServingRow{
		Clients:   cfg.Clients,
		ReqPerSec: float64(len(res.latencies)) / res.wall.Seconds(),
		P50:       percentile(res.latencies, 50),
		P99:       percentile(res.latencies, 99),
		QWaitP50:  percentile(res.qwaits, 50),
		QWaitP99:  percentile(res.qwaits, 99),
		Rejected:  res.rejected,
	}
	for i, n := range nodes {
		row := n.statsRow(fmt.Sprintf("n%d", i), cfg.Kill && i == killIdx)
		out.NodeRows = append(out.NodeRows, row)
		out.Rebalances += row.Rebalances
		out.Row.Hits += row.Hits
		out.Row.Misses += row.Misses
	}
	return out, nil
}

// driveClusterClients spreads cfg.Requests interactive requests over
// cfg.Clients goroutines, each request aimed at a random live node.
// Connection errors are tolerated only while the round has a kill in
// play: the request is retried on another node and counted as
// disrupted — a request the chaos touched but did not lose. Everything
// else (non-200, uninstrumented body) fails the round. The whole drive
// sits under the round watchdog: a hung request fails the round
// instead of hanging the harness.
func driveClusterClients(client *http.Client, cfg ClusterConfig, urls []string, killIdx int, killed *atomic.Bool, progress *atomic.Int64) (*driveResult, error) {
	type outcome struct {
		res *driveResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var next, rejected, disrupted atomic.Int64
		latencies := make([][]time.Duration, cfg.Clients)
		qwaits := make([][]time.Duration, cfg.Clients)
		errs := make([]error, cfg.Clients)
		var wg sync.WaitGroup
		start := time.Now()
		var uniqueID atomic.Int64
		for w := 0; w < cfg.Clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
				for int(next.Add(1)) <= cfg.Requests {
					var path string
					if rng.Float64() < cfg.UniqueFrac {
						path = fmt.Sprintf("/unique/%d.js", uniqueID.Add(1))
					} else {
						path = fmt.Sprintf("/hot/%d.js", rng.Intn(cfg.Hot))
					}
					served := false
					var lastErr error
					for try := 0; try < len(urls)+2 && !served; try++ {
						i := rng.Intn(len(urls))
						if killed.Load() && i == killIdx {
							// The harness knows the node is down; a real
							// client would learn it from the error. Step
							// to the next node instead of burning a try.
							i = (i + 1) % len(urls)
						}
						t0 := time.Now()
						res, err := get(client, urls[i]+path)
						if err != nil {
							if !cfg.Kill {
								errs[w] = err
								return
							}
							// A dying connection (the kill, or a request
							// already in flight on the killed node's
							// sockets): retry elsewhere.
							disrupted.Add(1)
							lastErr = err
							continue
						}
						if res.status == http.StatusTooManyRequests {
							rejected.Add(1)
							served = true
							break
						}
						if res.status != http.StatusOK {
							errs[w] = fmt.Errorf("GET %s%s: status %d", urls[i], path, res.status)
							return
						}
						if !strings.Contains(res.body, "__ceres") {
							errs[w] = fmt.Errorf("response for %s not instrumented", path)
							return
						}
						latencies[w] = append(latencies[w], time.Since(t0))
						qwaits[w] = append(qwaits[w], res.queueWait)
						served = true
					}
					if !served {
						errs[w] = fmt.Errorf("request %s exhausted node retries: %v", path, lastErr)
						return
					}
					progress.Add(1)
				}
			}(w)
		}
		wg.Wait()
		out := &driveResult{
			wall:      time.Since(start),
			rejected:  rejected.Load(),
			disrupted: disrupted.Load(),
		}
		for _, err := range errs {
			if err != nil {
				done <- outcome{nil, err}
				return
			}
		}
		for i := range latencies {
			out.latencies = append(out.latencies, latencies[i]...)
			out.qwaits = append(out.qwaits, qwaits[i]...)
		}
		sort.Slice(out.latencies, func(i, j int) bool { return out.latencies[i] < out.latencies[j] })
		sort.Slice(out.qwaits, func(i, j int) bool { return out.qwaits[i] < out.qwaits[j] })
		done <- outcome{out, nil}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(cfg.Watchdog):
		return nil, fmt.Errorf("cluster round exceeded %s watchdog — a request hung", cfg.Watchdog)
	}
}
