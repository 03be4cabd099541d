// Command ceresproxy runs the JS-CERES instrumentation proxy of Fig. 5
// as a cached, pipelined rewrite service: point a browser (or this
// repository's interpreter) at it, and every JavaScript response from
// the origin is rewritten with profiling instrumentation on the way
// through. Pages post results to /__ceres/results; the proxy saves
// human-readable reports. Rewrites are served from a content-addressed
// single-flight LRU cache of -cache-bytes; misses run through the
// staged decode→parse→rewrite→encode pipeline on -rewrite-workers
// scheduler workers with a -queue-depth admission bound (saturation is
// shed as 429 + Retry-After). POST a JSON batch to /__ceres/prewarm to
// warm the cache ahead of traffic; live counters are at /__ceres/stats.
//
// Usage:
//
//	ceresproxy -origin http://localhost:8000 -listen :8080 -mode loops \
//	    -reports ./ceres-reports -cache-bytes 67108864 \
//	    -rewrite-workers 4 -queue-depth 64 -batch-max-wait 500ms -stats
//
// Rewrites are classed: live page loads are interactive, prewarm is
// batch. Interactive admissions outrank batch ones, batch work is shed
// first at saturation, and -batch-max-wait drops batch jobs still
// queued past the deadline instead of running them stale.
//
// Cluster mode: pass -peers with the full fleet member list (including
// this node's own public URL, identified by -cluster-self) and the
// proxy joins a consistent-hash rewrite fleet. Each script source hashes
// to exactly one owner; non-owners forward rewrites over the peer
// protocol and fall back to a local rewrite if the owner is unreachable.
// Health probes eject dead peers from the ring and readmit them when
// they recover. Prewarm batches POSTed to any node are routed to each
// source's owner, so one POST warms the fleet.
//
//	ceresproxy -listen :8080 -cluster-self http://host1:8080 \
//	    -peers http://host1:8080,http://host2:8080,http://host3:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/proxy"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ceresproxy:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments, output streams and lifetime
// passed in: it serves until ctx is done, then shuts down gracefully (stop
// accepting, let in-flight requests finish, drain the pipeline workers)
// and returns nil. A flag error returns before anything listens, and
// before anything is written to stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ceresproxy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	origin := fs.String("origin", "http://localhost:8000", "upstream web server")
	listen := fs.String("listen", ":8080", "proxy listen address")
	mode := fs.String("mode", "light", "instrumentation mode: light, loops")
	reports := fs.String("reports", "ceres-reports", "directory for result reports")
	cacheBytes := fs.Int64("cache-bytes", proxy.DefaultCacheBytes, "rewrite cache budget in bytes (> 0)")
	workers := fs.Int("rewrite-workers", 0, "rewrite pipeline worker count (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "max outstanding rewrites before requests are shed with 429 (0 = workers*2)")
	batchMaxWait := fs.Duration("batch-max-wait", 0, "shed batch-class rewrites (prewarm) still queued past this deadline (0 disables)")
	stats := fs.Bool("stats", true, "serve live counters at /__ceres/stats")
	peers := fs.String("peers", "", "comma-separated fleet member URLs including this node (empty = single-node)")
	clusterSelf := fs.String("cluster-self", "", "this node's own URL as it appears in -peers (required with -peers)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := instrument.ParseMode(*mode)
	if err != nil {
		return err
	}
	if *cacheBytes <= 0 {
		return errors.New("-cache-bytes must be > 0")
	}
	var node *cluster.Node
	var members []string
	if *peers != "" {
		for _, member := range strings.Split(*peers, ",") {
			if member = strings.TrimSpace(member); member != "" {
				members = append(members, member)
			}
		}
		if *clusterSelf == "" {
			return errors.New("-peers requires -cluster-self (this node's URL as listed in -peers)")
		}
		node, err = cluster.New(cluster.Config{Self: *clusterSelf, Peers: members})
		if err != nil {
			return err
		}
	}
	cfg := proxy.ServeConfig{
		CacheBytes:   *cacheBytes,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		BatchMaxWait: *batchMaxWait,
	}
	p, err := proxy.NewServing(*origin, m, *reports, cfg)
	if err != nil {
		return err
	}
	defer p.Close()
	p.StatsEndpoint = *stats
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}

	if node != nil {
		p.Cluster = node
		node.Start()
		defer node.Close() // before p.Close: defers run last-first
		fmt.Fprintf(stdout, "ceresproxy: cluster of %d members, self=%s\n", len(members), *clusterSelf)
	}
	fmt.Fprintf(stdout, "ceresproxy: %s -> %s (mode=%s, reports=%s, cache=%dB, workers=%d, queue-depth=%d, batch-max-wait=%s, stats=%v)\n",
		ln.Addr(), *origin, m, *reports, *cacheBytes,
		p.Pipeline.Queue().Workers(), p.Pipeline.Queue().Depth(), formatWait(*batchMaxWait), *stats)

	srv := &http.Server{Handler: p}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

func formatWait(d time.Duration) string {
	if d <= 0 {
		return "off"
	}
	return d.String()
}
