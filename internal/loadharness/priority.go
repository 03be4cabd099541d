package loadharness

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/proxy"
	"repro/internal/report"
)

// RunPriorityRound drives the mixed-class scenario: Clients interactive
// clients walk a shared sequence of script paths while BatchClients
// background generators POST prewarm batches — batch-class admissions —
// whose first source is always the script slightly *ahead* of the
// interactive edge. That overlap is deliberate: when an interactive
// request lands on a script whose batch rewrite is still in flight, the
// single-flight layer promotes the flight (visible in the promoted
// column), and when the prewarm wins the race outright the interactive
// request is a cache hit. The rest of each batch is fresh unique
// sources, i.e. pure background pressure.
//
// Per-class queue waits come from the server's own admission-queue
// rings (Pipeline.Queue stats), not client-side headers, so the row
// reports exactly what the scheduler saw. Client latency percentiles
// remain client-side and interactive-only.
func RunPriorityRound(origin string, cfg Config) (*report.ServingRow, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	p, base, stop, err := startProxy(origin, cfg)
	if err != nil {
		return nil, err
	}
	defer stop()
	client := newClient(cfg.Clients + cfg.BatchClients)
	defer client.CloseIdleConnections()

	// sharedSeq is the interactive request edge; spammers prewarm a few
	// positions ahead of it.
	var sharedSeq atomic.Int64

	stopBatch := make(chan struct{})
	ctrs, spammers := startBatchSpammers(client, base, cfg, &sharedSeq, stopBatch)
	if cfg.BatchClients > 0 {
		// Don't start the timed interactive phase until a whole batch
		// has been through the proxy: from here on the generators are
		// in their steady state, and BatchDone is non-zero however
		// short the phase turns out to be.
		<-ctrs.warm
	}

	batchOKBefore := ctrs.ok.Load()
	res, err := driveClients(client, base, cfg, func(*rand.Rand) string {
		return sharedPath(sharedSeq.Add(1))
	})
	batchOK := ctrs.ok.Load() - batchOKBefore
	close(stopBatch)
	spammers.Wait()
	if err != nil {
		return nil, err
	}

	stats := p.Stats()
	qs := stats.Pipeline.Queue
	row := &report.ServingRow{
		PerClass:       true,
		Clients:        cfg.Clients,
		BatchClients:   cfg.BatchClients,
		ReqPerSec:      float64(len(res.latencies)) / res.wall.Seconds(),
		RewritesPerSec: float64(stats.Rewrites) / res.wall.Seconds(),
		P50:            percentile(res.latencies, 50),
		P99:            percentile(res.latencies, 99),
		QWaitP50:       qs.Interactive.QueueWaitP50,
		QWaitP99:       qs.Interactive.QueueWaitP99,
		Rejected:       res.rejected,
		BatchPerSec:    float64(batchOK) / res.wall.Seconds(),
		BatchDone:      ctrs.ok.Load(),
		BatchShed:      qs.Batch.Shed + qs.Batch.Rejected,
		BatchQWaitP99:  qs.Batch.QueueWaitP99,
		Promoted:       qs.Promoted,
		Hits:           stats.CacheHits,
		Misses:         stats.CacheMisses,
		Coalesced:      stats.Coalesced,
		Failures:       stats.Failures,
	}
	return row, nil
}

func sharedPath(n int64) string {
	return fmt.Sprintf("/shared/%d.js", n)
}

// batchCounters tallies the background prewarm traffic. ok counts
// sources the proxy reported rewritten (or already cached); saturated
// counts sources shed or rejected under pressure. warm is closed when
// the first POST of any generator has returned.
type batchCounters struct {
	ok        atomic.Int64
	saturated atomic.Int64
	failed    atomic.Int64
	warm      chan struct{}
	warmOnce  sync.Once
}

// startBatchSpammers launches cfg.BatchClients goroutines that POST
// prewarm batches back to back until stop closes. Each batch carries
// one "lookahead" source — the script a few positions past the current
// interactive edge, generated byte-identically to what the origin will
// serve for that path — plus BatchSize-1 unique background sources.
func startBatchSpammers(client *http.Client, base string, cfg Config, sharedSeq *atomic.Int64, stop <-chan struct{}) (*batchCounters, *sync.WaitGroup) {
	ctrs := &batchCounters{warm: make(chan struct{})}
	var wg sync.WaitGroup
	for b := 0; b < cfg.BatchClients; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			n := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := proxy.PrewarmRequest{}
				ahead := sharedSeq.Load() + int64(b) + 1
				req.Sources = append(req.Sources, GenerateScript(sharedPath(ahead), cfg.ScriptLoops))
				for k := 1; k < cfg.BatchSize; k++ {
					n++
					req.Sources = append(req.Sources, GenerateScript(fmt.Sprintf("/batch/%d/%d", b, n), cfg.ScriptLoops))
				}
				pr, err := postPrewarm(client, base, req)
				if err != nil {
					ctrs.failed.Add(1)
				} else {
					ctrs.ok.Add(int64(pr.OK))
					ctrs.saturated.Add(int64(pr.Saturated))
					ctrs.failed.Add(int64(pr.Failed))
				}
				ctrs.warmOnce.Do(func() { close(ctrs.warm) })
			}
		}(b)
	}
	return ctrs, &wg
}
