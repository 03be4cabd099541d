// Package proxy implements the JS-CERES instrumentation proxy of Fig. 5:
// an HTTP server that sits between the browser and the web server,
// rewrites JavaScript responses on the way through (step 2), accepts the
// analysis results the instrumented page posts back (step 5), and saves
// human-readable reports paired with the original sources (step 6; the
// paper pushes them to github.com — here they go to a local report
// directory, which is the substitution DESIGN.md documents).
//
// The proxy is built to sit on the hot path of every page load: rewrites
// go through a content-addressed single-flight LRU cache (cache.go),
// cache misses flow through the staged serving
// pipeline (pipeline.go) with bounded admission — saturation is shed as
// HTTP 429 + Retry-After instead of queueing without limit — forwarding
// follows reverse-proxy rules (hop-by-hop headers stripped in both
// directions per RFC 9110 §7.6.1, escaped paths preserved, non-JS
// bodies streamed), and all counters are exposed through the race-free
// Stats accessor and the /__ceres/stats endpoint. /__ceres/prewarm
// accepts a batch of script URLs or inline sources and fans them
// through the same pipeline to warm the cache ahead of traffic.
package proxy

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/sched"
)

// QueueWaitHeader is set on rewritten JavaScript responses: the
// admission queue wait the rewrite paid, in microseconds (0 for cache
// hits). Load generators read it to report queue-wait percentiles per
// client count.
const QueueWaitHeader = "X-Ceres-Queue-Wait"

// Proxy is the instrumenting reverse proxy. Build it with NewServing.
type Proxy struct {
	// Origin is the upstream web server base URL.
	Origin *url.URL
	// Mode selects the injected instrumentation stage.
	Mode instrument.Mode
	// ReportDir receives result reports ("github" substitute).
	ReportDir string
	// Client performs upstream requests (http.DefaultClient by default).
	Client *http.Client
	// Cache dedupes rewrites across requests; every miss runs through
	// Pipeline.
	Cache *RewriteCache
	// Pipeline runs cache misses as staged scheduler jobs with bounded
	// admission; saturation is shed as 429 (hits never pay admission).
	Pipeline *Pipeline
	// StatsEndpoint serves GET /__ceres/stats as JSON when true.
	StatsEndpoint bool
	// Cluster, when non-nil, routes each script key to its owning peer
	// before the local cache: keys this node owns are served locally,
	// everything else is forwarded to its owner over the peer protocol, so the per-key single-flight and
	// LRU contracts hold fleet-wide. nil = single-node mode.
	Cluster *cluster.Node

	instrumented atomic.Int64
	passthrough  atomic.Int64
	failures     atomic.Int64
	rejected     atomic.Int64
	seq          atomic.Int64

	mu      sync.Mutex
	results []Report
}

// ServeConfig sizes the serving layer built by NewServing.
type ServeConfig struct {
	// CacheBytes is the rewrite-cache byte budget
	// (<= 0 → DefaultCacheBytes).
	CacheBytes int64
	// Shards is never read: the cache is one LRU under one lock. The
	// field is kept only because the benchmark module sets it.
	Shards int
	// Workers sizes the pipeline's scheduler pool (0 → GOMAXPROCS).
	Workers int
	// QueueDepth bounds outstanding admitted rewrites; beyond it,
	// requests are shed with 429 (0 → Workers*2).
	QueueDepth int
	// BatchMaxWait > 0 puts a queue-wait deadline on batch admissions
	// (prewarm): work still queued past it is shed instead of run
	// stale. 0 = no deadline.
	BatchMaxWait time.Duration
}

// Stats is a snapshot of the proxy's counters. The cache is
// snapshotted under its lock — its entries, bytes and in-flight
// rewrites are mutually consistent — and the proxy-level
// atomics are read once each; fields racing with live traffic may be
// offset by requests still in flight.
type Stats struct {
	// Instrumented counts responses served with a rewritten body.
	Instrumented int64 `json:"instrumented"`
	// Passthrough counts responses streamed through untouched (non-JS,
	// non-200, or a script over maxScriptBytes).
	Passthrough int64 `json:"passthrough"`
	// Failures counts JS responses passed through unmodified because
	// the rewrite failed (step 2 must never break the page).
	Failures int64 `json:"failures"`
	// Rejected counts requests shed with 429 because the pipeline's
	// admission queue was saturated.
	Rejected int64 `json:"rejected"`
	// Rewrites counts rewrites that ran (CacheStats.Rewrites): cache
	// misses minus those shed with 429.
	Rewrites int64 `json:"rewrites"`
	// CacheHits/CacheMisses/Coalesced/CacheEvictions/CacheBytes/
	// CacheEntries/CacheInflight mirror RewriteCache.Stats.
	// CacheInflight is the number of single-flight rewrites in
	// progress — entries the cache is committed to that are not yet
	// resident, included so the snapshot cannot under-report entries
	// against bytes.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	Coalesced      int64 `json:"coalesced"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheBytes     int64 `json:"cache_bytes"`
	CacheEntries   int64 `json:"cache_entries"`
	CacheInflight  int64 `json:"cache_inflight"`
	// Reports counts result uploads accepted on /__ceres/results.
	Reports int64 `json:"reports"`
	// Pipeline is the staged serving pipeline's snapshot.
	Pipeline PipelineStats `json:"pipeline"`
	// Cluster is the fleet view: membership, ring rebalances, and the
	// owned/forwarded/replica/fallback counters (nil in single-node
	// mode).
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// Report is one result upload from the exercised page.
type Report struct {
	Path     string          `json:"path"`
	Received time.Time       `json:"received"`
	Body     json.RawMessage `json:"body"`
}

// NewServing returns the proxy for origin: a rewrite cache
// whose misses run through the staged pipeline with bounded admission,
// and the stats endpoint enabled. Callers must Close it to stop the
// pipeline workers.
func NewServing(origin string, mode instrument.Mode, reportDir string, cfg ServeConfig) (*Proxy, error) {
	u, err := url.Parse(origin)
	if err != nil {
		return nil, fmt.Errorf("proxy: origin: %w", err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Proxy{
		Origin:        u,
		Mode:          mode,
		ReportDir:     reportDir,
		Client:        http.DefaultClient,
		Cache:         NewRewriteCache(cfg.CacheBytes),
		Pipeline:      NewPipeline(workers, cfg.QueueDepth),
		StatsEndpoint: true,
	}
	p.Pipeline.SetBatchMaxWait(cfg.BatchMaxWait)
	p.Cache.SetRewriteFunc(p.Pipeline.RewriteFor)
	return p, nil
}

// Close stops the pipeline workers, draining in-flight rewrites.
func (p *Proxy) Close() { p.Pipeline.Close() }

// Stats snapshots the proxy, cache and pipeline counters.
func (p *Proxy) Stats() Stats {
	cs := p.Cache.Stats()
	s := Stats{
		Instrumented:   p.instrumented.Load(),
		Passthrough:    p.passthrough.Load(),
		Failures:       p.failures.Load(),
		Rejected:       p.rejected.Load(),
		Rewrites:       cs.Rewrites,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		Coalesced:      cs.Coalesced,
		CacheEvictions: cs.Evictions,
		CacheBytes:     cs.Bytes,
		CacheEntries:   cs.Entries,
		CacheInflight:  cs.Inflight,
		Pipeline:       p.Pipeline.Stats(),
	}
	p.mu.Lock()
	s.Reports = int64(len(p.results))
	p.mu.Unlock()
	if p.Cluster != nil {
		cs := p.Cluster.Stats()
		s.Cluster = &cs
	}
	return s
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/__ceres/results" && r.Method == http.MethodPost {
		p.handleResults(w, r)
		return
	}
	if r.URL.Path == "/__ceres/prewarm" && r.Method == http.MethodPost {
		p.handlePrewarm(w, r)
		return
	}
	if r.URL.Path == "/__ceres/stats" && p.StatsEndpoint && r.Method == http.MethodGet {
		p.handleStats(w)
		return
	}
	if r.URL.Path == cluster.PeerRewritePath && r.Method == http.MethodPost {
		p.handlePeerRewrite(w, r)
		return
	}
	if r.URL.Path == cluster.PeerPingPath {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	p.forward(w, r)
}

// hopByHopHeaders are the connection-scoped fields of RFC 9110 §7.6.1
// (plus the de-facto Proxy-Connection); a proxy must not forward them in
// either direction, in addition to any field named by Connection.
var hopByHopHeaders = []string{
	"Connection",
	"Proxy-Connection",
	"Keep-Alive",
	"Proxy-Authenticate",
	"Proxy-Authorization",
	"TE",
	"Trailer",
	"Transfer-Encoding",
	"Upgrade",
}

// stripHopByHop removes the headers named in Connection, then the
// well-known hop-by-hop set.
func stripHopByHop(h http.Header) {
	for _, field := range h.Values("Connection") {
		for _, name := range strings.Split(field, ",") {
			if name = textproto.TrimString(name); name != "" {
				h.Del(name)
			}
		}
	}
	for _, name := range hopByHopHeaders {
		h.Del(name)
	}
}

// copyEndToEndHeaders copies src into dst minus hop-by-hop fields.
func copyEndToEndHeaders(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
	stripHopByHop(dst)
}

func (p *Proxy) forward(w http.ResponseWriter, r *http.Request) {
	up := *p.Origin
	// Preserve the escaped form: a path like /a%2Fb must reach the
	// origin as sent, not decoded-and-re-encoded into /a/b.
	up.Path = r.URL.Path
	up.RawPath = r.URL.RawPath
	up.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, up.String(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	stripHopByHop(req.Header)
	// Let the transport negotiate encoding: forwarding the browser's
	// Accept-Encoding verbatim could yield a compressed body the
	// rewriter cannot parse; the transport's implicit gzip is
	// decompressed transparently before we see it.
	req.Header.Del("Accept-Encoding")

	resp, err := p.Client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK || !isJavaScript(resp.Header.Get("Content-Type"), r.URL.Path) {
		// Non-JS (and non-200) responses stream through without
		// buffering — images and videos never sit in proxy memory.
		p.streamThrough(w, resp, resp.Body)
		return
	}

	body, err := io.ReadAll(io.LimitReader(resp.Body, maxScriptBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if len(body) > maxScriptBytes {
		// Too large to hold and parse: what was read, then the rest.
		p.streamThrough(w, resp, io.MultiReader(bytes.NewReader(body), resp.Body))
		return
	}
	out, wait, rerr := p.routeRewrite(r, body, sched.ClassInteractive)
	if errors.Is(rerr, sched.ErrSaturated) {
		// Backpressure, not failure: the admission queue is full even
		// after batch shedding, so shed the request instead of queueing
		// without bound. The Retry-After hint tracks the observed
		// interactive queue-wait tail — clients back off in proportion
		// to actual saturation, not a hardcoded beat.
		p.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(p.retryAfterSeconds(sched.ClassInteractive)))
		http.Error(w, "rewrite queue saturated", http.StatusTooManyRequests)
		return
	}
	if rerr != nil {
		// Step 2 must never break the page: unparsable scripts pass
		// through untouched.
		p.failures.Add(1)
		out = body
	} else {
		p.instrumented.Add(1)
	}
	copyEndToEndHeaders(w.Header(), resp.Header)
	w.Header().Set(QueueWaitHeader, strconv.FormatInt(wait.Microseconds(), 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(out)
}

// streamThrough answers with the origin's status and headers and copies
// body to the client unmodified, counted as a passthrough.
func (p *Proxy) streamThrough(w http.ResponseWriter, resp *http.Response, body io.Reader) {
	p.passthrough.Add(1)
	copyEndToEndHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, body)
}

// routeRewrite is the cluster route-or-serve decision, taken before
// the local cache: in single-node mode (or for a request that already
// hopped once — single-hop loop prevention) it is the local rewrite;
// in cluster mode the script key either belongs here (owner or sole
// survivor) and is served locally, or is forwarded to
// its owning peer at the caller's latency class. A forward that
// exhausts its retries falls back to a local rewrite — availability
// beats strict ownership, and the rewrite is deterministic so the
// bytes are identical — while a terminal peer answer (the script does
// not rewrite) surfaces as the same failure a local parse would.
func (p *Proxy) routeRewrite(r *http.Request, body []byte, class sched.Class) ([]byte, time.Duration, error) {
	if p.Cluster == nil || r.Header.Get(cluster.HopHeader) != "" {
		return p.Cache.RewriteTimed(body, p.Mode, class)
	}
	sum := sha256.Sum256(body)
	owner, local := p.Cluster.Route(cluster.KeyPoint(sum, int(p.Mode)))
	if local {
		out, wait, err := p.Cache.rewriteKeyed(sum, body, p.Mode, class)
		if !errors.Is(err, sched.ErrSaturated) {
			p.Cluster.CountLocal()
		}
		return out, wait, err
	}
	out, wait, err := p.Cluster.Forward(r.Context(), owner, body, p.Mode, class)
	if err == nil {
		return out, wait, nil
	}
	if !cluster.Retryable(err) {
		// The owner answered: this script does not rewrite (or the
		// fleet is misconfigured). Re-running the same deterministic
		// transform locally cannot change the verdict.
		return nil, 0, err
	}
	p.Cluster.CountFallback()
	return p.Cache.rewriteKeyed(sum, body, p.Mode, class)
}

// handlePeerRewrite serves POST /__ceres/peer/rewrite: a rewrite
// forwarded by a peer that routed the key here. The body is raw
// source; the class header keeps forwarded interactive work
// interactive. Hopped requests are always served locally — never
// re-forwarded — so divergent membership views cost one extra local
// rewrite instead of a loop. 200 carries the rewritten bytes and the
// queue wait, 429 + Retry-After reports saturation (retryable at the
// caller), 422 reports a script that does not rewrite (terminal).
func (p *Proxy) handlePeerRewrite(w http.ResponseWriter, r *http.Request) {
	src, err := io.ReadAll(io.LimitReader(r.Body, maxScriptBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(src) > maxScriptBytes {
		http.Error(w, fmt.Sprintf("proxy: peer rewrite body over %d bytes", maxScriptBytes), http.StatusBadRequest)
		return
	}
	if m := r.Header.Get(cluster.ModeHeader); m != "" && m != p.Mode.String() {
		// A mixed-mode fleet would cache differently-instrumented
		// bytes under the same stats umbrella; refuse loudly.
		http.Error(w, fmt.Sprintf("proxy: peer mode %q != local mode %q", m, p.Mode), http.StatusConflict)
		return
	}
	class := cluster.ParseClass(r.Header.Get(cluster.ClassHeader))
	if p.Cluster != nil {
		p.Cluster.CountReceived()
	}
	out, wait, rerr := p.Cache.RewriteTimed(src, p.Mode, class)
	if errors.Is(rerr, sched.ErrSaturated) {
		w.Header().Set("Retry-After", strconv.Itoa(p.retryAfterSeconds(class)))
		http.Error(w, "rewrite queue saturated", http.StatusTooManyRequests)
		return
	}
	if rerr != nil {
		p.failures.Add(1)
		http.Error(w, rerr.Error(), http.StatusUnprocessableEntity)
		return
	}
	p.instrumented.Add(1)
	w.Header().Set("Content-Type", "application/javascript")
	w.Header().Set(QueueWaitHeader, strconv.FormatInt(wait.Microseconds(), 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	_, _ = w.Write(out)
}

// retryAfterSeconds derives the Retry-After hint for a shed request
// from the observed queue-wait p99 of its class, rounded up to whole
// seconds — minimum 1 (the header is integer seconds and zero would
// invite an immediate stampede), capped at 30 (beyond that the hint is
// noise, not guidance).
func (p *Proxy) retryAfterSeconds(class sched.Class) int {
	st := p.Pipeline.Queue().Stats()
	p99 := st.Interactive.QueueWaitP99
	if class == sched.ClassBatch {
		p99 = st.Batch.QueueWaitP99
	}
	return retryAfterFromP99(p99)
}

// retryAfterFromP99 rounds a queue-wait p99 up to whole seconds,
// clamped to [1, 30].
func retryAfterFromP99(p99 time.Duration) int {
	secs := int((p99 + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

func isJavaScript(contentType, path string) bool {
	ct := strings.ToLower(contentType)
	if strings.Contains(ct, "javascript") || strings.Contains(ct, "ecmascript") {
		return true
	}
	return strings.HasSuffix(path, ".js") || strings.HasSuffix(path, ".mjs")
}

func (p *Proxy) handleStats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p.Stats())
}

// PrewarmRequest is the /__ceres/prewarm body: script URLs (paths
// resolved against the origin; absolute URLs must be on the origin)
// and/or inline sources to rewrite into the cache ahead of traffic.
type PrewarmRequest struct {
	URLs    []string `json:"urls"`
	Sources []string `json:"sources"`
}

// PrewarmItem is one entry's outcome in the prewarm response.
type PrewarmItem struct {
	// Target is the URL, or "source[i]" for inline sources.
	Target string `json:"target"`
	// Status is "ok" (rewritten or already cached), "saturated" (the
	// pipeline shed it — re-POST later), or "failed".
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// PrewarmResponse summarizes a prewarm batch.
type PrewarmResponse struct {
	OK        int           `json:"ok"`
	Saturated int           `json:"saturated"`
	Failed    int           `json:"failed"`
	Items     []PrewarmItem `json:"items"`
}

// prewarmMaxItems bounds one batch; operators split larger sets.
const prewarmMaxItems = 1024

// prewarmFetchers bounds the scheduler workers one prewarm batch runs
// on, and so its concurrent origin fetches. The rewrite side needs no
// extra bound — pipeline admission is the backpressure.
const prewarmFetchers = 8

// prewarmMaxBody and resultsMaxBody cap the request bodies of
// /__ceres/prewarm and /__ceres/results.
const (
	prewarmMaxBody = 8 << 20
	resultsMaxBody = 1 << 20
)

// readBody reads r's body up to limit bytes. A longer body is refused
// with 413 naming the cap instead of being cut short and misparsed;
// false means the response has been written.
func readBody(w http.ResponseWriter, r *http.Request, limit int) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(limit)+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(body) > limit {
		http.Error(w, fmt.Sprintf("proxy: %s body over %d bytes", r.URL.Path, limit), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body, true
}

// handlePrewarm fans a batch of scripts through the rewrite path so the
// cache is hot before real traffic arrives. Rewrites ride the same
// scheduler pipeline as live requests, so a prewarm competes under the
// same admission bound and reports per-item saturation instead of
// stampeding the pool.
func (p *Proxy) handlePrewarm(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, prewarmMaxBody)
	if !ok {
		return
	}
	var req PrewarmRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "proxy: prewarm body must be JSON {urls, sources}", http.StatusBadRequest)
		return
	}
	n := len(req.URLs) + len(req.Sources)
	if n == 0 {
		http.Error(w, "proxy: prewarm body names no scripts", http.StatusBadRequest)
		return
	}
	if n > prewarmMaxItems {
		http.Error(w, fmt.Sprintf("proxy: prewarm batch over %d items", prewarmMaxItems), http.StatusBadRequest)
		return
	}

	items := make([]PrewarmItem, n)
	warm := func(i int) {
		it := &items[i]
		var src []byte
		if i < len(req.URLs) {
			it.Target = req.URLs[i]
			var err error
			if src, err = p.fetchScript(r, it.Target); err != nil {
				it.Status, it.Error = "failed", err.Error()
				return
			}
		} else {
			k := i - len(req.URLs)
			it.Target = fmt.Sprintf("source[%d]", k)
			src = []byte(req.Sources[k])
		}
		// Prewarm is batch work: it fills residual capacity, sheds
		// first at saturation, and never delays a live page load.
		// A prewarm source belongs in its *owner's* cache — warming it
		// here would populate a cache that never serves the key — so a
		// remote-owned source is sent to its owner as a batch-class
		// peer rewrite, which fills the owner's cache; one POST to any
		// node warms the whole fleet correctly.
		sum := sha256.Sum256(src)
		owner, local := "", true
		if p.Cluster != nil {
			owner, local = p.Cluster.Route(cluster.KeyPoint(sum, int(p.Mode)))
		}
		var err error
		if local {
			_, _, err = p.Cache.rewriteKeyed(sum, src, p.Mode, sched.ClassBatch)
		} else {
			p.Cluster.CountPrewarmTransfer()
			_, _, err = p.Cluster.Forward(r.Context(), owner, src, p.Mode, sched.ClassBatch)
		}
		switch {
		case errors.Is(err, sched.ErrSaturated):
			it.Status = "saturated"
		case cluster.Retryable(err):
			it.Status, it.Error = "saturated", err.Error()
		case err != nil:
			it.Status, it.Error = "failed", err.Error()
		default:
			it.Status = "ok"
		}
	}
	// One item per chunk, claimed in order by prewarmFetchers workers
	// (the handler's goroutine among them), so a batch never has more
	// than prewarmFetchers items in flight. warm records every failure
	// in its item, so no chunk cancels the batch.
	sched.RunPlan(sched.UnitPlan(n), sched.Options{Workers: prewarmFetchers}, func(_, _, lo, _ int) error {
		warm(lo)
		return nil
	})

	var resp PrewarmResponse
	resp.Items = items
	for _, it := range items {
		switch it.Status {
		case "ok":
			resp.OK++
		case "saturated":
			resp.Saturated++
		default:
			resp.Failed++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// maxScriptBytes caps one script, however it arrives — the same as
// the prewarm whole-batch body limit, so a hostile or misconfigured
// origin, target or peer cannot balloon proxy memory. A proxied script
// over the cap streams through unmodified; a prewarm target or peer
// body over it is refused.
const maxScriptBytes = 8 << 20

// fetchScript retrieves one prewarm target. Targets are confined to
// the configured origin: a path is resolved against it, and an
// absolute URL must match the origin's scheme and host — prewarm is a
// cache-warming endpoint, not a generic fetcher, and must not let an
// unauthenticated client aim the proxy's network position at internal
// addresses.
func (p *Proxy) fetchScript(r *http.Request, raw string) ([]byte, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("proxy: prewarm url: %w", err)
	}
	if u.IsAbs() && (u.Scheme != p.Origin.Scheme || u.Host != p.Origin.Host) {
		return nil, fmt.Errorf("proxy: prewarm url %q is not on the origin %s", raw, p.Origin.Host)
	}
	up := *p.Origin
	up.Path = u.Path
	up.RawPath = u.RawPath
	up.RawQuery = u.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, up.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("proxy: prewarm fetch %s: status %d", up.String(), resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxScriptBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxScriptBytes {
		return nil, fmt.Errorf("proxy: prewarm fetch %s: script over %d bytes", up.String(), maxScriptBytes)
	}
	return body, nil
}

func (p *Proxy) handleResults(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, resultsMaxBody)
	if !ok {
		return
	}
	if !json.Valid(body) {
		http.Error(w, "proxy: results must be JSON", http.StatusBadRequest)
		return
	}
	rep := Report{
		Path:     r.URL.Query().Get("page"),
		Received: time.Now(),
		Body:     json.RawMessage(body),
	}
	// Save before appending so memory and disk cannot diverge: a failed
	// write 500s without leaving a phantom in-memory report.
	seq := p.seq.Add(1)
	if p.ReportDir != "" {
		if err := p.saveReport(int(seq), rep); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	p.mu.Lock()
	p.results = append(p.results, rep)
	p.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// saveReport writes the human-readable report file (Fig. 5 step 6).
func (p *Proxy) saveReport(seq int, rep Report) error {
	if err := os.MkdirAll(p.ReportDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "JS-CERES report #%d\npage: %s\nreceived: %s\n\n",
		seq, rep.Path, rep.Received.Format(time.RFC3339))
	// json.Indent pretty-prints any valid JSON value — objects, arrays,
	// bare numbers — where unmarshalling into map[string]any rejected
	// everything but objects.
	if err := json.Indent(&buf, rep.Body, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	name := filepath.Join(p.ReportDir, fmt.Sprintf("report-%03d.txt", seq))
	return os.WriteFile(name, buf.Bytes(), 0o644)
}

// Results returns the received reports.
func (p *Proxy) Results() []Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Report, len(p.results))
	copy(out, p.results)
	return out
}
