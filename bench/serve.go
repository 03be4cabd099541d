package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/proxy"
	"repro/internal/sched"
)

// serveShape is what differs between the four serving workloads.
type serveShape struct {
	nodes        int           // proxies: 1, or 3 for the fleet
	depthPerW    int           // ServeConfig.QueueDepth = depthPerW x W
	batchMaxWait time.Duration // ServeConfig.BatchMaxWait
	requests     int           // interactive requests per round at scale 1
	hotShare     float64       // share of requests drawn from the hot pool
	bundles      bool          // never-seen requests are ~30 KB bundles, not single sources
	batchWriters bool          // half of W POSTs prewarm batches beside the interactive half
}

const (
	hotPool      = 64 // resident single-app sources; working set far below the cache
	prewarmBatch = 8  // fresh bundles per /__ceres/prewarm call
	cacheBytes   = 16 << 20
	cacheShards  = 8
	reqHeader    = "X-Bench-Req"
	batchIDBase  = 1 << 30 // ids of prewarm sources, apart from requested ones
)

type reqKey struct{}

// httpServer is one loopback listener and the server on it.
type httpServer struct {
	url  string
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

func listenLoopback() (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &httpServer{url: "http://" + ln.Addr().String(), ln: ln}, nil
}

func (s *httpServer) serve(h http.Handler) {
	s.srv = &http.Server{Handler: h}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(s.ln) // returns ErrServerClosed on stop
	}()
}

// stop shuts the server down and waits for its accept loop to end.
func (s *httpServer) stop() {
	if s.srv == nil {
		s.ln.Close()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// node is one proxy under test, with the fleet member beside it when
// the workload has one.
type node struct {
	srv        *httpServer
	p          *proxy.Proxy
	cn         *cluster.Node
	transports []*http.Transport
}

// serveInst is a started serving workload: origin, proxies, clients.
type serveInst struct {
	cfg      runConfig
	shape    serveShape
	corp     *corpus
	hot      [][]byte                  // the resident pool: ids 0..hotPool-1
	known    map[int][sha256.Size]byte // oracle hashes of the hot pool
	origin   *httpServer
	nodes    []*node
	clients  []*http.Client
	writers  []*http.Client
	nextID   int      // next never-seen source id
	requests int      // interactive requests per round
	resps    []served // 200 responses not yet verified

	// Tracing state: the tracer of the round in flight (nil outside the
	// traced round), and which request last fetched which bytes.
	tr        atomic.Pointer[tracer]
	reqSeq    atomic.Int64
	reqBySum  sync.Map // [32]byte -> int64
	base      []proxy.Stats
	batchSeq  atomic.Int64
	batchPerS float64 // prewarm sources rewritten per second, last round
}

func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

func setupServe(shape serveShape) func(cfg runConfig) (instance, error) {
	return func(cfg runConfig) (instance, error) {
		s := &serveInst{cfg: cfg, shape: shape, corp: newCorpus(cfg.seed), known: make(map[int][sha256.Size]byte)}
		s.requests = cfg.scaled(shape.requests)
		s.nextID = hotPool
		if err := s.start(); err != nil {
			s.close()
			return nil, err
		}
		// Warm-up: every hot source once, then half a round of the
		// workload's own mix, so that the cache is at its byte budget (or
		// holds the whole pool) and connections and the Go heap are at
		// their steady state before anything is timed.
		if rr := s.runRound(s.requests/2+1, nil, true); rr.failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up: %d of %d requests failed", rr.failed, rr.attempted)
		}
		return s, nil
	}
}

func (s *serveInst) start() error {
	for i := 0; i < hotPool; i++ {
		src := s.corp.single(i)
		sum, err := oracleSum(i, src, true)
		if err != nil {
			return err
		}
		s.hot, s.known[i] = append(s.hot, src), sum
	}
	var err error
	if s.origin, err = listenLoopback(); err != nil {
		return err
	}
	s.origin.serve(http.HandlerFunc(s.serveOrigin))

	var peers []string
	for i := 0; i < s.shape.nodes; i++ {
		srv, err := listenLoopback()
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, &node{srv: srv})
		peers = append(peers, srv.url)
	}
	w := s.cfg.w
	for _, n := range s.nodes {
		n.p, err = proxy.NewServing(s.origin.url, serveMode, "", proxy.ServeConfig{
			CacheBytes:   cacheBytes,
			Shards:       cacheShards,
			Workers:      w,
			QueueDepth:   s.shape.depthPerW * w,
			BatchMaxWait: s.shape.batchMaxWait,
		})
		if err != nil {
			return err
		}
		n.p.Client = s.client(n, "origin_fetch")
		if s.cfg.trace {
			n.p.Cache.SetRewriteFunc(s.tracedRewrite(n.p))
		}
		if s.shape.nodes > 1 {
			n.cn, err = cluster.New(cluster.Config{
				Self: n.srv.url, Peers: peers, ReplicateQPS: 0,
				Client: s.client(n, "peer_hop"),
			})
			if err != nil {
				return err
			}
			n.p.Cluster = n.cn
			n.cn.Start()
		}
		var h http.Handler = n.p
		if s.cfg.trace {
			h = s.tracedHandler(n.p)
		}
		n.srv.serve(h)
	}

	clients := w
	if s.shape.batchWriters {
		clients = max(1, w/2)
		for i := 0; i < clients; i++ {
			s.writers = append(s.writers, &http.Client{Transport: newTransport()})
		}
	}
	for i := 0; i < clients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: newTransport()})
	}
	return nil
}

// client builds the HTTP client a node fetches with; the traced run
// wraps its transport so each fetch becomes a span.
func (s *serveInst) client(n *node, spanName string) *http.Client {
	t := newTransport()
	n.transports = append(n.transports, t)
	if !s.cfg.trace {
		return &http.Client{Transport: t}
	}
	return &http.Client{Transport: &spanTransport{base: t, s: s, name: spanName}}
}

func (s *serveInst) serveOrigin(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/s/"), ".js"))
	if err != nil || id < 0 {
		http.NotFound(w, r)
		return
	}
	src := s.body(id)
	if s.tr.Load() != nil {
		// The proxy clones request headers upstream, so the origin knows
		// which request these bytes are for.
		if req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
			s.reqBySum.Store(sha256.Sum256(src), req)
		}
	}
	w.Header().Set("Content-Type", "application/javascript")
	w.Header().Set("Content-Length", strconv.Itoa(len(src)))
	_, _ = w.Write(src) // a client that went away is that request's failure
}

// tracedHandler records the time a request spends inside a proxy and
// hands its id on through the context.
func (s *serveInst) tracedHandler(p *proxy.Proxy) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if tr == nil || err != nil {
			p.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		p.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, req)))
		tr.add("proxy_handler", req, t0, time.Now())
	})
}

// tracedRewrite wraps the cache's miss path: the rewrite call is a span
// and the queue wait it reports is a child of it.
func (s *serveInst) tracedRewrite(p *proxy.Proxy) proxy.RewriteFunc {
	inner := p.Pipeline.RewriteFor
	return func(src []byte, mode instrument.Mode, class sched.Class, started func(func())) ([]byte, time.Duration, error) {
		tr := s.tr.Load()
		if tr == nil {
			return inner(src, mode, class, started)
		}
		t0 := time.Now()
		body, wait, err := inner(src, mode, class, started)
		t1 := time.Now()
		if req, ok := s.reqBySum.Load(sha256.Sum256(src)); ok {
			tr.add("rewrite_call", req.(int64), t0, t1)
			tr.add("queue_wait", req.(int64), t0, t0.Add(min(wait, t1.Sub(t0))))
		}
		return body, wait, err
	}
}

// spanTransport turns each fetch of a traced request into a span that
// ends when the body has been read.
type spanTransport struct {
	base http.RoundTripper
	s    *serveInst
	name string
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := t.s.tr.Load()
	req, ok := r.Context().Value(reqKey{}).(int64)
	if tr == nil || !ok {
		return t.base.RoundTrip(r)
	}
	if r.Header.Get(reqHeader) == "" {
		// A peer hop builds its own headers; carry the id across.
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		tr.add(t.name, req, t0, time.Now())
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tr.add(t.name, req, t0, time.Now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// body is the source with the given id: a member of the hot pool, or
// generated on demand, so that no round's corpus sits in the heap of
// the process whose garbage collector is being measured.
func (s *serveInst) body(id int) []byte {
	switch {
	case id < hotPool:
		return s.hot[id]
	case s.shape.bundles:
		return s.corp.bundle(id)
	}
	return s.corp.single(id)
}

// plan draws one round's request sequence as source ids.
func (s *serveInst) plan(n int, warm bool) []int {
	r := rand.New(rand.NewPCG(s.cfg.seed, uint64(s.nextID)))
	plan := make([]int, 0, n+hotPool)
	if warm && s.shape.hotShare > 0 {
		for id := range s.hot {
			plan = append(plan, id)
		}
	}
	for i := 0; i < n; i++ {
		if r.Float64() < s.shape.hotShare {
			plan = append(plan, r.IntN(hotPool))
			continue
		}
		plan = append(plan, s.nextID)
		s.nextID++
	}
	return plan
}

func (s *serveInst) round(tr *tracer) roundResult { return s.runRound(s.requests, tr, false) }

// runRound is one closed-loop round: every client sends its next
// request only when the previous answer has been read to the end.
func (s *serveInst) runRound(n int, tr *tracer, warm bool) roundResult {
	plan := s.plan(n, warm)
	if tr != nil {
		s.base = s.stats()
	}
	s.tr.Store(tr)
	defer s.tr.Store(nil)

	type out struct {
		lat    []time.Duration
		ends   []time.Duration // completion times since the round began
		resps  []served
		failed int
	}
	outs := make([]out, len(s.clients))
	var next atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	batchOK := make([]int, len(s.writers))
	var batchWG sync.WaitGroup
	start := time.Now()
	for b, c := range s.writers {
		batchWG.Add(1)
		go func() {
			defer batchWG.Done()
			batchOK[b] = s.writeBatches(c, stop, tr)
		}()
	}
	for ci, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[ci]
			var buf bytes.Buffer
			for {
				k := int(next.Add(1)) - 1
				if k >= len(plan) {
					return
				}
				// Requests rotate over the nodes, so every node takes
				// client traffic whatever W is.
				base := s.nodes[k%len(s.nodes)].srv.url
				sum, lat, ok := s.fetch(c, base, plan[k], &buf, tr)
				if !ok {
					o.failed++
					continue
				}
				o.lat = append(o.lat, lat)
				o.ends = append(o.ends, time.Since(start))
				o.resps = append(o.resps, served{id: plan[k], sum: sum})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	batchWG.Wait()
	batchWall := time.Since(start)

	rr := roundResult{wall: wall, attempted: len(plan)}
	for _, o := range outs {
		rr.failed += o.failed
		rr.lat = append(rr.lat, o.lat...)
		s.resps = append(s.resps, o.resps...)
	}
	ok := 0
	for _, n := range batchOK {
		ok += n
	}
	// Batch writers stop when the interactive side is done, but their
	// last POST ends later: each side is rated over its own wall. Where
	// reads and writes share the queue, the round's work is both.
	s.batchPerS = ratio(float64(ok), batchWall.Seconds())
	var ends []time.Duration
	for _, o := range outs {
		ends = append(ends, o.ends...)
	}
	rr.ops = float64(len(ends) + ok)
	rr.opsPerS = sliceRate(ends) + s.batchPerS
	return rr
}

// fetch is one interactive request: latency runs from the send to the
// last body byte; the hash for the oracle is taken after the clock stops.
func (s *serveInst) fetch(c *http.Client, base string, src int, buf *bytes.Buffer, tr *tracer) (sum [sha256.Size]byte, lat time.Duration, ok bool) {
	req, err := http.NewRequest(http.MethodGet, base+"/s/"+strconv.Itoa(src)+".js", nil)
	if err != nil {
		return sum, 0, false
	}
	id := s.reqSeq.Add(1)
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return sum, 0, false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	tr.add("request", id, t0, t1)
	if err != nil || resp.StatusCode != http.StatusOK {
		return sum, 0, false
	}
	return sha256.Sum256(buf.Bytes()), t1.Sub(t0), true
}

// writeBatches POSTs prewarm batches of fresh bundles back to back
// until stop closes, and returns how many sources came back "ok". A
// shed ("saturated") source is the queue doing its job, not a failure.
func (s *serveInst) writeBatches(c *http.Client, stop <-chan struct{}, tr *tracer) int {
	ok := 0
	for {
		select {
		case <-stop:
			return ok
		default:
		}
		var pr proxy.PrewarmRequest
		id := batchIDBase + int(s.batchSeq.Add(prewarmBatch))
		for i := 0; i < prewarmBatch; i++ {
			pr.Sources = append(pr.Sources, string(s.corp.bundle(id+i)))
		}
		body, err := json.Marshal(pr)
		if err != nil {
			return ok
		}
		t0 := time.Now()
		resp, err := c.Post(s.nodes[0].srv.url+"/__ceres/prewarm", "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		var out proxy.PrewarmResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		tr.add("prewarm_post", int64(id), t0, time.Now())
		if err == nil && resp.StatusCode == http.StatusOK {
			ok += out.OK
		}
	}
}

// verify checks every recorded response against a direct rewrite.
func (s *serveInst) verify() (int, error) {
	failed, err := verifyServed(s.resps, s.known, s.body, s.cfg.w)
	s.resps = nil
	return failed, err
}

func (s *serveInst) stats() []proxy.Stats {
	out := make([]proxy.Stats, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.p.Stats()
	}
	return out
}

func (s *serveInst) close() {
	for _, c := range append(s.clients, s.writers...) {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
	for _, n := range s.nodes {
		n.srv.stop()
		if n.cn != nil {
			n.cn.Close()
		}
		if n.p != nil {
			n.p.Close()
		}
		for _, t := range n.transports {
			t.CloseIdleConnections()
		}
	}
	if s.origin != nil {
		s.origin.stop()
	}
}

// layers reports what the proxy, queue and fleet counters and the spans
// say about the traced round. Counters are differences over that round;
// queue-wait percentiles are the queue's own, over its last admissions.
func (s *serveInst) layers(m measured, spans []span, traced roundResult) {
	after := s.stats()
	// delta sums a counter's growth over the traced round across nodes.
	delta := func(counter func(proxy.Stats) int64) float64 {
		var d int64
		for i := range after {
			d += counter(after[i]) - counter(s.base[i])
		}
		return float64(d)
	}
	hits := delta(func(st proxy.Stats) int64 { return st.CacheHits })
	lookups := hits + delta(func(st proxy.Stats) int64 { return st.CacheMisses + st.Coalesced })
	m.set("proxy.req_per_s", float64(len(traced.lat))/traced.wall.Seconds())
	m.set("proxy.batch_per_s", s.batchPerS)
	m.set("proxy.cache_hit_ratio", ratio(hits, lookups))
	m.set("proxy.coalesced", delta(func(st proxy.Stats) int64 { return st.Coalesced }))
	m.set("proxy.evictions", delta(func(st proxy.Stats) int64 { return st.CacheEvictions }))
	m.set("proxy.rejected", delta(func(st proxy.Stats) int64 { return st.Rejected }))
	m.set("proxy.failures", delta(func(st proxy.Stats) int64 { return st.Failures }))
	for k, name := range proxy.StageNames {
		m.set("proxy.stage_busy_ms."+name, delta(func(st proxy.Stats) int64 { return st.Pipeline.Stages[k].TotalUs })/1e3)
	}
	m.set("sched.rejected", delta(func(st proxy.Stats) int64 { return st.Pipeline.Queue.Rejected }))
	m.set("sched.shed", delta(func(st proxy.Stats) int64 { return st.Pipeline.Queue.Shed }))
	m.set("sched.promoted", delta(func(st proxy.Stats) int64 { return st.Pipeline.Queue.Promoted }))
	// Waits and the queue's high-water mark are the queue's own figures
	// over its last admissions: the worst node's.
	var q sched.QueueStats
	for _, st := range after {
		nq := st.Pipeline.Queue
		q.MaxQueued = max(q.MaxQueued, nq.MaxQueued)
		q.Interactive.QueueWaitP50 = max(q.Interactive.QueueWaitP50, nq.Interactive.QueueWaitP50)
		q.Interactive.QueueWaitP99 = max(q.Interactive.QueueWaitP99, nq.Interactive.QueueWaitP99)
		q.Batch.QueueWaitP99 = max(q.Batch.QueueWaitP99, nq.Batch.QueueWaitP99)
	}
	m.set("sched.qwait_interactive_p50_us", us(q.Interactive.QueueWaitP50))
	m.set("sched.qwait_interactive_p99_us", us(q.Interactive.QueueWaitP99))
	m.set("sched.qwait_batch_p99_us", us(q.Batch.QueueWaitP99))
	m.set("sched.max_queued", float64(q.MaxQueued))
	if s.shape.nodes > 1 {
		m.set("cluster.forwarded_ratio", ratio(delta(func(st proxy.Stats) int64 { return st.Cluster.ForwardedOut }), float64(traced.attempted)))
		m.set("cluster.forward_retries", delta(func(st proxy.Stats) int64 { return st.Cluster.ForwardRetries }))
		m.set("cluster.fallbacks", delta(func(st proxy.Stats) int64 { return st.Cluster.ForwardFallbacks }))
		var top int64
		for i := range after {
			top = max(top, after[i].Cluster.OwnedServed-s.base[i].Cluster.OwnedServed)
		}
		owned := delta(func(st proxy.Stats) int64 { return st.Cluster.OwnedServed })
		m.set("cluster.owner_imbalance", ratio(float64(top)*float64(len(after)), owned))
	}

	m.set("proxy.prewarm_post_ms", ms(percentile(durationsOf(spans, "prewarm_post"), 50)))
	s.decompose(m, spans, traced)
}

// decompose says where the time of the median request went. Per
// request, the self times of its spans add up to its latency exactly;
// medians of the parts taken one by one would not add up to the median
// latency, so the parts are averaged over the requests in the middle
// tenth by latency (the 45th to the 55th percentile) and their sum is
// held against the round's lat_p50.
func (s *serveInst) decompose(m measured, spans []span, traced roundResult) {
	type parts struct{ total, handler, origin, rewrite, hop, rest int64 }
	byReq := map[int64]*parts{}
	for _, sp := range spans {
		p := byReq[sp.Req]
		if p == nil {
			p = &parts{}
			byReq[sp.Req] = p
		}
		switch sp.Name {
		case "request":
			p.total = sp.End - sp.Start
			p.rest += sp.Self
		case "proxy_handler":
			p.handler += sp.Self
		case "origin_fetch":
			p.origin += sp.Self
		case "rewrite_call", "queue_wait":
			p.rewrite += sp.Self
		case "peer_hop":
			p.hop += sp.Self
		}
	}
	var reqs []*parts
	for _, p := range byReq {
		if p.total > 0 {
			reqs = append(reqs, p)
		}
	}
	if len(reqs) == 0 {
		return
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].total < reqs[j].total })
	lo := len(reqs) * 45 / 100
	mid := reqs[lo:max(lo+1, len(reqs)*55/100)]
	var sum parts
	for _, p := range mid {
		sum.origin += p.origin
		sum.rewrite += p.rewrite
		sum.hop += p.hop
		sum.handler += p.handler
		sum.rest += p.rest
	}
	mean := func(ns int64) float64 { return float64(ns) / float64(len(mid)) / 1e3 }
	origin, rewrite, hop := mean(sum.origin), mean(sum.rewrite), mean(sum.hop)
	self, rest := mean(sum.handler), mean(sum.rest)
	m.set("proxy.origin_fetch_us", origin)
	m.set("proxy.rewrite_call_us", rewrite)
	m.set("cluster.forward_us", hop)
	m.set("proxy.self_us", self)
	m.set("bench.unattributed_us", rest)
	lat := us(percentile(traced.lat, 50))
	m.set("bench.decomp_residual_ratio", ratio(origin+rewrite+hop+self+rest-lat, lat))
}

// rateSlices is how many equal parts a round's completions are cut into.
const rateSlices = 20

// sliceRate is the median, over `rateSlices` equal parts of a round's
// completions, of completions per second in that part. A stall that
// hits one part (a stolen CPU, a collection) moves one sample, not the
// round's value.
func sliceRate(ends []time.Duration) float64 {
	sortDurations(ends)
	per := len(ends) / rateSlices
	if per == 0 {
		return ratio(float64(len(ends)), ends[len(ends)-1].Seconds())
	}
	rates := make([]float64, 0, rateSlices)
	var from time.Duration
	for k := per; k <= len(ends); k += per {
		rates = append(rates, float64(per)/(ends[k-1]-from).Seconds())
		from = ends[k-1]
	}
	return median(rates)
}
