// Differential tests for cluster routing: however a rewrite is served
// — locally by its owner, forwarded to the owner, filled via a peer
// prewarm transfer, or fallen back after the owner died — the bytes
// must equal what a single-node proxy produces for the same source.
// The rewrite is deterministic; the cluster is pure routing and must
// never become a semantic layer.
package proxy

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/leakcheck"
	"repro/internal/sched"
)

// genScript is a deterministic per-id script, distinct ids giving
// distinct sources (and so distinct ring points).
func genScript(i int) string {
	return fmt.Sprintf("var v%d = 0;\nfor (var i = 0; i < %d; i++) { v%d += i; }\n", i, 10+i, i)
}

// newGenOrigin serves /s/<i>.js with genScript(i) content.
func newGenOrigin(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var i int
		if _, err := fmt.Sscanf(r.URL.Path, "/s/%d.js", &i); err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/javascript")
		io.WriteString(w, genScript(i))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// newFleet builds n serving proxies joined into one cluster over
// loopback HTTP, every member's cluster.Config being base with Self and
// Peers filled in. The listeners come up first (the ring needs every
// URL), then each proxy binds behind its own server via indirection.
// The probers are not started: a fleet routes on its static member set
// unless the test starts them.
func newFleet(t *testing.T, origin string, n int, base cluster.Config) ([]*Proxy, []*httptest.Server, []string) {
	t.Helper()
	proxies := make([]*Proxy, n)
	srvs := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		srvs[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			proxies[i].ServeHTTP(w, r)
		}))
		t.Cleanup(srvs[i].Close)
		urls[i] = srvs[i].URL
	}
	for i := 0; i < n; i++ {
		p, err := newMember(t, origin, urls, i, base)
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
	}
	return proxies, srvs, urls
}

// newMember builds fleet member self: a serving proxy routed by a
// cluster.Node configured as base with Self and Peers filled in. Its
// cleanup closes the node, then the pipeline. It reports errors rather
// than failing t, so a client goroutine can revive a member.
func newMember(t *testing.T, origin string, urls []string, self int, base cluster.Config) (*Proxy, error) {
	p, err := NewServing(origin, instrument.ModeLight, "", ServeConfig{
		CacheBytes: 1 << 24,
		Workers:    2,
		QueueDepth: 32,
	})
	if err != nil {
		return nil, err
	}
	base.Self, base.Peers = urls[self], urls
	node, err := cluster.New(base)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.Cluster = node
	t.Cleanup(func() { node.Close(); p.Close() })
	return p, nil
}

// ownerIndex resolves which fleet member owns src.
func ownerIndex(t *testing.T, urls []string, src string) int {
	t.Helper()
	owner := cluster.NewRing(urls, 0).Owner(cluster.KeyPoint(sha256.Sum256([]byte(src)), int(instrument.ModeLight)))
	for i, u := range urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %q not in fleet %v", owner, urls)
	return -1
}

// TestClusterDifferentialByteIdentity serves the same script through
// every fleet member — the owner locally, the others by forwarding —
// and requires byte-identity with the single-node oracle.
func TestClusterDifferentialByteIdentity(t *testing.T) {
	origin := newGenOrigin(t)
	oracle, oracleSrv := newProxy(t, origin.URL, "")
	want, resp := get(t, oracleSrv.URL+"/s/1.js")
	if resp.StatusCode != http.StatusOK || !strings.Contains(want, "__ceresEnter") {
		t.Fatalf("oracle not instrumented: status %d", resp.StatusCode)
	}
	_ = oracle

	proxies, _, urls := newFleet(t, origin.URL, 3, cluster.Config{})
	ownerIdx := ownerIndex(t, urls, genScript(1))
	for i := range proxies {
		got, resp := get(t, urls[i]+"/s/1.js")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: status %d", i, resp.StatusCode)
		}
		if got != want {
			t.Fatalf("node %d served different bytes than the single-node oracle (owner is node %d)", i, ownerIdx)
		}
	}

	ownerStats := proxies[ownerIdx].Cluster.Stats()
	if ownerStats.PeerReceived != 2 {
		t.Errorf("owner PeerReceived = %d, want 2 (one per non-owner)", ownerStats.PeerReceived)
	}
	if ownerStats.OwnedServed != 1 {
		t.Errorf("owner OwnedServed = %d, want 1", ownerStats.OwnedServed)
	}
	for i := range proxies {
		if i == ownerIdx {
			continue
		}
		st := proxies[i].Cluster.Stats()
		if st.ForwardedOut != 1 || st.ForwardFallbacks != 0 {
			t.Errorf("non-owner %d: ForwardedOut=%d ForwardFallbacks=%d, want 1/0", i, st.ForwardedOut, st.ForwardFallbacks)
		}
		// The non-owner streamed the owner's bytes; its own cache and
		// pipeline never saw the script.
		if s := proxies[i].Stats(); s.Rewrites != 0 {
			t.Errorf("non-owner %d ran %d local rewrites for a forwarded key", i, s.Rewrites)
		}
	}
	// Exactly one rewrite fleet-wide: the owner's, coalesced for all
	// three requests by its cache.
	if s := proxies[ownerIdx].Stats(); s.Rewrites != 1 {
		t.Errorf("owner Rewrites = %d, want 1 (cache absorbs the forwarded repeats)", s.Rewrites)
	}
}

// TestClusterPrewarmTransferFillsOwnerCache: POSTing a prewarm batch
// to a non-owner routes each source to its owner's cache — the
// prewarm endpoint is the fleet's cache-fill transfer path — and the
// owner's cached bytes match the oracle.
func TestClusterPrewarmTransferFillsOwnerCache(t *testing.T) {
	origin := newGenOrigin(t)
	proxies, _, urls := newFleet(t, origin.URL, 2, cluster.Config{})

	// A source owned by node 1, POSTed to node 0.
	var src string
	for i := 0; ; i++ {
		if src = genScript(i); ownerIndex(t, urls, src) == 1 {
			break
		}
	}
	body, _ := json.Marshal(PrewarmRequest{Sources: []string{src}})
	resp, err := http.Post(urls[0]+"/__ceres/prewarm", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pres PrewarmResponse
	if err := json.NewDecoder(resp.Body).Decode(&pres); err != nil {
		t.Fatal(err)
	}
	if pres.OK != 1 {
		t.Fatalf("prewarm response %+v, want OK=1", pres)
	}
	if st := proxies[0].Cluster.Stats(); st.PrewarmTransfers != 1 {
		t.Errorf("node 0 PrewarmTransfers = %d, want 1", st.PrewarmTransfers)
	}
	if s := proxies[0].Stats(); s.Rewrites != 0 {
		t.Errorf("node 0 ran %d rewrites for a remote-owned prewarm source", s.Rewrites)
	}
	ownerBefore := proxies[1].Stats()
	if ownerBefore.Rewrites != 1 || ownerBefore.CacheMisses != 1 {
		t.Fatalf("owner after transfer: Rewrites=%d CacheMisses=%d, want 1/1", ownerBefore.Rewrites, ownerBefore.CacheMisses)
	}

	// The transferred fill is a hit now, and byte-identical to a fresh
	// single-node rewrite of the same source.
	out, _, err := proxies[1].Cache.RewriteTimed([]byte(src), instrument.ModeLight, sched.ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if s := proxies[1].Stats(); s.CacheHits != ownerBefore.CacheHits+1 {
		t.Errorf("owner cache hits %d -> %d: prewarm transfer did not fill the cache", ownerBefore.CacheHits, s.CacheHits)
	}
	oracle, _ := newProxy(t, origin.URL, "")
	want, _, err := oracle.Cache.RewriteTimed([]byte(src), instrument.ModeLight, sched.ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Error("prewarm-transferred bytes differ from the single-node oracle")
	}
}

// TestClusterPrewarmBusyOwner: prewarm sources whose owner answers
// 429 are sent as batch-class peer rewrites, come back per item as
// "saturated", and leave the busy owner a member — saturation is not
// a failure.
func TestClusterPrewarmBusyOwner(t *testing.T) {
	var batch, other atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.PeerRewritePath && r.Header.Get(cluster.ClassHeader) == sched.ClassBatch.String() {
			batch.Add(1)
		} else {
			other.Add(1)
		}
		http.Error(w, "rewrite queue saturated", http.StatusTooManyRequests)
	}))
	t.Cleanup(busy.Close)
	origin := newGenOrigin(t)
	p, srv := newProxy(t, origin.URL, "")
	urls := []string{srv.URL, busy.URL}
	node, err := cluster.New(cluster.Config{Self: srv.URL, Peers: urls, FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Cluster = node
	t.Cleanup(node.Close)

	// Two busy-owned sources: two exhausted forwards, the threshold.
	var req PrewarmRequest
	for i := 0; len(req.Sources) < 2; i++ {
		if ownerIndex(t, urls, genScript(i)) == 1 {
			req.Sources = append(req.Sources, genScript(i))
		}
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/__ceres/prewarm", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pres PrewarmResponse
	if err := json.NewDecoder(resp.Body).Decode(&pres); err != nil {
		t.Fatal(err)
	}
	if pres.Saturated != 2 || pres.OK != 0 || pres.Failed != 0 {
		t.Fatalf("prewarm response %+v, want 2 saturated", pres)
	}
	if got := len(node.Members()); got != 2 {
		t.Errorf("members = %d after a busy owner's 429s, want 2", got)
	}
	st := node.Stats()
	if st.Ejections != 0 || st.PrewarmTransfers != 2 || st.ForwardedOut != 2 {
		t.Errorf("Ejections=%d PrewarmTransfers=%d ForwardedOut=%d, want 0/2/2", st.Ejections, st.PrewarmTransfers, st.ForwardedOut)
	}
	if batch.Load() == 0 || other.Load() != 0 {
		t.Errorf("owner saw %d batch peer rewrites and %d other requests, want only batch peer rewrites", batch.Load(), other.Load())
	}
	if s := p.Stats(); s.Rewrites != 0 {
		t.Errorf("node ran %d rewrites for busy-owned prewarm sources", s.Rewrites)
	}
}

// TestClusterFallbackWhenOwnerDown: the owner is unreachable, so the
// non-owner retries, gives up, serves locally (identical bytes — the
// rewrite is deterministic), and the failed forwards eject the dead
// peer so the next request doesn't pay the retry tax.
func TestClusterFallbackWhenOwnerDown(t *testing.T) {
	origin := newGenOrigin(t)
	oracle, oracleSrv := newProxy(t, origin.URL, "")
	_ = oracle

	// One live proxy, one dead peer URL (port claimed then released).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	p, err := NewServing(origin.URL, instrument.ModeLight, "", ServeConfig{
		CacheBytes: 1 << 24, Workers: 2, QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	liveSrv := httptest.NewServer(p)
	t.Cleanup(func() { liveSrv.Close(); p.Close() })
	urls := []string{liveSrv.URL, deadURL}
	node, err := cluster.New(cluster.Config{
		Self:           liveSrv.URL,
		Peers:          urls,
		ForwardTimeout: time.Second,
		FailThreshold:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Cluster = node
	t.Cleanup(node.Close)

	// Two distinct scripts owned by the dead node: the first two
	// requests exhaust retries and fall back; their failures eject the
	// peer, so a third dead-owned script routes local directly.
	var deadOwned []int
	for i := 0; len(deadOwned) < 3; i++ {
		if owner := cluster.NewRing(urls, 0).Owner(cluster.KeyPoint(sha256.Sum256([]byte(genScript(i))), int(instrument.ModeLight))); owner == deadURL {
			deadOwned = append(deadOwned, i)
		}
	}
	for k := 0; k < 2; k++ {
		id := deadOwned[k]
		got, resp := get(t, liveSrv.URL+fmt.Sprintf("/s/%d.js", id))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d — owner death broke serving", k, resp.StatusCode)
		}
		want, _ := get(t, oracleSrv.URL+fmt.Sprintf("/s/%d.js", id))
		if got != want {
			t.Fatalf("fallback bytes for script %d differ from the oracle", id)
		}
	}
	st := node.Stats()
	if st.ForwardFallbacks != 2 || st.ForwardErrors != 2 {
		t.Errorf("ForwardFallbacks=%d ForwardErrors=%d, want 2/2", st.ForwardFallbacks, st.ForwardErrors)
	}
	if got := len(node.Members()); got != 1 {
		t.Fatalf("members = %d after 2 forward failures, want 1 (traffic-driven ejection)", got)
	}
	// Ejected: the third dead-owned script is served as sole survivor,
	// no forward attempted.
	before := node.Stats().ForwardedOut
	_, resp := get(t, liveSrv.URL+fmt.Sprintf("/s/%d.js", deadOwned[2]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ejection status %d", resp.StatusCode)
	}
	if after := node.Stats().ForwardedOut; after != before {
		t.Errorf("forwarded to an ejected peer (%d -> %d)", before, after)
	}
}

// TestClusterHoppedRequestServedLocally is the single-hop rule at the
// proxy layer: a request carrying the hop header is served locally
// even when the routing table says a peer owns it.
func TestClusterHoppedRequestServedLocally(t *testing.T) {
	origin := newGenOrigin(t)
	proxies, _, urls := newFleet(t, origin.URL, 2, cluster.Config{})

	var src string
	var id int
	for i := 0; ; i++ {
		if src = genScript(i); ownerIndex(t, urls, src) == 1 {
			id = i
			break
		}
	}
	req, err := http.NewRequest(http.MethodGet, urls[0]+fmt.Sprintf("/s/%d.js", id), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HopHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "__ceresEnter") {
		t.Fatalf("hopped request: status %d", resp.StatusCode)
	}
	if st := proxies[0].Cluster.Stats(); st.ForwardedOut != 0 {
		t.Errorf("hopped request was re-forwarded (ForwardedOut=%d) — loop prevention broken", st.ForwardedOut)
	}
	if s := proxies[0].Stats(); s.Rewrites != 1 {
		t.Errorf("hopped request not rewritten locally (Rewrites=%d)", s.Rewrites)
	}
}

// TestPeerRewriteEndpoint pins the wire contract of
// /__ceres/peer/rewrite: 200 with instrumented bytes, 409 on a mode
// mismatch, 422 for a script that does not rewrite.
func TestPeerRewriteEndpoint(t *testing.T) {
	origin := newGenOrigin(t)
	p, srv := newProxy(t, origin.URL, "")
	_ = p

	post := func(src string, hdr map[string]string) (*http.Response, string) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+cluster.PeerRewritePath, strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	resp, body := post(genScript(7), map[string]string{
		cluster.HopHeader:  "1",
		cluster.ModeHeader: instrument.ModeLight.String(),
	})
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "__ceresEnter") {
		t.Fatalf("peer rewrite: status %d body %q", resp.StatusCode, body)
	}
	want, _, err := p.Cache.RewriteTimed([]byte(genScript(7)), instrument.ModeLight, sched.ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if body != string(want) {
		t.Error("peer rewrite bytes differ from local rewrite of the same source")
	}

	if resp, _ := post(genScript(7), map[string]string{cluster.ModeHeader: "loops"}); resp.StatusCode != http.StatusConflict {
		t.Errorf("mode mismatch: status %d, want 409", resp.StatusCode)
	}
	if resp, _ := post("function ( { broken", nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("broken script: status %d, want 422", resp.StatusCode)
	}
}

// TestClusterKillReviveMidStream is the fleet's chaos property over
// real serving proxies. Clients spread requests over three nodes; after
// request N/3 one node dies abruptly, connections and all, and after
// request 2N/3 a fresh proxy and node come back at its URL. Through it
// every request is served 200 with the single-node oracle's bytes:
// forwards that meet the dead owner fall back to a local rewrite, the
// survivors eject it and rebalance, and they readmit it once it is
// back. The kill and revive points are request counts, not times.
func TestClusterKillReviveMidStream(t *testing.T) {
	leakcheck.Check(t)
	const (
		requests = 240
		clients  = 4
		scripts  = 48
		victim   = 2
	)
	origin := newGenOrigin(t)
	_, oracleSrv := newProxy(t, origin.URL, "")
	want := make([]string, scripts)
	for i := range want {
		want[i], _ = get(t, oracleSrv.URL+fmt.Sprintf("/s/%d.js", i))
	}

	base := cluster.Config{
		// A fast prober, so ejection and readmission land inside the
		// run. Three failed probes take at least 100 ms: the forward the
		// kill request sends meets the dead owner before probing alone
		// could eject it.
		ProbeInterval:  50 * time.Millisecond,
		ProbeTimeout:   200 * time.Millisecond,
		FailThreshold:  3,
		ForwardTimeout: 2 * time.Second,
	}
	proxies, srvs, urls := newFleet(t, origin.URL, 3, base)
	for _, p := range proxies {
		p.Cluster.Start()
	}
	survivors := []*Proxy{proxies[0], proxies[1]}
	victimAddr := srvs[victim].Listener.Addr().String()
	deadOwned := -1 // a script the victim owns while all three are live
	for i := 0; i < scripts && deadOwned < 0; i++ {
		if ownerIndex(t, urls, genScript(i)) == victim {
			deadOwned = i
		}
	}
	if deadOwned < 0 {
		t.Fatalf("the victim owns none of %d scripts", scripts)
	}

	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	// down: clients skip the victim. killed: from the kill on, an error
	// from the victim's URL is the chaos, and the request moves on.
	var down, killed atomic.Bool
	// serve asks node for script id, and the next node if the victim's
	// connection dies under it; anything but the oracle's bytes with a
	// 200 fails the test.
	serve := func(node, id int) error {
		for try := 0; try < len(urls); try++ {
			n := (node + try) % len(urls)
			if n == victim && down.Load() {
				continue
			}
			resp, err := client.Get(urls[n] + fmt.Sprintf("/s/%d.js", id))
			var body []byte
			if err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			if err != nil {
				if n == victim && killed.Load() {
					continue
				}
				return fmt.Errorf("node %d, script %d: %v", n, id, err)
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("node %d, script %d: status %d", n, id, resp.StatusCode)
			}
			if string(body) != want[id] {
				return fmt.Errorf("node %d, script %d: bytes differ from the single-node oracle", n, id)
			}
			return nil
		}
		return fmt.Errorf("script %d: no live node served it", id)
	}
	// gate holds new requests back while the killer waits for the
	// survivors to eject the victim, so the middle third runs on the
	// two-node ring.
	var gate sync.RWMutex
	var beforeKill cluster.Stats // fleet sums at the kill
	killDone := make(chan struct{})
	// kill tears the victim down with requests in flight, then sends its
	// own request to a survivor for a script the victim owns.
	kill := func() error {
		defer close(killDone)
		for _, p := range proxies {
			st := p.Cluster.Stats()
			beforeKill.OwnedServed += st.OwnedServed
			beforeKill.ForwardedOut += st.ForwardedOut
			beforeKill.PeerReceived += st.PeerReceived
		}
		down.Store(true)
		killed.Store(true)
		srvs[victim].CloseClientConnections()
		srvs[victim].Close()
		proxies[victim].Cluster.Close()
		proxies[victim].Close()
		if err := serve(0, deadOwned); err != nil {
			return err
		}
		gate.Lock()
		defer gate.Unlock()
		deadline := time.Now().Add(5 * time.Second)
		for len(survivors[0].Cluster.Members()) != 2 || len(survivors[1].Cluster.Members()) != 2 {
			if time.Now().After(deadline) {
				return errors.New("timed out waiting for the survivors to eject the victim")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	var revived *Proxy
	// revive waits for the kill to finish: a victim back before the
	// survivors ejected it would never be ejected at all.
	revive := func() error {
		<-killDone
		p, err := newMember(t, origin.URL, urls, victim, base)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", victimAddr)
		if err != nil {
			return err
		}
		srv := httptest.NewUnstartedServer(p)
		srv.Listener.Close()
		srv.Listener = ln
		srv.Start()
		t.Cleanup(srv.Close)
		p.Cluster.Start()
		revived = p
		down.Store(false)
		return nil
	}

	var next atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1))
				var err error
				switch {
				case k > requests:
					return
				case k == requests/3:
					err = kill()
				case k == 2*requests/3:
					if err = revive(); err == nil {
						err = serve(k%3, k%scripts)
					}
				default:
					gate.RLock()
					err = serve(k%3, k%scripts)
					gate.RUnlock()
				}
				if err != nil {
					errs <- fmt.Errorf("request %d: %w", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	if beforeKill.OwnedServed == 0 || beforeKill.ForwardedOut == 0 || beforeKill.PeerReceived == 0 {
		t.Errorf("before the kill: owned=%d forwarded=%d peer-received=%d, want all > 0",
			beforeKill.OwnedServed, beforeKill.ForwardedOut, beforeKill.PeerReceived)
	}
	waitFor(t, "the survivors to readmit the revived node", func() bool {
		return len(survivors[0].Cluster.Members()) == 3 && len(survivors[1].Cluster.Members()) == 3
	})
	var rebalanced, fallbacks, rejected int64
	for _, p := range survivors {
		st := p.Cluster.Stats()
		rebalanced = max(rebalanced, st.Rebalances)
		fallbacks += st.ForwardFallbacks
	}
	if rebalanced < 1 {
		t.Error("no survivor rebalanced its ring after the kill")
	}
	if fallbacks < 1 {
		t.Error("no forward met the dead owner and fell back")
	}
	// Admission rejections answer clients and peer hops alike with 429.
	for _, p := range append(proxies, revived) {
		rejected += p.Pipeline.Queue().Stats().Interactive.Rejected
	}
	if rejected != 0 {
		t.Errorf("%d rewrites rejected with 429 across the fleet, want 0", rejected)
	}
}
