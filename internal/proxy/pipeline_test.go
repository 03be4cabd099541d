package proxy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/instrument"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// TestPipelineMatchesInlineRewrite: the staged pipeline is an execution
// strategy, never a semantic change — its output is byte-identical to
// the one-shot instrument.Rewrite for every mode.
func TestPipelineMatchesInlineRewrite(t *testing.T) {
	pl := NewPipeline(2, 8)
	defer pl.Close()
	src := srcN(3)
	for _, mode := range []instrument.Mode{instrument.ModeLight, instrument.ModeLoops} {
		want, err := instrument.Rewrite(string(src), mode)
		if err != nil {
			t.Fatal(err)
		}
		got, wait, err := pl.Rewrite(src, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte(want.Source)) {
			t.Errorf("mode %v: pipeline output differs from inline rewrite", mode)
		}
		if wait < 0 {
			t.Errorf("negative queue wait %v", wait)
		}
	}
	st := pl.Stats()
	if st.Completed != 2 {
		t.Errorf("Completed = %d, want 2", st.Completed)
	}
	for _, ss := range st.Stages {
		if ss.Jobs != 2 {
			t.Errorf("stage %s ran %d jobs, want 2", ss.Name, ss.Jobs)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on; it
// adds allocations of its own, so TestMissAllocationBudget does not gate
// then.
var raceEnabled bool

// TestMissAllocationBudget counts what one miss allocates: a 27 KB bundle
// through Pipeline.Rewrite, admission and all four stages. Measured: 49
// allocations (639 while the parse stage built the whole tree) and
// 101 KB, mostly the decoded text, the encoded body and the parse's own
// buffers (141 KB while Encode built a string the pipeline copied).
func TestMissAllocationBudget(t *testing.T) {
	pl := NewPipeline(1, 4)
	defer pl.Close()
	src := []byte(workloads.Bundle(10))
	miss := func() {
		if _, _, err := pl.Rewrite(src, instrument.ModeLoops); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, miss)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		miss()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("a %d-byte miss takes %.0f allocations, %.1f KB", len(src), allocs, kb)
	if raceEnabled {
		return
	}
	if allocs > 64 {
		t.Errorf("a %d-byte miss takes %.0f allocations, budget 64", len(src), allocs)
	}
	if kb > 110 {
		t.Errorf("a %d-byte miss allocates %.1f KB, budget 110", len(src), kb)
	}
}

// TestPipelineParseFailureSkipsLaterStages: a parse error finishes the
// job (counted as a failure) without running rewrite/encode.
func TestPipelineParseFailureSkipsLaterStages(t *testing.T) {
	pl := NewPipeline(1, 4)
	defer pl.Close()
	_, _, err := pl.Rewrite([]byte("function ( { nope"), instrument.ModeLight)
	if err == nil {
		t.Fatal("broken script rewrote without error")
	}
	st := pl.Stats()
	if st.Failures != 1 || st.Completed != 0 {
		t.Errorf("failures/completed = %d/%d, want 1/0", st.Failures, st.Completed)
	}
	for _, ss := range st.Stages {
		want := int64(1)
		if ss.Name == "rewrite" || ss.Name == "encode" {
			want = 0
		}
		if ss.Jobs != want {
			t.Errorf("stage %s ran %d jobs, want %d", ss.Name, ss.Jobs, want)
		}
	}
}

// TestPipelineOneRewriteIsOneQueueJob: a rewrite is a single sched.Job —
// the queue completes exactly one job per admission, every stage runs on
// the worker that dequeued it, and a parse failure or a stage panic ends
// the job early: later stages uncounted, waiter answered, slot freed.
func TestPipelineOneRewriteIsOneQueueJob(t *testing.T) {
	pl := NewPipeline(4, 8)
	defer pl.Close()
	type stageRun struct{ stage, worker int }
	var mu sync.Mutex
	var runs []stageRun
	pl.onStage = func(stage, worker int) {
		mu.Lock()
		runs = append(runs, stageRun{stage, worker})
		mu.Unlock()
	}
	// drained waits for the admission slot to free: the queue counts the
	// job completed in the same critical section, after the result is
	// delivered.
	drained := func() PipelineStats {
		t.Helper()
		waitFor(t, "the admission slot to free", func() bool { return pl.Queue().Stats().InFlight == 0 })
		return pl.Stats()
	}

	if _, _, err := pl.Rewrite(srcN(2), instrument.ModeLight); err != nil {
		t.Fatal(err)
	}
	st := drained()
	if st.Queue.Submitted != 1 || st.Queue.Completed != 1 {
		t.Errorf("queue submitted/completed = %d/%d, want 1/1 (one job per rewrite)", st.Queue.Submitted, st.Queue.Completed)
	}
	for _, ss := range st.Stages {
		if ss.Jobs != 1 {
			t.Errorf("stage %s ran %d jobs, want 1", ss.Name, ss.Jobs)
		}
	}
	if len(runs) != len(StageNames) {
		t.Fatalf("stage runs = %v, want one per stage", runs)
	}
	for i, r := range runs {
		if r.stage != i || r.worker != runs[0].worker {
			t.Errorf("stage runs = %v, want stages 0..3 in order on one worker", runs)
			break
		}
	}

	if _, _, err := pl.Rewrite([]byte("function ( { nope"), instrument.ModeLight); err == nil {
		t.Fatal("broken script rewrote without error")
	}
	st = drained()
	for _, ss := range st.Stages {
		want := int64(2)
		if ss.Name == "rewrite" || ss.Name == "encode" {
			want = 1
		}
		if ss.Jobs != want {
			t.Errorf("after parse failure: stage %s ran %d jobs, want %d", ss.Name, ss.Jobs, want)
		}
	}
	if q := st.Queue; q.Completed != q.Submitted-q.Shed || q.Completed != 2 {
		t.Errorf("queue = %+v, want completed == submitted - shed == 2", q)
	}

	// A panic inside a stage is contained by the job: the waiter gets an
	// error instead of hanging, the finished stages are counted, and the
	// slot frees.
	pl.onStage = func(stage, _ int) {
		if stage == 2 {
			panic("boom")
		}
	}
	if _, _, err := pl.Rewrite(srcN(2), instrument.ModeLight); err == nil || !strings.Contains(err.Error(), "stage panic") {
		t.Fatalf("rewrite with a panicking stage: err = %v, want a stage-panic error", err)
	}
	st = drained()
	if st.Failures != 2 || st.Stages[1].Jobs != 3 || st.Stages[2].Jobs != 1 {
		t.Errorf("after stage panic: failures=%d parse jobs=%d rewrite jobs=%d, want 2/3/1",
			st.Failures, st.Stages[1].Jobs, st.Stages[2].Jobs)
	}
}

// TestPipelineSaturation: with the admission queue full, Rewrite
// reports sched.ErrSaturated immediately instead of queueing.
func TestPipelineSaturation(t *testing.T) {
	pl := NewPipeline(1, 1)
	defer pl.Close()
	release := make(chan struct{})
	blocked := make(chan struct{})
	if err := pl.Queue().Submit(func(w *sched.WorkerCtx) {
		close(blocked)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-blocked
	_, _, err := pl.Rewrite(srcN(1), instrument.ModeLight)
	if !errors.Is(err, sched.ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	close(release)
}

// newServingProxy builds a NewServing proxy over a generated-script
// origin for the serving-path tests.
func newServingProxy(t *testing.T, cfg ServeConfig) (*Proxy, *httptest.Server) {
	t.Helper()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		fmt.Fprintf(w, "var p = %q;\nvar s = 0;\nfor (var i = 0; i < 40; i++) { s += i; }\n", r.URL.Path)
	}))
	t.Cleanup(origin.Close)
	p, err := NewServing(origin.URL, instrument.ModeLight, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

// TestServingBackpressure429: a saturated pipeline sheds JS requests
// with 429 + Retry-After, never caches the saturation, and recovers —
// the same script rewrites fine once the queue drains.
func TestServingBackpressure429(t *testing.T) {
	p, srv := newServingProxy(t, ServeConfig{Workers: 1, QueueDepth: 1})

	release := make(chan struct{})
	blocked := make(chan struct{})
	if err := p.Pipeline.Queue().Submit(func(w *sched.WorkerCtx) {
		close(blocked)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-blocked

	resp, err := http.Get(srv.URL + "/shed.js")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("429 without Retry-After")
	}
	if got := p.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}

	close(release)
	// The slot frees when the parked job has returned, not when it is
	// released.
	waitFor(t, "the parked job's admission slot", func() bool {
		return p.Pipeline.Queue().Stats().InFlight == 0
	})
	body, resp2 := get(t, srv.URL+"/shed.js")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status %d", resp2.StatusCode)
	}
	if !strings.Contains(body, "__ceresEnter") {
		t.Fatal("post-drain response not instrumented — saturation was negative-cached")
	}
	if st := p.Stats(); st.CacheEntries != 1 {
		t.Errorf("CacheEntries = %d, want 1 (the recovered script)", st.CacheEntries)
	}
}

// TestQueueWaitHeader: rewritten responses carry the admission wait in
// microseconds; cache hits report 0.
func TestQueueWaitHeader(t *testing.T) {
	_, srv := newServingProxy(t, ServeConfig{Workers: 2, QueueDepth: 8})
	_, resp := get(t, srv.URL+"/a.js")
	v := resp.Header.Get(QueueWaitHeader)
	if v == "" {
		t.Fatalf("missing %s header", QueueWaitHeader)
	}
	if us, err := strconv.ParseInt(v, 10, 64); err != nil || us < 0 {
		t.Fatalf("%s = %q, want a non-negative integer", QueueWaitHeader, v)
	}
	_, resp = get(t, srv.URL+"/a.js")
	if got := resp.Header.Get(QueueWaitHeader); got != "0" {
		t.Errorf("cache hit %s = %q, want 0", QueueWaitHeader, got)
	}
}

// TestPrewarmEndpoint: a batch of URLs and inline sources warms the
// cache through the pipeline; the next live request is a pure hit.
func TestPrewarmEndpoint(t *testing.T) {
	p, srv := newServingProxy(t, ServeConfig{Workers: 2, QueueDepth: 16})
	req := PrewarmRequest{
		URLs:    []string{"/hot/0.js", "/hot/1.js", "/hot/2.js"},
		Sources: []string{"var ok = 1;\nfor (var i = 0; i < 3; i++) { ok += i; }", "function ( { broken"},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/__ceres/prewarm", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr PrewarmResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.OK != 4 || pr.Failed != 1 || pr.Saturated != 0 {
		t.Fatalf("prewarm = %+v, want 4 ok / 1 failed", pr)
	}
	if len(pr.Items) != 5 || pr.Items[4].Status != "failed" {
		t.Fatalf("items = %+v, want the broken source failed", pr.Items)
	}

	before := p.Stats()
	b, r := get(t, srv.URL+"/hot/1.js")
	if r.StatusCode != http.StatusOK || !strings.Contains(b, "__ceresEnter") {
		t.Fatal("prewarmed script not served instrumented")
	}
	after := p.Stats()
	if after.Rewrites != before.Rewrites {
		t.Errorf("live request re-rewrote a prewarmed script (%d -> %d)", before.Rewrites, after.Rewrites)
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("cache hits %d -> %d, want +1", before.CacheHits, after.CacheHits)
	}
}

// TestPrewarmConfinedToOrigin: prewarm is a cache warmer, not a
// server-side fetcher — absolute URLs off the configured origin are
// rejected per item, never fetched.
func TestPrewarmConfinedToOrigin(t *testing.T) {
	var elsewhereHit atomic.Bool
	elsewhere := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		elsewhereHit.Store(true)
	}))
	defer elsewhere.Close()
	_, srv := newServingProxy(t, ServeConfig{Workers: 1, QueueDepth: 8})

	body, _ := json.Marshal(PrewarmRequest{URLs: []string{
		elsewhere.URL + "/metadata",
		"/ok.js",
	}})
	resp, err := http.Post(srv.URL+"/__ceres/prewarm", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PrewarmResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.OK != 1 || pr.Failed != 1 {
		t.Fatalf("prewarm = %+v, want the off-origin URL failed and the path ok", pr)
	}
	if !strings.Contains(pr.Items[0].Error, "not on the origin") {
		t.Errorf("off-origin error = %q", pr.Items[0].Error)
	}
	if elsewhereHit.Load() {
		t.Fatal("proxy fetched an off-origin URL on a client's behalf")
	}
}

func TestPrewarmValidation(t *testing.T) {
	_, srv := newServingProxy(t, ServeConfig{Workers: 1, QueueDepth: 4})
	for body, want := range map[string]int{
		"not json":  http.StatusBadRequest,
		"{}":        http.StatusBadRequest,
		`{"urls":[`: http.StatusBadRequest,
		// Valid JSON one byte past the cap: refused whole, not cut
		// short and then misread as malformed.
		`{"sources":["` + strings.Repeat("a", prewarmMaxBody-15) + `"]}`: http.StatusRequestEntityTooLarge,
	} {
		resp, err := http.Post(srv.URL+"/__ceres/prewarm", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// TestPrewarmGoroutinesBounded: a batch parked on a slow origin holds
// at most prewarmFetchers goroutines, not one per item.
func TestPrewarmGoroutinesBounded(t *testing.T) {
	var fetching atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetching.Add(1)
		<-release
		w.Header().Set("Content-Type", "application/javascript")
		fmt.Fprintf(w, "var p = %q;", r.URL.Path)
	}))
	defer origin.Close()
	p, err := NewServing(origin.URL, instrument.ModeLight, "", ServeConfig{Workers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p)
	defer srv.Close()
	defer unblock() // runs first: both servers' Close wait for the parked requests

	const n = 64
	var req PrewarmRequest
	for i := 0; i < n; i++ {
		req.URLs = append(req.URLs, fmt.Sprintf("/slow/%d.js", i))
	}
	body, _ := json.Marshal(req)
	before := runtime.NumGoroutine()
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/__ceres/prewarm", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
		}
		done <- resp
	}()
	waitFor(t, "the fetch slots to fill", func() bool { return fetching.Load() == prewarmFetchers })
	if grew := runtime.NumGoroutine() - before; grew >= n {
		t.Errorf("goroutines grew by %d while %d fetches were parked, want < %d", grew, prewarmFetchers, n)
	}
	unblock()
	resp := <-done
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	var pr PrewarmResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.OK != n {
		t.Errorf("prewarm = ok %d saturated %d failed %d, want %d ok", pr.OK, pr.Saturated, pr.Failed, n)
	}
}

// TestServingConcurrentMixedLoad drives the full serving stack — cache,
// pipeline, admission — with 8 concurrent clients under -race and
// checks accounting adds up.
func TestServingConcurrentMixedLoad(t *testing.T) {
	p, srv := newServingProxy(t, ServeConfig{Workers: 4, QueueDepth: 64})
	const clients, perClient, hot = 8, 30, 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				path := fmt.Sprintf("/hot/%d.js", i%hot)
				if i%5 == 0 {
					path = fmt.Sprintf("/unique/%d-%d.js", cl, i)
				}
				body, resp := getErr(srv.URL + path)
				if resp == nil || resp.StatusCode != http.StatusOK {
					errs[cl] = fmt.Errorf("request %s failed: %v", path, resp)
					return
				}
				if !strings.Contains(body, "__ceres") {
					errs[cl] = fmt.Errorf("%s not instrumented", path)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	total := int64(clients * perClient)
	if st.Instrumented != total {
		t.Errorf("Instrumented = %d, want %d", st.Instrumented, total)
	}
	if st.CacheHits+st.CacheMisses+st.Coalesced != total {
		t.Errorf("hits+misses+coalesced = %d, want %d", st.CacheHits+st.CacheMisses+st.Coalesced, total)
	}
	if st.Pipeline.Completed != st.CacheMisses {
		t.Errorf("pipeline completions %d vs misses %d diverge", st.Pipeline.Completed, st.CacheMisses)
	}
}

func getErr(url string) (string, *http.Response) {
	resp, err := http.Get(url)
	if err != nil {
		return "", nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", nil
	}
	return string(b), resp
}

// TestCachePanicContainment: a panicking rewrite function resolves the
// single-flight entry with an error instead of wedging the key forever,
// and the cache keeps serving afterwards.
func TestCachePanicContainment(t *testing.T) {
	c := NewRewriteCache(1 << 20)
	calls := 0
	c.SetRewriteFunc(func(src []byte, mode instrument.Mode, class sched.Class, started func(func())) ([]byte, time.Duration, error) {
		calls++
		if calls == 1 {
			panic("injected rewriter bug")
		}
		return inlineRewrite(src, mode, class, started)
	})
	if _, err := c.Rewrite(srcN(1), instrument.ModeLight); err == nil ||
		!strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want contained panic error", err)
	}
	// The panic was negative-cached like any rewrite failure; a
	// different script must still rewrite fine (no wedged in-flight key,
	// no dead worker).
	if _, err := c.Rewrite(srcN(2), instrument.ModeLight); err != nil {
		t.Fatalf("cache dead after contained panic: %v", err)
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("Inflight = %d after panic, want 0", st.Inflight)
	}
}

// TestRejectionNotCountedAsRewrite: a miss shed at admission counts as
// a miss (the lookup happened) but not as a rewrite (none ran), so
// Rewrites cannot be inflated by the Rejected count.
func TestRejectionNotCountedAsRewrite(t *testing.T) {
	p, srv := newServingProxy(t, ServeConfig{Workers: 1, QueueDepth: 1})
	release := blockPipelineWorker(t, p.Pipeline)
	resp, err := http.Get(srv.URL + "/x.js")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	release()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	st := p.Stats()
	if st.Rewrites != 0 || st.Rejected != 1 || st.CacheMisses != 1 || st.Pipeline.Completed != 0 {
		t.Errorf("Rewrites=%d Rejected=%d CacheMisses=%d Pipeline.Completed=%d, want 0/1/1/0",
			st.Rewrites, st.Rejected, st.CacheMisses, st.Pipeline.Completed)
	}
}
