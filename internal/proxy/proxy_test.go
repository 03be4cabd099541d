package proxy

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/instrument"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/js/value"
)

const pageJS = `
var sum = 0;
for (var i = 0; i < 200; i++) {
  sum += i;
}
`

// newOrigin serves a tiny "web server" (Fig. 5 left box).
func newOrigin() *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/app.js", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		io.WriteString(w, pageJS)
	})
	mux.HandleFunc("/broken.js", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		io.WriteString(w, "function ( { this is not js")
	})
	mux.HandleFunc("/index.html", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, "<html><script src=app.js></script></html>")
	})
	return httptest.NewServer(mux)
}

func newProxy(t *testing.T, origin string, dir string) (*Proxy, *httptest.Server) {
	t.Helper()
	p, err := New(origin, instrument.ModeLight, dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// TestFig5EndToEnd walks the whole Fig. 5 pipeline: request through the
// proxy (1), instrumentation (2-3), exercising the app in the
// interpreter-as-browser (4), posting results (5), and the saved
// human-readable report (6-7).
func TestFig5EndToEnd(t *testing.T) {
	origin := newOrigin()
	defer origin.Close()
	dir := t.TempDir()
	p, srv := newProxy(t, origin.URL, dir)

	// 1-3: the browser requests the script; the proxy instruments it.
	src, resp := get(t, srv.URL+"/app.js")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(src, "__ceresEnter") {
		t.Fatalf("response not instrumented:\n%s", src)
	}

	// 4: the browser runs the instrumented page.
	in := interp.New()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("instrumented script does not parse: %v", err)
	}
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := in.Global("sum").Num(); got != 19900 {
		t.Fatalf("sum = %v, want 19900 (behaviour preserved)", got)
	}

	// 5: the page sends its report back through the proxy.
	rep, err := in.SafeCall(in.Global("__ceresReport"), value.Undefined(), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := map[string]any{
		"totalMs":   rep.Object().GetNumber("totalMs"),
		"inLoopsMs": rep.Object().GetNumber("inLoopsMs"),
	}
	body, _ := json.Marshal(payload)
	post, err := http.Post(srv.URL+"/__ceres/results?page=/app.js", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusNoContent {
		t.Fatalf("results status %d", post.StatusCode)
	}

	// 6-7: the proxy saved a readable report.
	if got := len(p.Results()); got != 1 {
		t.Fatalf("%d reports, want 1", got)
	}
	files, err := filepath.Glob(filepath.Join(dir, "report-*.txt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("report files: %v, %v", files, err)
	}
	content, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(content), "inLoopsMs") || !strings.Contains(string(content), "/app.js") {
		t.Errorf("report content unexpected:\n%s", content)
	}
	if got := p.Stats().Instrumented; got != 1 {
		t.Errorf("Instrumented = %d, want 1", got)
	}
}

func TestProxyPassesThroughHTML(t *testing.T) {
	origin := newOrigin()
	defer origin.Close()
	p, srv := newProxy(t, origin.URL, "")
	body, _ := get(t, srv.URL+"/index.html")
	if strings.Contains(body, "__ceres") {
		t.Errorf("HTML was instrumented: %s", body)
	}
	if got := p.Stats().Passthrough; got != 1 {
		t.Errorf("Passthrough = %d, want 1", got)
	}
}

func TestProxyFailsafeOnBrokenJS(t *testing.T) {
	origin := newOrigin()
	defer origin.Close()
	p, srv := newProxy(t, origin.URL, "")
	body, resp := get(t, srv.URL+"/broken.js")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body != "function ( { this is not js" {
		t.Errorf("broken script modified: %q", body)
	}
	if got := p.Stats().Failures; got != 1 {
		t.Errorf("Failures = %d, want 1", got)
	}
}

// TestProxyFailsafeOnHostileNesting: the script that used to overflow
// the parser's stack (fatal to the process, not a recoverable panic) is
// one more unparsable script — served as the origin sent it.
func TestProxyFailsafeOnHostileNesting(t *testing.T) {
	deep := "x=" + strings.Repeat("(", 3e6) + "1" + strings.Repeat(")", 3e6)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		io.WriteString(w, deep)
	}))
	defer origin.Close()
	p, srv := newProxy(t, origin.URL, "")
	body, resp := get(t, srv.URL+"/deep.js")
	if resp.StatusCode != http.StatusOK || body != deep {
		t.Errorf("status %d, %d bytes back of %d (or modified)", resp.StatusCode, len(body), len(deep))
	}
	if st := p.Stats(); st.Failures != 1 || st.Instrumented != 0 {
		t.Errorf("Failures = %d, Instrumented = %d, want 1 and 0", st.Failures, st.Instrumented)
	}
}

// TestOversizedScriptStreamsThrough: a script one byte over the cap is
// neither buffered whole nor parsed; the client gets the origin's bytes.
func TestOversizedScriptStreamsThrough(t *testing.T) {
	big := strings.Repeat("for (;;) {}\n", maxScriptBytes/12+1)[:maxScriptBytes+1]
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, big)
	}))
	defer origin.Close()
	p, srv := newProxy(t, origin.URL, "")
	body, resp := get(t, srv.URL+"/big.js")
	if resp.StatusCode != http.StatusOK || body != big {
		t.Errorf("status %d, %d bytes back of %d (or modified)", resp.StatusCode, len(body), len(big))
	}
	st := p.Stats()
	if st.Passthrough != 1 || st.Rewrites != 0 || st.Instrumented != 0 || st.Failures != 0 {
		t.Errorf("passthrough %d rewrites %d instrumented %d failures %d, want 1 0 0 0",
			st.Passthrough, st.Rewrites, st.Instrumented, st.Failures)
	}
	if st.CacheMisses != 0 || st.CacheEntries != 0 || st.CacheBytes != 0 {
		t.Errorf("oversized script reached the cache: %+v", st)
	}
}

// TestHopByHopHeadersStripped is the RFC 9110 §7.6.1 regression test:
// hop-by-hop fields — the well-known set plus anything named in
// Connection — must not be forwarded upstream, and must not come back
// downstream.
func TestHopByHopHeadersStripped(t *testing.T) {
	var upstreamSaw http.Header
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upstreamSaw = r.Header.Clone()
		w.Header().Set("X-Origin", "yes")
		w.Header().Set("Keep-Alive", "timeout=5")
		w.Header().Set("Upgrade", "websocket")
		w.Header().Set("X-Hop", "secret")
		w.Header().Set("Connection", "x-hop")
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ok")
	}))
	defer origin.Close()
	p, _ := newProxy(t, origin.URL, "")

	req := httptest.NewRequest(http.MethodGet, "/page", nil)
	req.Header.Set("Connection", "keep-alive, x-private")
	req.Header.Set("X-Private", "do-not-forward")
	req.Header.Set("Keep-Alive", "timeout=5")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("X-Public", "forward-me")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	for _, h := range []string{"X-Private", "Keep-Alive", "Upgrade", "Connection"} {
		if got := upstreamSaw.Get(h); got != "" {
			t.Errorf("hop-by-hop request header %s forwarded upstream: %q", h, got)
		}
	}
	if got := upstreamSaw.Get("X-Public"); got != "forward-me" {
		t.Errorf("end-to-end request header lost: X-Public = %q", got)
	}
	for _, h := range []string{"Keep-Alive", "Upgrade", "X-Hop", "Connection"} {
		if got := rec.Header().Get(h); got != "" {
			t.Errorf("hop-by-hop response header %s forwarded downstream: %q", h, got)
		}
	}
	if got := rec.Header().Get("X-Origin"); got != "yes" {
		t.Errorf("end-to-end response header lost: X-Origin = %q", got)
	}
}

// TestStripHopByHop covers the header scrubber directly, including the
// Connection-named extension token.
func TestStripHopByHop(t *testing.T) {
	h := http.Header{}
	h.Set("Connection", "close, x-custom")
	h.Set("X-Custom", "1")
	h.Set("Proxy-Connection", "keep-alive")
	h.Set("TE", "trailers")
	h.Set("Trailer", "Expires")
	h.Set("Transfer-Encoding", "chunked")
	h.Set("Proxy-Authorization", "Basic abc")
	h.Set("Content-Type", "text/plain")
	stripHopByHop(h)
	if len(h) != 1 || h.Get("Content-Type") != "text/plain" {
		t.Errorf("after strip: %v, want only Content-Type", h)
	}
}

// TestProxyPreservesEscapedPath: /files/a%2Fb must reach the origin in
// its escaped form, not re-encoded as /files/a/b.
func TestProxyPreservesEscapedPath(t *testing.T) {
	var sawEscaped string
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawEscaped = r.URL.EscapedPath()
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ok")
	}))
	defer origin.Close()
	_, srv := newProxy(t, origin.URL, "")
	body, resp := get(t, srv.URL+"/files/a%2Fb")
	if resp.StatusCode != http.StatusOK || body != "ok" {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
	if sawEscaped != "/files/a%2Fb" {
		t.Errorf("origin saw escaped path %q, want /files/a%%2Fb", sawEscaped)
	}
}

// TestProxyConcurrentSingleRewrite is the single-flight contract under
// -race: N simultaneous requests for one uncached script cost exactly
// one instrument.Rewrite and every client gets byte-identical output.
func TestProxyConcurrentSingleRewrite(t *testing.T) {
	origin := newOrigin()
	defer origin.Close()
	p, srv := newProxy(t, origin.URL, "")

	const n = 32
	bodies := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(srv.URL + "/app.js")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i] = string(b)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d got a different body than client 0", i)
		}
	}
	if !strings.Contains(bodies[0], "__ceresEnter") {
		t.Fatalf("responses not instrumented:\n%s", bodies[0])
	}
	s := p.Stats()
	if s.Rewrites != 1 {
		t.Errorf("Rewrites = %d, want exactly 1 (single-flight)", s.Rewrites)
	}
	if s.Instrumented != n {
		t.Errorf("Instrumented = %d, want %d", s.Instrumented, n)
	}
	if s.CacheMisses != 1 {
		t.Errorf("CacheMisses = %d, want 1", s.CacheMisses)
	}
	if s.CacheHits+s.Coalesced != n-1 {
		t.Errorf("hits+coalesced = %d+%d, want %d", s.CacheHits, s.Coalesced, n-1)
	}
}

// TestCachedUncachedByteIdentical: the cache is an optimization, never a
// semantic change — responses with and without it match byte for byte,
// on cold and warm paths alike.
func TestCachedUncachedByteIdentical(t *testing.T) {
	origin := newOrigin()
	defer origin.Close()
	cached, cachedSrv := newProxy(t, origin.URL, "")
	uncached, uncachedSrv := newProxy(t, origin.URL, "")
	uncached.Cache = nil

	cold, _ := get(t, cachedSrv.URL+"/app.js")
	warm, _ := get(t, cachedSrv.URL+"/app.js")
	plain, _ := get(t, uncachedSrv.URL+"/app.js")
	plain2, _ := get(t, uncachedSrv.URL+"/app.js")
	if cold != plain || warm != plain || plain != plain2 {
		t.Fatal("cached and uncached responses differ")
	}
	if got := cached.Stats().Rewrites; got != 1 {
		t.Errorf("cached proxy Rewrites = %d, want 1", got)
	}
	if got := uncached.Stats().Rewrites; got != 2 {
		t.Errorf("uncached proxy Rewrites = %d, want 2", got)
	}
}

func TestIsJavaScript(t *testing.T) {
	cases := []struct {
		ct, path string
		want     bool
	}{
		{"application/javascript", "/x", true},
		{"text/javascript;charset=utf-8", "/x", true},
		{"TEXT/JavaScript; Charset=UTF-8", "/x", true},
		{"application/ecmascript", "/x", true},
		{"", "/app.js", true},
		{"text/plain", "/mod.mjs", true},
		{"application/json", "/data.json", false},
		{"text/html", "/index.html", false},
	}
	for _, c := range cases {
		if got := isJavaScript(c.ct, c.path); got != c.want {
			t.Errorf("isJavaScript(%q, %q) = %v, want %v", c.ct, c.path, got, c.want)
		}
	}
}

// TestProxyInstrumentsMJS checks module-script detection end to end.
func TestProxyInstrumentsMJS(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/javascript;charset=utf-8")
		io.WriteString(w, pageJS)
	}))
	defer origin.Close()
	_, srv := newProxy(t, origin.URL, "")
	body, _ := get(t, srv.URL+"/mod.mjs")
	if !strings.Contains(body, "__ceresEnter") {
		t.Errorf("module script not instrumented:\n%s", body)
	}
}

// TestSaveReportNonObjectJSON: any valid JSON value — arrays, bare
// numbers — is a valid report; memory and disk must agree.
func TestSaveReportNonObjectJSON(t *testing.T) {
	origin := newOrigin()
	defer origin.Close()
	dir := t.TempDir()
	p, srv := newProxy(t, origin.URL, dir)

	for _, payload := range []string{`[1, 2, 3]`, `42`} {
		resp, err := http.Post(srv.URL+"/__ceres/results?page=/app.js", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("payload %q: status %d, want 204", payload, resp.StatusCode)
		}
	}
	if got := len(p.Results()); got != 2 {
		t.Fatalf("%d reports in memory, want 2", got)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "report-*.txt"))
	if len(files) != 2 {
		t.Fatalf("%d report files, want 2 (memory and disk diverged)", len(files))
	}
	content, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(content), "1,") {
		t.Errorf("array report not pretty-printed:\n%s", content)
	}
}

func TestStatsEndpoint(t *testing.T) {
	origin := newOrigin()
	defer origin.Close()
	_, srv := newProxy(t, origin.URL, "")
	get(t, srv.URL+"/app.js")

	body, resp := get(t, srv.URL+"/__ceres/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var s Stats
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	if s.Instrumented != 1 || s.Rewrites != 1 {
		t.Errorf("stats = %+v, want Instrumented=1 Rewrites=1", s)
	}
}

func TestStatsEndpointDisabled(t *testing.T) {
	origin := newOrigin()
	defer origin.Close()
	p, srv := newProxy(t, origin.URL, "")
	p.StatsEndpoint = false
	_, resp := get(t, srv.URL+"/__ceres/stats")
	if resp.StatusCode == http.StatusOK && resp.Header.Get("Content-Type") == "application/json" {
		t.Error("stats endpoint served despite StatsEndpoint=false")
	}
}

func TestProxyRejectsBadResults(t *testing.T) {
	origin := newOrigin()
	defer origin.Close()
	_, srv := newProxy(t, origin.URL, "")
	resp, err := http.Post(srv.URL+"/__ceres/results", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
}
