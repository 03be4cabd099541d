package proxy

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/instrument"
	"repro/internal/sched"
)

func srcN(n int) []byte {
	return []byte(fmt.Sprintf("var x%d = 0;\nfor (var i = 0; i < 10; i++) { x%d += i; }\n", n, n))
}

func TestCacheHitReturnsSameBytes(t *testing.T) {
	c := NewRewriteCache(1 << 20)
	a, err := c.Rewrite(srcN(1), instrument.ModeLight)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Rewrite(srcN(1), instrument.ModeLight)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("cache hit returned different bytes")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Rewrites != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 rewrite", s)
	}
}

// TestCacheKeyedRewriteSharesEntries: the variant that takes a digest
// cluster routing already computed keys the same entry RewriteTimed does.
func TestCacheKeyedRewriteSharesEntries(t *testing.T) {
	c := NewRewriteCache(1 << 20)
	src := srcN(1)
	a, _, err := c.rewriteKeyed(sha256.Sum256(src), src, instrument.ModeLight, sched.ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := c.RewriteTimed(src, instrument.ModeLight, sched.ClassBatch)
	if err != nil || !bytes.Equal(a, b) {
		t.Fatalf("RewriteTimed after rewriteKeyed: %v, same bytes %v", err, bytes.Equal(a, b))
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestCacheKeyIncludesMode(t *testing.T) {
	c := NewRewriteCache(1 << 20)
	light, _ := c.Rewrite(srcN(1), instrument.ModeLight)
	loops, _ := c.Rewrite(srcN(1), instrument.ModeLoops)
	if bytes.Equal(light, loops) {
		t.Fatal("different modes share a cache entry")
	}
	if s := c.Stats(); s.Rewrites != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2 rewrites / 2 entries", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewRewriteCache(1 << 20)
	a, _ := c.Rewrite(srcN(1), instrument.ModeLight)
	// Budget fits two rewritten entries of this size, not three.
	c = NewRewriteCache(int64(len(a))*2 + 64)
	c.Rewrite(srcN(1), instrument.ModeLight)
	c.Rewrite(srcN(2), instrument.ModeLight)
	c.Rewrite(srcN(1), instrument.ModeLight) // touch 1: now 2 is LRU
	c.Rewrite(srcN(3), instrument.ModeLight) // evicts 2
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", s)
	}
	c.Rewrite(srcN(1), instrument.ModeLight) // still resident
	c.Rewrite(srcN(2), instrument.ModeLight) // evicted: re-rewrites
	s2 := c.Stats()
	if got := s2.Hits - s.Hits; got != 1 {
		t.Errorf("recently-used entry evicted: hit delta %d, want 1", got)
	}
	if got := s2.Rewrites - s.Rewrites; got != 1 {
		t.Errorf("evicted entry not recomputed: rewrite delta %d, want 1", got)
	}
	if s2.Bytes > int64(len(a))*2+64 {
		t.Errorf("cache over budget: %d bytes", s2.Bytes)
	}
}

func TestCacheOversizedEntryNotCached(t *testing.T) {
	c := NewRewriteCache(8) // smaller than any rewritten script
	c.Rewrite(srcN(1), instrument.ModeLight)
	c.Rewrite(srcN(1), instrument.ModeLight)
	s := c.Stats()
	if s.Rewrites != 2 || s.Entries != 0 {
		t.Errorf("stats = %+v, want 2 rewrites / 0 entries (serve uncached)", s)
	}
}

// TestShardedConstructorIgnoresCount: the benchmark module's
// constructor builds the same one-budget cache, so two entries that
// are each far over an eighth of the budget are both resident.
func TestShardedConstructorIgnoresCount(t *testing.T) {
	a, _ := NewRewriteCache(1<<20).Rewrite(srcN(1), instrument.ModeLight)
	budget := int64(len(a))*2 + 64
	c := NewShardedRewriteCache(budget, 8)
	for r := 0; r < 2; r++ {
		c.Rewrite(srcN(1), instrument.ModeLight)
		c.Rewrite(srcN(2), instrument.ModeLight)
	}
	if s := c.Stats(); s.Rewrites != 2 || s.Hits != 2 || s.Entries != 2 || s.Evictions != 0 {
		t.Errorf("stats = %+v, want 2 rewrites / 2 hits / 2 entries / 0 evictions", s)
	}
}

func TestCacheNegativeEntry(t *testing.T) {
	c := NewRewriteCache(1 << 20)
	broken := []byte("function ( { this is not js")
	if _, err := c.Rewrite(broken, instrument.ModeLight); err == nil {
		t.Fatal("broken script rewrote without error")
	}
	if _, err := c.Rewrite(broken, instrument.ModeLight); err == nil {
		t.Fatal("cached failure lost its error")
	}
	if s := c.Stats(); s.Rewrites != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want failure parsed once then served from cache", s)
	}
}

// TestCacheSingleFlight: concurrent misses for one key coalesce into a
// single rewrite (run with -race).
func TestCacheSingleFlight(t *testing.T) {
	c := NewRewriteCache(1 << 20)
	const n = 64
	src := srcN(9)
	out := make([][]byte, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			b, err := c.Rewrite(src, instrument.ModeLoops)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = b
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(out[i], out[0]) {
			t.Fatalf("goroutine %d got different bytes", i)
		}
	}
	s := c.Stats()
	if s.Rewrites != 1 {
		t.Errorf("Rewrites = %d, want exactly 1", s.Rewrites)
	}
	if s.Hits+s.Coalesced != n-1 {
		t.Errorf("hits+coalesced = %d+%d, want %d", s.Hits, s.Coalesced, n-1)
	}
}

// TestServingCacheOneBudget: the serving cache is one LRU under one
// byte budget. An entry bigger than an eighth of the budget is cached
// (a cache split eight ways could never hold it), and 64 equal entries
// that together fit the budget are all resident after one pass (no
// slice of the key space evicts while the whole is under budget).
func TestServingCacheOneBudget(t *testing.T) {
	const budget = 1 << 20
	for _, tc := range []struct {
		name              string
		scripts, requests int // distinct scripts, requests of each
		pad               int // padding bytes per script
	}{
		{"entry over an eighth of the budget", 1, 3, budget / 4},
		{"64 entries that fit together", 64, 1, budget/64 - 2048},
	} {
		t.Run(tc.name, func(t *testing.T) {
			script := func(path string) []byte {
				return []byte(fmt.Sprintf("var p = %q;\nvar pad = %q;\nfor (var i = 0; i < 10; i++) { p += i; }\n",
					path, strings.Repeat("x", tc.pad)))
			}
			path := func(i int) string { return fmt.Sprintf("/s/%02d.js", i) }
			res, err := instrument.Rewrite(string(script(path(0))), instrument.ModeLight)
			if err != nil {
				t.Fatal(err)
			}
			// The scripts' rewrites fit the budget but not an eighth of it.
			if set := tc.scripts * len(res.Source); set <= budget/8 || set > budget {
				t.Fatalf("%d rewrites of %d bytes: want over budget/8, within budget", tc.scripts, len(res.Source))
			}

			origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/javascript")
				w.Write(script(r.URL.Path))
			}))
			defer origin.Close()
			p, err := NewServing(origin.URL, instrument.ModeLight, "", ServeConfig{CacheBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for r := 0; r < tc.requests; r++ {
				for i := 0; i < tc.scripts; i++ {
					rec := httptest.NewRecorder()
					p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path(i), nil))
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: status %d", path(i), rec.Code)
					}
				}
			}
			// Each script is rewritten once and every later request hits.
			st, n := p.Stats(), int64(tc.scripts)
			if st.Rewrites != n || st.CacheHits != n*int64(tc.requests-1) || st.CacheEvictions != 0 || st.CacheEntries != n {
				t.Errorf("rewrites/hits/evictions/entries = %d/%d/%d/%d, want %d/%d/0/%d",
					st.Rewrites, st.CacheHits, st.CacheEvictions, st.CacheEntries, n, n*int64(tc.requests-1), n)
			}
		})
	}
}

// TestServingBodiesMatchRewrite: caching is an optimization, never a
// semantic change — 8 concurrent clients over 12 hot scripts each get
// exactly instrument.Rewrite of the source, and each distinct script
// is rewritten once. Run under -race.
func TestServingBodiesMatchRewrite(t *testing.T) {
	script := func(path string) string {
		return fmt.Sprintf("var p = %q;\nvar s = 0;\nfor (var i = 0; i < 50; i++) { s += i; }\n", path)
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		fmt.Fprint(w, script(r.URL.Path))
	}))
	defer origin.Close()
	p, err := NewServing(origin.URL, instrument.ModeLoops, "", ServeConfig{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const clients, perClient, hot = 8, 40, 12
	want := make(map[string]string, hot)
	for i := 0; i < hot; i++ {
		path := fmt.Sprintf("/hot/%d.js", i)
		res, err := instrument.Rewrite(script(path), instrument.ModeLoops)
		if err != nil {
			t.Fatal(err)
		}
		want[path] = res.Source
	}
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				path := fmt.Sprintf("/hot/%d.js", (cl+i)%hot)
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("client %d %s: status %d", cl, path, rec.Code)
					return
				}
				if rec.Body.String() != want[path] {
					t.Errorf("client %d request %d: %s body differs from instrument.Rewrite", cl, i, path)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	if st := p.Stats(); st.Rewrites != hot {
		t.Errorf("rewrites = %d, want %d (one per distinct script)", st.Rewrites, hot)
	}
}

// TestStatsInflightSnapshot is the regression test for the stats
// consistency fix: a single-flight rewrite in progress is visible as
// CacheInflight in the same snapshot as entries and bytes, so
// /__ceres/stats can no longer under-report the keys the cache is
// committed to.
func TestStatsInflightSnapshot(t *testing.T) {
	c := NewRewriteCache(1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	c.SetRewriteFunc(func(src []byte, mode instrument.Mode, class sched.Class, started func(func())) ([]byte, time.Duration, error) {
		close(entered)
		<-release
		return inlineRewrite(src, mode, class, started)
	})
	done := make(chan []byte, 1)
	go func() {
		body, err := c.Rewrite(srcN(1), instrument.ModeLight)
		if err != nil {
			t.Error(err)
		}
		done <- body
	}()
	<-entered
	st := c.Stats()
	if st.Inflight != 1 {
		t.Errorf("Inflight = %d during single-flight rewrite, want 1", st.Inflight)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("entries/bytes = %d/%d before completion, want 0/0", st.Entries, st.Bytes)
	}
	if st.Entries+st.Inflight != 1 {
		t.Errorf("entries+inflight = %d, want 1 (the key the cache is committed to)", st.Entries+st.Inflight)
	}
	close(release)
	body := <-done
	st = c.Stats()
	if st.Inflight != 0 || st.Entries != 1 || st.Bytes != int64(len(body)) {
		t.Errorf("after completion: %+v, want inflight 0, 1 entry of %d bytes", st, len(body))
	}
}

// TestStatsNeverUnderReportsUnderLoad drives concurrent rewrites while
// polling Stats and asserts the committed-key invariant continuously:
// bytes are never resident without an entry accounting for them.
func TestStatsNeverUnderReportsUnderLoad(t *testing.T) {
	c := NewRewriteCache(1 << 20)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Rewrite(srcN(w*1000+i%50), instrument.ModeLight); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := c.Stats()
		if st.Bytes > 0 && st.Entries == 0 {
			t.Fatalf("snapshot reports %d bytes with 0 entries", st.Bytes)
		}
		if st.Inflight < 0 || st.Entries < 0 {
			t.Fatalf("negative residency: %+v", st)
		}
	}
	close(stop)
	wg.Wait()
}
