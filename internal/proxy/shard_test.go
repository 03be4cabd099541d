package proxy

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/instrument"
	"repro/internal/sched"
)

// TestShardKeyDistribution: SHA-256 content addressing spreads distinct
// scripts evenly across shards — no shard is empty or pathologically
// loaded, so per-shard locks actually divide contention.
func TestShardKeyDistribution(t *testing.T) {
	c := NewShardedRewriteCache(64<<20, 8)
	const scripts = 256
	for i := 0; i < scripts; i++ {
		if _, err := c.Rewrite(srcN(i), instrument.ModeLight); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Entries; got != scripts {
		t.Fatalf("Entries = %d, want %d", got, scripts)
	}
	mean := scripts / len(c.shards)
	for i, s := range c.shards {
		n := len(s.entries)
		if n == 0 {
			t.Errorf("shard %d is empty — keys are not spreading", i)
		}
		if n > mean*2 {
			t.Errorf("shard %d holds %d entries (mean %d) — distribution skewed", i, n, mean)
		}
	}
}

// TestShardLRUEvictionIndependence: filling one shard past its budget
// evicts only within that shard; residents of other shards survive.
func TestShardLRUEvictionIndependence(t *testing.T) {
	// Budget small enough that ~4 rewritten entries overflow one shard.
	one, err := NewRewriteCache(1<<20).Rewrite(srcN(0), instrument.ModeLight)
	if err != nil {
		t.Fatal(err)
	}
	entrySize := int64(len(one))
	c := NewShardedRewriteCache(entrySize*3*2, 2) // per-shard budget: 3 entries

	// Sort candidate scripts by target shard.
	byShard := map[*cacheShard][]int{}
	for i := 0; i < 64 && (len(byShard[c.shards[0]]) < 8 || len(byShard[c.shards[1]]) < 8); i++ {
		key := cacheKey{sum: sha256.Sum256(srcN(i)), mode: instrument.ModeLight}
		s := c.shardFor(key)
		byShard[s] = append(byShard[s], i)
	}
	a, b := byShard[c.shards[0]], byShard[c.shards[1]]
	if len(a) < 5 || len(b) < 1 {
		t.Fatalf("unlucky shard split: %d/%d", len(a), len(b))
	}

	// One resident in shard 1, then overflow shard 0.
	if _, err := c.Rewrite(srcN(b[0]), instrument.ModeLight); err != nil {
		t.Fatal(err)
	}
	for _, i := range a[:5] {
		if _, err := c.Rewrite(srcN(i), instrument.ModeLight); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions in the overflowed shard", st)
	}
	before := st.Hits
	if _, err := c.Rewrite(srcN(b[0]), instrument.ModeLight); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Hits - before; got != 1 {
		t.Errorf("shard-1 resident evicted by shard-0 pressure: hit delta %d, want 1", got)
	}
	if len(c.shards[1].entries) == 0 {
		t.Error("shard 1 drained while only shard 0 was over budget")
	}
}

// TestShardedByteIdenticalToSingleShard: sharding is an optimization,
// never a semantic change — 8 concurrent clients over a mixed script
// set get byte-identical bodies from a 1-shard and an 8-shard proxy.
// Run under -race.
func TestShardedByteIdenticalToSingleShard(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		fmt.Fprintf(w, "var p = %q;\nvar s = 0;\nfor (var i = 0; i < 50; i++) { s += i; }\n", r.URL.Path)
	}))
	defer origin.Close()

	single, err := NewServing(origin.URL, instrument.ModeLoops, "", ServeConfig{Shards: 1, Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := NewServing(origin.URL, instrument.ModeLoops, "", ServeConfig{Shards: 8, Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	const clients, perClient, hot = 8, 40, 12
	type resp struct{ single, sharded string }
	got := make([][]resp, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				path := fmt.Sprintf("/hot/%d.js", (cl+i)%hot)
				var r resp
				for name, p := range map[string]*Proxy{"single": single, "sharded": sharded} {
					rec := httptest.NewRecorder()
					p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					if rec.Code != http.StatusOK {
						t.Errorf("client %d %s: status %d", cl, name, rec.Code)
						return
					}
					if name == "single" {
						r.single = rec.Body.String()
					} else {
						r.sharded = rec.Body.String()
					}
				}
				got[cl] = append(got[cl], r)
			}
		}(cl)
	}
	wg.Wait()
	for cl := range got {
		for i, r := range got[cl] {
			if r.single != r.sharded {
				t.Fatalf("client %d request %d: sharded body differs from single-shard", cl, i)
			}
		}
	}
	ss, sh := single.Stats(), sharded.Stats()
	if ss.CacheShards != 1 || sh.CacheShards != 8 {
		t.Errorf("shard counts = %d/%d, want 1/8", ss.CacheShards, sh.CacheShards)
	}
	// Same workload, same content addressing: both rewrote each distinct
	// script exactly once.
	if ss.Rewrites != hot || sh.Rewrites != hot {
		t.Errorf("rewrites = %d/%d, want %d each (one per distinct script)", ss.Rewrites, sh.Rewrites, hot)
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
	c := NewShardedRewriteCache(1<<20, 4)
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
