package proxy

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

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
	c := NewShardedRewriteCache(1<<20, 4)
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
