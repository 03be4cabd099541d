// The rewrite cache: instrumentation (Fig. 5 step 2) is pure — the
// output depends only on (source bytes, mode) — so the proxy can be
// scaled from "re-parse every script on every request" to "one rewrite
// per distinct script" with a content-addressed cache. Three properties
// make it production-shaped rather than a map with a mutex:
//
//   - single-flight: N simultaneous requests for the same uncached
//     script cost one rewrite; the N-1 latecomers block on the first
//     caller's result instead of duplicating the parse.
//   - bounded memory: entries are charged their rewritten size against
//     a byte budget and evicted least-recently-used, so a proxy facing
//     an unbounded universe of scripts cannot grow without limit.
//   - sharding: the key space is split N ways by content hash, each
//     shard with its own lock, LRU list and byte budget, so concurrent
//     clients hitting *different* scripts stop serializing on one
//     mutex. A given key always lands on one shard, so the
//     single-flight and LRU contracts are per-key unchanged.
package proxy

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/instrument"
	"repro/internal/sched"
)

// DefaultCacheBytes is the rewrite-cache budget used when none is given.
const DefaultCacheBytes = 64 << 20

// DefaultShards is the shard count used when none is given. Sharding
// divides lock contention, not semantics: 8 shards keep 8 concurrent
// clients on distinct hot scripts from serializing on one LRU mutex.
const DefaultShards = 8

// negativeEntryCost is the charged size of a cached rewrite *failure*.
// Broken scripts produce no rewritten bytes but remembering that they
// are broken is what stops a hot unparsable script from forcing a full
// parse attempt on every request.
const negativeEntryCost = 128

// RewriteFunc computes the instrumented form of src at the given
// latency class. It reports the admission queue wait when the rewrite
// ran through a scheduler pipeline (zero on the inline path), so
// callers can surface backpressure per request. started, when non-nil,
// must be invoked exactly once after admission (before the rewrite
// blocks) with a hook that promotes the in-flight job to interactive —
// the cache's single-flight layer uses it for priority inheritance.
// Implementations without a scheduler (the inline default) ignore both.
type RewriteFunc func(src []byte, mode instrument.Mode, class sched.Class, started func(promote func())) (body []byte, queueWait time.Duration, err error)

// inlineRewrite is the default RewriteFunc: the staged transform run
// inline on the calling goroutine (no queue, no wait, classes moot).
func inlineRewrite(src []byte, mode instrument.Mode, _ sched.Class, _ func(promote func())) ([]byte, time.Duration, error) {
	res, err := instrument.Rewrite(instrument.Decode(src), mode)
	if err != nil {
		return nil, 0, err
	}
	return []byte(res.Source), 0, nil
}

// cacheKey content-addresses a rewrite: same bytes + same mode = same
// output, regardless of URL, so renamed or re-served copies of one
// script share an entry.
type cacheKey struct {
	sum  [sha256.Size]byte
	mode instrument.Mode
}

type cacheEntry struct {
	key  cacheKey
	body []byte // rewritten source; nil for a negative entry
	err  error  // non-nil for a negative entry
	cost int64
}

// flight is one in-progress rewrite that concurrent callers wait on.
// class, promote and promoteWanted implement priority inheritance and
// are guarded by the shard mutex: promote is the scheduler hook
// (installed once the rewrite is admitted), promoteWanted records an
// interactive latecomer that arrived before the hook existed.
type flight struct {
	done chan struct{}
	body []byte
	wait time.Duration
	err  error

	class         sched.Class
	promote       func()
	promoteWanted bool
}

// cacheShard is one lock domain: a full LRU cache over its slice of the
// key space.
type cacheShard struct {
	mu       sync.Mutex
	max      int64
	cur      int64
	lru      *list.List // of *cacheEntry; front = most recently used
	entries  map[cacheKey]*list.Element
	inflight map[cacheKey]*flight

	hits      int64
	misses    int64
	coalesced int64
	rewrites  int64
	evictions int64
}

// RewriteCache is a content-addressed, single-flight, LRU-bounded,
// sharded cache around the rewrite pipeline. It is safe for concurrent
// use.
type RewriteCache struct {
	shards []*cacheShard

	// rewrite computes a missing entry (inlineRewrite by default; the
	// serving pipeline installs its admission-controlled path).
	rewrite RewriteFunc
}

// CacheStats is a point-in-time snapshot of the cache counters. Each
// shard is snapshotted under its own lock (entries, bytes and in-flight
// rewrites from one shard are mutually consistent); the totals compose
// the per-shard snapshots.
type CacheStats struct {
	// Hits served a completed entry.
	Hits int64
	// Misses found neither a resident entry nor a flight to join.
	Misses int64
	// Coalesced joined another caller's in-flight rewrite.
	Coalesced int64
	// Rewrites counts misses whose rewrite ran: Misses minus the misses
	// shed at admission (sched.ErrSaturated), so Rewrites <= Misses and
	// a saturated queue never inflates it.
	Rewrites int64
	// Evictions counts entries dropped to stay under the byte budget.
	Evictions int64
	// Bytes and Entries describe current residency; Inflight is the
	// number of single-flight rewrites in progress (keys that are
	// neither resident nor absent — without it, Entries briefly
	// under-reports the keys the cache is committed to).
	Bytes    int64
	Entries  int64
	Inflight int64
	// Shards echoes the shard count.
	Shards int
}

// NewRewriteCache returns a single-shard cache bounded to maxBytes of
// rewritten source (DefaultCacheBytes if maxBytes <= 0). It is the
// baseline the sharded cache is benchmarked against; servers should use
// NewShardedRewriteCache.
func NewRewriteCache(maxBytes int64) *RewriteCache {
	return NewShardedRewriteCache(maxBytes, 1)
}

// NewShardedRewriteCache returns a cache with the byte budget split
// evenly across `shards` lock domains (shards <= 0 → DefaultShards).
func NewShardedRewriteCache(maxBytes int64, shards int) *RewriteCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	perShard := (maxBytes + int64(shards) - 1) / int64(shards)
	c := &RewriteCache{
		shards:  make([]*cacheShard, shards),
		rewrite: inlineRewrite,
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			max:      perShard,
			lru:      list.New(),
			entries:  make(map[cacheKey]*list.Element),
			inflight: make(map[cacheKey]*flight),
		}
	}
	return c
}

// SetRewriteFunc replaces the rewrite computation (the serving pipeline
// installs its admission-controlled staged path here). Must be called
// before the cache serves traffic.
func (c *RewriteCache) SetRewriteFunc(fn RewriteFunc) { c.rewrite = fn }

// shardFor maps a key to its shard: the content hash is already
// uniform, so the first eight bytes (mixed with the mode) index evenly.
func (c *RewriteCache) shardFor(key cacheKey) *cacheShard {
	h := binary.BigEndian.Uint64(key.sum[:8]) ^ (uint64(key.mode) * 0x9E3779B97F4A7C15)
	return c.shards[h%uint64(len(c.shards))]
}

// Rewrite returns the instrumented form of src under mode at
// interactive priority, computing it at most once per distinct
// (content, mode) while the entry stays resident. The returned slice is
// shared across callers and must not be modified. A rewrite error is
// cached too (cheaply), so hot broken scripts do not re-parse per
// request — except saturation (sched.ErrSaturated), which is the
// queue's state, not the script's, and is never cached.
func (c *RewriteCache) Rewrite(src []byte, mode instrument.Mode) ([]byte, error) {
	body, _, err := c.RewriteTimed(src, mode, sched.ClassInteractive)
	return body, err
}

// RewriteTimed is Rewrite at an explicit latency class, plus the
// admission queue wait this call (or the in-flight rewrite it joined)
// paid; hits report zero. Priority inheritance happens here: an
// interactive caller that coalesces onto a flight started at batch
// priority promotes the in-flight job, so the interactive caller never
// waits behind batch lane ordering for work it is blocked on.
func (c *RewriteCache) RewriteTimed(src []byte, mode instrument.Mode, class sched.Class) ([]byte, time.Duration, error) {
	return c.rewriteKeyed(sha256.Sum256(src), src, mode, class)
}

// rewriteKeyed is RewriteTimed for a caller that has already hashed src
// (sum is sha256.Sum256(src)), as cluster routing has, so a script is
// hashed once per node.
func (c *RewriteCache) rewriteKeyed(sum [sha256.Size]byte, src []byte, mode instrument.Mode, class sched.Class) ([]byte, time.Duration, error) {
	key := cacheKey{sum: sum, mode: mode}
	s := c.shardFor(key)

	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		s.hits++
		s.mu.Unlock()
		return e.body, 0, e.err
	}
	if f, ok := s.inflight[key]; ok {
		s.coalesced++
		var promote func()
		if class == sched.ClassInteractive && f.class == sched.ClassBatch {
			// Priority inheritance: this interactive caller is about to
			// block on a batch-priority flight. Promote the in-flight
			// job; if its scheduler hook has not been installed yet
			// (the admitting goroutine is between Submit and started),
			// promoteWanted makes the hook fire on installation.
			f.class = sched.ClassInteractive
			f.promoteWanted = true
			promote = f.promote
		}
		s.mu.Unlock()
		if promote != nil {
			promote()
		}
		<-f.done
		return f.body, f.wait, f.err
	}
	f := &flight{done: make(chan struct{}), class: class}
	s.inflight[key] = f
	s.misses++
	s.mu.Unlock()

	f.body, f.wait, f.err = c.callRewrite(src, mode, class, func(promote func()) {
		s.mu.Lock()
		f.promote = promote
		want := f.promoteWanted
		s.mu.Unlock()
		if want {
			promote()
		}
	})
	close(f.done)

	s.mu.Lock()
	delete(s.inflight, key)
	if !errors.Is(f.err, sched.ErrSaturated) {
		// A miss shed at admission ran no rewrite and is the queue's
		// state, not the script's: neither counted nor cached.
		s.rewrites++
		s.insertLocked(key, f.body, f.err)
	}
	s.mu.Unlock()
	return f.body, f.wait, f.err
}

// callRewrite invokes the rewrite function with panic containment: a
// panicking rewriter resolves the single-flight entry with an error
// instead of leaving its key permanently in-flight (which would hang
// every future request for that script) while the panic unwinds the
// request goroutine.
func (c *RewriteCache) callRewrite(src []byte, mode instrument.Mode, class sched.Class, started func(promote func())) (body []byte, wait time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("proxy: rewrite panic: %v", r)
		}
	}()
	return c.rewrite(src, mode, class, started)
}

func (s *cacheShard) insertLocked(key cacheKey, body []byte, err error) {
	cost := int64(len(body))
	if err != nil {
		cost = negativeEntryCost
	}
	if cost > s.max {
		// An entry larger than the whole shard budget would evict
		// everything and still not fit; serve it uncached.
		return
	}
	el := s.lru.PushFront(&cacheEntry{key: key, body: body, err: err, cost: cost})
	s.entries[key] = el
	s.cur += cost
	s.evictOverLocked(el)
}

// evictOverLocked drops LRU entries until the shard is back under
// budget, never evicting keep (the entry just inserted).
func (s *cacheShard) evictOverLocked(keep *list.Element) {
	for s.cur > s.max {
		back := s.lru.Back()
		if back == nil || back == keep {
			break
		}
		e := back.Value.(*cacheEntry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.cur -= e.cost
		s.evictions++
	}
}

// Stats snapshots the counters, shard by shard (each shard under its
// own lock, so every shard's entries/bytes/inflight triple is
// internally consistent).
func (c *RewriteCache) Stats() CacheStats {
	st := CacheStats{Shards: len(c.shards)}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Coalesced += s.coalesced
		st.Rewrites += s.rewrites
		st.Evictions += s.evictions
		st.Bytes += s.cur
		st.Entries += int64(len(s.entries))
		st.Inflight += int64(len(s.inflight))
		s.mu.Unlock()
	}
	return st
}
