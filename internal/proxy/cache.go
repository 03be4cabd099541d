// The rewrite cache: instrumentation (Fig. 5 step 2) is pure — the
// output depends only on (source bytes, mode) — so the proxy can be
// scaled from "re-parse every script on every request" to "one rewrite
// per distinct script" with a content-addressed cache. Two properties
// make it production-shaped rather than a map with a mutex:
//
//   - single-flight: N simultaneous requests for the same uncached
//     script cost one rewrite; the N-1 latecomers block on the first
//     caller's result instead of duplicating the parse.
//   - bounded memory: entries are charged their rewritten size against
//     one byte budget and evicted least-recently-used, so a proxy facing
//     an unbounded universe of scripts cannot grow without limit.
//
// One mutex guards the whole cache. Its critical section is a map
// lookup and a list move; the rewrite itself runs outside it.
package proxy

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/instrument"
	"repro/internal/sched"
)

// DefaultCacheBytes is the rewrite-cache budget used when none is given.
const DefaultCacheBytes = 64 << 20

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
	prog, err := instrument.Parse(instrument.Decode(src))
	if err != nil {
		return nil, 0, err
	}
	instrument.Transform(prog)
	return instrument.Encode(prog, mode), 0, nil
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
// are guarded by the cache mutex: promote is the scheduler hook
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

// RewriteCache is a content-addressed, single-flight, LRU-bounded
// cache around the rewrite pipeline. It is safe for concurrent use.
type RewriteCache struct {
	mu       sync.Mutex
	max      int64      // the byte budget
	cur      int64      // bytes charged by resident entries
	lru      *list.List // of *cacheEntry; front = most recently used
	entries  map[cacheKey]*list.Element
	inflight map[cacheKey]*flight

	hits      int64
	misses    int64
	coalesced int64
	rewrites  int64
	evictions int64

	// rewrite computes a missing entry (inlineRewrite by default; the
	// serving pipeline installs its admission-controlled path).
	rewrite RewriteFunc
}

// CacheStats is a point-in-time snapshot of the cache counters, taken
// under the cache lock: entries, bytes and in-flight rewrites are
// mutually consistent.
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
}

// NewRewriteCache returns a cache bounded to maxBytes of rewritten
// source (DefaultCacheBytes if maxBytes <= 0).
func NewRewriteCache(maxBytes int64) *RewriteCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &RewriteCache{
		max:      maxBytes,
		lru:      list.New(),
		entries:  make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*flight),
		rewrite:  inlineRewrite,
	}
}

// NewShardedRewriteCache is NewRewriteCache; it ignores shards. It is
// kept only because the benchmark module binds it.
func NewShardedRewriteCache(maxBytes int64, shards int) *RewriteCache {
	return NewRewriteCache(maxBytes)
}

// SetRewriteFunc replaces the rewrite computation (the serving pipeline
// installs its admission-controlled staged path here). Must be called
// before the cache serves traffic.
func (c *RewriteCache) SetRewriteFunc(fn RewriteFunc) { c.rewrite = fn }

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

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.hits++
		c.mu.Unlock()
		return e.body, 0, e.err
	}
	if f, ok := c.inflight[key]; ok {
		c.coalesced++
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
		c.mu.Unlock()
		if promote != nil {
			promote()
		}
		<-f.done
		return f.body, f.wait, f.err
	}
	f := &flight{done: make(chan struct{}), class: class}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	f.body, f.wait, f.err = c.callRewrite(src, mode, class, func(promote func()) {
		c.mu.Lock()
		f.promote = promote
		want := f.promoteWanted
		c.mu.Unlock()
		if want {
			promote()
		}
	})
	close(f.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if !errors.Is(f.err, sched.ErrSaturated) {
		// A miss shed at admission ran no rewrite and is the queue's
		// state, not the script's: neither counted nor cached.
		c.rewrites++
		c.insertLocked(key, f.body, f.err)
	}
	c.mu.Unlock()
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

func (c *RewriteCache) insertLocked(key cacheKey, body []byte, err error) {
	cost := int64(len(body))
	if err != nil {
		cost = negativeEntryCost
	}
	if cost > c.max {
		// An entry larger than the whole budget would evict everything
		// and still not fit; serve it uncached.
		return
	}
	el := c.lru.PushFront(&cacheEntry{key: key, body: body, err: err, cost: cost})
	c.entries[key] = el
	c.cur += cost
	c.evictOverLocked(el)
}

// evictOverLocked drops LRU entries until the cache is back under
// budget, never evicting keep (the entry just inserted).
func (c *RewriteCache) evictOverLocked(keep *list.Element) {
	for c.cur > c.max {
		back := c.lru.Back()
		if back == nil || back == keep {
			break
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.cur -= e.cost
		c.evictions++
	}
}

// Stats snapshots the counters under the cache lock, so the
// entries/bytes/inflight triple is consistent.
func (c *RewriteCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Rewrites:  c.rewrites,
		Evictions: c.evictions,
		Bytes:     c.cur,
		Entries:   int64(len(c.entries)),
		Inflight:  int64(len(c.inflight)),
	}
}
