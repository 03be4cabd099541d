// Package cluster scales the serving proxy from one process to a fleet:
// a consistent-hash ring assigns every script key — the cache key,
// SHA-256(source) ⊕ mode — to exactly one owning node, so the per-key
// contracts the single process already guarantees (single-flight: one
// rewrite per distinct script; LRU: one residency decision per entry)
// stay per-key-exclusive across N processes. Parallelism comes from
// partitioning, not shared locks: each node is the sole actor for its
// shard of the key space (Shah's actor-relational model, PAPERS.md).
//
// The package has three layers:
//
//   - Ring (ring.go): virtual-node consistent hashing. A Ring is a pure
//     function of (member set, vnode count) — every node that agrees on
//     the member set computes the identical key→owner map with no
//     coordination, and a membership delta moves only the keys adjacent
//     to the joined/left node's virtual points (≈ K/N of them), never
//     reshuffling the rest.
//   - Node (node.go): membership and routing. Static member list at
//     start (-peers), health-probe-driven ejection and readmission
//     (the ring is rebuilt from the live set, so a dead node's keys
//     redistribute to the survivors), routing by the live ring alone,
//     and the forwarding counters surfaced in /__ceres/stats.
//   - Forwarding (forward.go): the HTTP peer protocol. One hop, ever:
//     a request forwarded to its owner carries HopHeader, and a node
//     receiving a hopped request always serves it locally — divergent
//     membership views degrade to an extra local rewrite, never a
//     forwarding loop. Retries with capped backoff handle transient
//     peer failures; errors are classified retryable (caller may serve
//     locally — availability beats strict ownership) or terminal.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member. More vnodes
// smooth the load split (relative imbalance shrinks ~1/sqrt(vnodes))
// and shrink the variance of how many keys a join/leave moves; the
// cost is only ring-build time, which happens on membership change.
const DefaultVNodes = 64

// KeyPoint maps a cache key — the content hash and instrumentation
// mode that already address the rewrite cache — onto the ring's
// uint64 key space. It must match the cache's notion of key identity:
// same (bytes, mode) = same point on every node.
func KeyPoint(sum [sha256.Size]byte, mode int) uint64 {
	// The content hash is already uniform; fold the mode in with a
	// golden-ratio multiply, so one (source, mode) pair — one cache
	// entry — is one point fleet-wide.
	return binary.BigEndian.Uint64(sum[:8]) ^ (uint64(mode) * 0x9E3779B97F4A7C15)
}

// ringPoint is one virtual node: a position on the ring and the member
// that owns keys in the arc ending at it.
type ringPoint struct {
	point  uint64
	member string
}

// Ring is an immutable consistent-hash ring over a member set. Build
// one with NewRing; rebuild (never mutate) on membership change. A
// Ring is a pure function of its inputs: two processes given the same
// member set and vnode count — in any order — compute identical
// key→owner maps, which is what lets the fleet route without a
// coordinator.
type Ring struct {
	members []string // sorted, deduplicated
	points  []ringPoint
}

// NewRing builds the ring for the given members (order-insensitive,
// duplicates ignored) with vnodes virtual points per member
// (<= 0 → DefaultVNodes). An empty member set yields a ring whose
// Owner returns "".
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, m := range sorted {
		if i == 0 || m != sorted[i-1] {
			uniq = append(uniq, m)
		}
	}
	r := &Ring{members: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for v := 0; v < vnodes; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", m, v)))
			r.points = append(r.points, ringPoint{
				point:  binary.BigEndian.Uint64(sum[:8]),
				member: m,
			})
		}
	}
	// Sort by point, tie-broken by member name so two members whose
	// vnode hashes collide still yield one deterministic owner on every
	// process.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].point != r.points[j].point {
			return r.points[i].point < r.points[j].point
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Owner returns the member owning the key point: the member of the
// first virtual point clockwise from (strictly after) the key,
// wrapping at the top of the key space. Empty ring → "".
func (r *Ring) Owner(point uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].point > point
	})
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}
