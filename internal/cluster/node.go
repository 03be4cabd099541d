// Node: membership and routing for one fleet member. The member list
// is static (-peers); liveness is not — a health prober ejects peers
// after consecutive probe failures and readmits them on recovery, and
// the ring is rebuilt from the live set on every change, so a dead
// node's keys redistribute to the survivors and come back when it
// does. Forward failures count toward ejection too (a refused
// connection is better evidence than waiting for the next probe
// tick).
package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Config's zero values.
const (
	DefaultProbeInterval  = 500 * time.Millisecond
	DefaultProbeTimeout   = 250 * time.Millisecond
	DefaultFailThreshold  = 2
	DefaultForwardTimeout = 5 * time.Second
	DefaultForwardRetries = 2
)

// Config describes one node's view of the fleet.
type Config struct {
	// Self is this node's own entry in Peers (its advertised base URL).
	Self string
	// Peers is the full static member list, including Self. Every node
	// must be started with the same list (any order) — the ring is a
	// pure function of it.
	Peers []string
	// VNodes is the virtual-node count per member (0 → DefaultVNodes).
	VNodes int
	// ReplicateQPS is the per-key request-rate threshold above which a
	// non-owner serves the key locally as a replica instead of
	// forwarding — a viral script must not melt its owner. 0 disables
	// replication.
	ReplicateQPS float64
	// ProbeInterval/ProbeTimeout drive the health prober
	// (0 → defaults). FailThreshold consecutive failures eject a peer;
	// one success readmits it.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int
	// ForwardTimeout bounds one forwarding attempt; ForwardRetries is
	// the number of re-attempts after the first (0 → defaults; use -1
	// for zero retries).
	ForwardTimeout time.Duration
	ForwardRetries int
	// Client performs peer HTTP requests (nil → a dedicated client;
	// per-attempt timeouts come from ForwardTimeout/ProbeTimeout).
	Client *http.Client
}

// MemberStat is one peer's membership state in a Stats snapshot.
type MemberStat struct {
	Peer string `json:"peer"`
	Self bool   `json:"self,omitempty"`
	Live bool   `json:"live"`
	// Fails is the current consecutive-failure count (probe or
	// forward); FailThreshold of them eject the peer.
	Fails int `json:"fails,omitempty"`
}

// Stats is a point-in-time snapshot of the node's cluster counters.
type Stats struct {
	Self    string       `json:"self"`
	Members []MemberStat `json:"members"`
	// Rebalances counts ring rebuilds after the initial one — each is
	// an ejection or readmission redistributing key ownership.
	Rebalances int64 `json:"rebalances"`
	// OwnedServed counts rewrites this node served as the key's owner;
	// ReplicaServed counts rewrites served locally for keys owned
	// elsewhere because hot-key replication engaged; ForwardFallbacks
	// counts rewrites served locally because the owner was unreachable
	// after retries (availability beats strict ownership).
	OwnedServed      int64 `json:"owned_served"`
	ReplicaServed    int64 `json:"replica_served"`
	ForwardFallbacks int64 `json:"forward_fallbacks"`
	// ForwardedOut counts requests sent to their owning peer;
	// ForwardRetries counts extra attempts beyond each first;
	// ForwardErrors counts forwards that exhausted retries.
	ForwardedOut   int64 `json:"forwarded_out"`
	ForwardRetries int64 `json:"forward_retries"`
	ForwardErrors  int64 `json:"forward_errors"`
	// PeerReceived counts rewrites this node served for peers (hopped
	// requests on /__ceres/peer/rewrite); PrewarmTransfers counts
	// prewarm sources this node transferred to their owners.
	PeerReceived     int64 `json:"peer_received"`
	PrewarmTransfers int64 `json:"prewarm_transfers"`
	// Probes/Ejections/Readmissions describe the health prober's
	// history.
	Probes       int64 `json:"probes"`
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
	// HotKeys is the number of keys currently tracked above the
	// replication threshold.
	HotKeys int `json:"hot_keys"`
}

// Node is one fleet member's routing brain. Create with New, start the
// health prober with Start, stop with Close. All methods are safe for
// concurrent use.
type Node struct {
	cfg    Config
	client *http.Client

	mu    sync.Mutex
	live  map[string]bool
	fails map[string]int
	ring  *Ring
	hot   *hotTracker

	rebalances   atomic.Int64
	owned        atomic.Int64
	replica      atomic.Int64
	fallbacks    atomic.Int64
	forwarded    atomic.Int64
	fwdRetries   atomic.Int64
	fwdErrors    atomic.Int64
	received     atomic.Int64
	transfers    atomic.Int64
	probes       atomic.Int64
	ejections    atomic.Int64
	readmissions atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	probing  sync.WaitGroup
}

// New validates cfg and builds the node with every peer initially
// live. Start launches the health prober; a node that is never
// Started routes on the static member set (tests, single-phase
// tools).
func New(cfg Config) (*Node, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	selfListed := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			selfListed = true
		}
	}
	if !selfListed {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = DefaultForwardTimeout
	}
	switch {
	case cfg.ForwardRetries < 0:
		cfg.ForwardRetries = 0
	case cfg.ForwardRetries == 0:
		cfg.ForwardRetries = DefaultForwardRetries
	}
	n := &Node{
		cfg:    cfg,
		client: cfg.Client,
		live:   make(map[string]bool, len(cfg.Peers)),
		fails:  make(map[string]int, len(cfg.Peers)),
		hot:    newHotTracker(cfg.ReplicateQPS),
		stop:   make(chan struct{}),
	}
	if n.client == nil {
		n.client = &http.Client{}
	}
	for _, p := range cfg.Peers {
		n.live[p] = true
	}
	n.ring = NewRing(cfg.Peers, cfg.VNodes)
	return n, nil
}

// Start launches the background health prober.
func (n *Node) Start() {
	n.probing.Add(1)
	go func() {
		defer n.probing.Done()
		t := time.NewTicker(n.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				n.probeAll()
			}
		}
	}()
}

// Close stops the health prober. It does not wait for in-flight
// forwards (their contexts bound them).
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.probing.Wait()
}

// Decision is the routing verdict for one key.
type Decision struct {
	// Owner is the key's owning member under the current live ring.
	Owner string
	// Local reports that this node should serve the key itself:
	// it is the owner, the key is replicated here, or no peer is live.
	Local bool
	// Replica marks a Local decision made by hot-key replication
	// rather than ownership.
	Replica bool
}

// Route decides where the key point is served. Not self and not hot →
// forward to the owner. Rate tracking happens here: every remote-owned
// routing decision feeds the hot tracker, and once a key's observed
// rate crosses ReplicateQPS this node serves it locally (filling its
// own cache — the rewrite is deterministic, so a replica is
// byte-identical to the owner's copy) until the rate decays.
func (n *Node) Route(point uint64) Decision {
	n.mu.Lock()
	owner := n.ring.Owner(point)
	n.mu.Unlock()
	if owner == "" || owner == n.cfg.Self {
		return Decision{Owner: n.cfg.Self, Local: true}
	}
	if n.hot.touch(point) {
		return Decision{Owner: owner, Local: true, Replica: true}
	}
	return Decision{Owner: owner, Local: false}
}

// OwnerFor returns the key's owner without feeding the hot tracker —
// the routing query for non-request traffic (prewarm transfers), which
// must not count toward replication thresholds.
func (n *Node) OwnerFor(point uint64) (owner string, local bool) {
	n.mu.Lock()
	owner = n.ring.Owner(point)
	n.mu.Unlock()
	if owner == "" || owner == n.cfg.Self {
		return n.cfg.Self, true
	}
	return owner, false
}

// CountLocal records a locally served rewrite for a Local decision
// (owned or replica). Call it when the local serve actually happens,
// so stats reflect served work, not routing intents.
func (n *Node) CountLocal(d Decision) {
	if d.Replica {
		n.replica.Add(1)
	} else {
		n.owned.Add(1)
	}
}

// CountFallback records a forward that exhausted retries and was
// served locally instead.
func (n *Node) CountFallback() { n.fallbacks.Add(1) }

// CountReceived records a peer-forwarded rewrite served by this node.
func (n *Node) CountReceived() { n.received.Add(1) }

// CountPrewarmTransfer records one prewarm source transferred to its
// owning peer.
func (n *Node) CountPrewarmTransfer() { n.transfers.Add(1) }

// Members returns the current live member set, sorted.
func (n *Node) Members() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Members()
}

// probeAll health-checks every peer once.
func (n *Node) probeAll() {
	for _, p := range n.cfg.Peers {
		if p == n.cfg.Self {
			continue
		}
		select {
		case <-n.stop:
			return
		default:
		}
		n.probes.Add(1)
		if err := n.ping(p); err != nil {
			n.reportPeerFailure(p)
		} else {
			n.reportPeerSuccess(p)
		}
	}
}

// reportPeerFailure counts one failed interaction with peer (probe or
// forward) and ejects it at the threshold. Self is never ejected.
func (n *Node) reportPeerFailure(peer string) {
	if peer == n.cfg.Self {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, known := n.live[peer]; !known {
		return
	}
	n.fails[peer]++
	if n.live[peer] && n.fails[peer] >= n.cfg.FailThreshold {
		n.live[peer] = false
		n.ejections.Add(1)
		n.rebuildRingLocked()
	}
}

// reportPeerSuccess resets the failure count and readmits an ejected
// peer.
func (n *Node) reportPeerSuccess(peer string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, known := n.live[peer]; !known {
		return
	}
	n.fails[peer] = 0
	if !n.live[peer] {
		n.live[peer] = true
		n.readmissions.Add(1)
		n.rebuildRingLocked()
	}
}

// rebuildRingLocked recomputes the ring from the live set. Caller
// holds n.mu. The live set always includes self, so the ring is never
// empty and a fully partitioned node degrades to serving everything
// locally.
func (n *Node) rebuildRingLocked() {
	members := make([]string, 0, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		if n.live[p] || p == n.cfg.Self {
			members = append(members, p)
		}
	}
	n.ring = NewRing(members, n.cfg.VNodes)
	n.rebalances.Add(1)
}

// Stats snapshots the node's counters and membership.
func (n *Node) Stats() Stats {
	st := Stats{
		Self:             n.cfg.Self,
		Rebalances:       n.rebalances.Load(),
		OwnedServed:      n.owned.Load(),
		ReplicaServed:    n.replica.Load(),
		ForwardFallbacks: n.fallbacks.Load(),
		ForwardedOut:     n.forwarded.Load(),
		ForwardRetries:   n.fwdRetries.Load(),
		ForwardErrors:    n.fwdErrors.Load(),
		PeerReceived:     n.received.Load(),
		PrewarmTransfers: n.transfers.Load(),
		Probes:           n.probes.Load(),
		Ejections:        n.ejections.Load(),
		Readmissions:     n.readmissions.Load(),
	}
	n.mu.Lock()
	peers := append([]string(nil), n.cfg.Peers...)
	sort.Strings(peers)
	for _, p := range peers {
		st.Members = append(st.Members, MemberStat{
			Peer:  p,
			Self:  p == n.cfg.Self,
			Live:  n.live[p] || p == n.cfg.Self,
			Fails: n.fails[p],
		})
	}
	n.mu.Unlock()
	st.HotKeys = n.hot.hotCount()
	return st
}

// hotTracker estimates per-key request rates with one-second buckets:
// each key keeps a count for the current window and the previous
// window's finished rate. A key is "hot" when either window's rate
// reaches the threshold, so replication both engages mid-window under
// a burst and survives the bucket boundary. Tracking is bounded: at
// most maxTrackedKeys keys are tracked, and stale entries are swept
// when the map is full — an untracked key simply keeps forwarding,
// which is the correct degradation.
type hotTracker struct {
	qps float64

	mu   sync.Mutex
	keys map[uint64]*hotKey
}

type hotKey struct {
	windowStart time.Time
	count       int
	prevRate    float64
}

const maxTrackedKeys = 4096

func newHotTracker(qps float64) *hotTracker {
	return &hotTracker{qps: qps, keys: make(map[uint64]*hotKey)}
}

// touch records one request for the key and reports whether the key is
// currently hot.
func (h *hotTracker) touch(point uint64) bool {
	if h.qps <= 0 {
		return false
	}
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	k := h.keys[point]
	if k == nil {
		if len(h.keys) >= maxTrackedKeys {
			h.sweepLocked(now)
			if len(h.keys) >= maxTrackedKeys {
				return false
			}
		}
		k = &hotKey{windowStart: now}
		h.keys[point] = k
	}
	*k = k.at(now)
	k.count++
	return h.hotAt(*k, now)
}

// at returns the key's windows as of now. Once the current window has
// run a full second it becomes the finished one: its rate is kept only
// if it just ended — after a gap the key plainly went cold — and a new,
// empty window starts at now.
func (k hotKey) at(now time.Time) hotKey {
	el := now.Sub(k.windowStart)
	if el < time.Second {
		return k
	}
	next := hotKey{windowStart: now}
	if el < 2*time.Second {
		next.prevRate = float64(k.count) / el.Seconds()
	}
	return next
}

// hotAt is the one "is this key hot at now" predicate, shared by touch
// and hotCount: either the finished window's rate reaches the
// threshold, or this window already holds enough requests to meet it
// even if the window ran its full second (mid-window engagement).
func (h *hotTracker) hotAt(k hotKey, now time.Time) bool {
	k = k.at(now)
	return k.prevRate >= h.qps || float64(k.count) >= h.qps
}

// sweepLocked drops keys idle for two windows.
func (h *hotTracker) sweepLocked(now time.Time) {
	for p, k := range h.keys {
		if now.Sub(k.windowStart) >= 2*time.Second {
			delete(h.keys, p)
		}
	}
}

// hotCount reports how many tracked keys are currently at or above
// the threshold.
func (h *hotTracker) hotCount() int {
	if h.qps <= 0 {
		return 0
	}
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	hot := 0
	for _, k := range h.keys {
		if h.hotAt(*k, now) {
			hot++
		}
	}
	return hot
}
