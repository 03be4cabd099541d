// Chaos tests for the membership layer: nodes die abruptly with
// requests in flight, probes eject and readmit them, and through all
// of it two invariants must hold — every forwarded request completes
// or returns a retryable error within its timeout (never hangs), and
// every key has exactly one owner under every member set the fleet
// passes through. The peers here are stub HTTP servers, not real
// proxies (the proxy imports this package, so the full-stack kill and
// revive of a serving node is internal/proxy's
// TestClusterKillReviveMidStream); the stubs let the suite kill and
// revive listeners surgically.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/instrument"
	"repro/internal/sched"
)

// startStub serves h on a fresh loopback port and returns the base URL
// and a kill func that abruptly closes the listener *and* every
// in-flight connection — the crash, not the graceful shutdown.
func startStub(t *testing.T, h http.Handler) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	var once atomic.Bool
	kill := func() {
		if once.CompareAndSwap(false, true) {
			_ = srv.Close()
			<-done
		}
	}
	t.Cleanup(kill)
	return "http://" + ln.Addr().String(), kill
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const chaosSelf = "http://self.invalid"

func newTestNode(t *testing.T, peers []string, mut func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Self:           chaosSelf,
		Peers:          append([]string{chaosSelf}, peers...),
		ForwardTimeout: 2 * time.Second,
		ForwardRetries: -1,
	}
	if mut != nil {
		mut(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestForwardKillMidFlight is the headline chaos invariant: a peer
// dies abruptly with forwards in flight, and every one of them
// completes or returns a retryable error — none hang past the
// watchdog, none surface a terminal error for what is a transient
// fault.
func TestForwardKillMidFlight(t *testing.T) {
	inFlight := make(chan struct{}, 64)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PeerPingPath {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		src, _ := io.ReadAll(r.Body)
		inFlight <- struct{}{}
		time.Sleep(30 * time.Millisecond)
		w.Write(append([]byte("rewritten:"), src...))
	})
	url, kill := startStub(t, slow)
	n := newTestNode(t, []string{url}, nil)

	const flights = 16
	results := make(chan error, flights)
	for i := 0; i < flights; i++ {
		go func(i int) {
			src := []byte(fmt.Sprintf("var f%d = %d;", i, i))
			_, _, err := n.Forward(context.Background(), url, src, instrument.ModeLight, sched.ClassInteractive)
			results <- err
		}(i)
	}
	// Kill only once requests are demonstrably mid-handler, so the
	// crash severs live connections rather than refusing new ones.
	select {
	case <-inFlight:
	case <-time.After(5 * time.Second):
		t.Fatal("no forward reached the peer")
	}
	kill()

	watchdog := time.After(10 * time.Second)
	sawRetryable := false
	for i := 0; i < flights; i++ {
		select {
		case err := <-results:
			if err == nil {
				continue // completed before the crash: fine
			}
			if !Retryable(err) {
				t.Errorf("mid-flight kill surfaced terminal error: %v", err)
			} else {
				sawRetryable = true
			}
		case <-watchdog:
			t.Fatalf("forwarded request hung past watchdog (%d of %d returned)", i, flights)
		}
	}
	if !sawRetryable {
		t.Error("kill severed no request — the chaos did not bite; lower the sleep?")
	}
}

// TestEjectionReadmission drives the full membership cycle with the
// prober: peer healthy → peer failing → ejected after FailThreshold →
// sole-survivor routing → peer recovers → readmitted.
func TestEjectionReadmission(t *testing.T) {
	var down atomic.Bool
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "simulated crash", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	url, _ := startStub(t, flaky)
	n := newTestNode(t, []string{url}, func(c *Config) {
		c.ProbeInterval = 5 * time.Millisecond
		c.ProbeTimeout = 200 * time.Millisecond
		c.FailThreshold = 2
	})
	n.Start()

	if got := len(n.Members()); got != 2 {
		t.Fatalf("initial members = %d, want 2", got)
	}
	// Find a point the peer owns so we can watch it re-route.
	var peerPoint uint64
	for i := 0; ; i++ {
		pt := pointForSource([]byte(fmt.Sprintf("probe-%d", i)), 0)
		if owner, local := n.Route(pt); !local && owner == url {
			peerPoint = pt
			break
		}
	}

	down.Store(true)
	waitFor(t, "ejection", func() bool { return len(n.Members()) == 1 })
	if st := n.Stats(); st.Ejections < 1 {
		t.Errorf("Ejections = %d after ejection, want >= 1", st.Ejections)
	}
	if owner, local := n.Route(peerPoint); !local || owner != chaosSelf {
		t.Errorf("sole survivor routed %#x to %q local=%v, want local self", peerPoint, owner, local)
	}

	down.Store(false)
	waitFor(t, "readmission", func() bool { return len(n.Members()) == 2 })
	st := n.Stats()
	if st.Readmissions < 1 {
		t.Errorf("Readmissions = %d after recovery, want >= 1", st.Readmissions)
	}
	if st.Rebalances < 2 {
		t.Errorf("Rebalances = %d, want >= 2 (one per membership change)", st.Rebalances)
	}
	if owner, local := n.Route(peerPoint); local || owner != url {
		t.Errorf("after readmission point %#x owned by %q local=%v, want peer", peerPoint, owner, local)
	}
}

// TestForwardErrorClassification pins the retryable/terminal split of
// the peer protocol: 429 and 5xx retry, 422 is ErrRewriteFailed, other
// 4xx are terminal, and a dead port is retryable.
func TestForwardErrorClassification(t *testing.T) {
	var status atomic.Int64
	var calls atomic.Int64
	peer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		s := int(status.Load())
		if s == http.StatusOK {
			w.Write([]byte("ok"))
			return
		}
		http.Error(w, "peer says no", s)
	})
	url, kill := startStub(t, peer)

	fwd := func(n *Node) error {
		_, _, err := n.Forward(context.Background(), url, []byte("var x=1;"), instrument.ModeLight, sched.ClassInteractive)
		return err
	}

	n := newTestNode(t, []string{url}, nil) // zero retries
	status.Store(http.StatusUnprocessableEntity)
	if err := fwd(n); !errors.Is(err, ErrRewriteFailed) || Retryable(err) {
		t.Errorf("422 → %v, want terminal ErrRewriteFailed", err)
	}
	status.Store(http.StatusNotFound)
	if err := fwd(n); err == nil || Retryable(err) || errors.Is(err, ErrRewriteFailed) {
		t.Errorf("404 → %v, want terminal non-rewrite error", err)
	}
	status.Store(http.StatusTooManyRequests)
	if err := fwd(n); !Retryable(err) {
		t.Errorf("429 → %v, want retryable", err)
	}
	status.Store(http.StatusInternalServerError)
	if err := fwd(n); !Retryable(err) {
		t.Errorf("500 → %v, want retryable", err)
	}

	// Saturation that clears mid-retry: 429, 429, then 200 — the
	// default retry budget absorbs it.
	nr := newTestNode(t, []string{url}, func(c *Config) { c.ForwardRetries = 2 })
	status.Store(http.StatusTooManyRequests)
	calls.Store(0)
	go func() {
		for calls.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		status.Store(http.StatusOK)
	}()
	body, _, err := nr.Forward(context.Background(), url, []byte("var x=1;"), instrument.ModeLight, sched.ClassInteractive)
	if err != nil || string(body) != "ok" {
		t.Errorf("retry after saturation: body=%q err=%v, want ok", body, err)
	}
	if st := nr.Stats(); st.ForwardRetries < 1 {
		t.Errorf("ForwardRetries = %d, want >= 1", st.ForwardRetries)
	}

	// Dead port: connection refused is retryable, and exhausted
	// forwards count toward ejection without any probe running.
	kill()
	nd := newTestNode(t, []string{url}, func(c *Config) { c.FailThreshold = 2 })
	for i := 0; i < 2; i++ {
		if err := fwd(nd); !Retryable(err) {
			t.Errorf("dead peer → %v, want retryable", err)
		}
	}
	if got := len(nd.Members()); got != 1 {
		t.Errorf("members = %d after %d forward failures, want 1 (traffic-driven ejection)", got, 2)
	}
	if st := nd.Stats(); st.ForwardErrors != 2 {
		t.Errorf("ForwardErrors = %d, want 2", st.ForwardErrors)
	}
}

// TestBusyOwnerStaysMember: an owner that answers 429 is alive and
// shedding load. Forwards to it exhaust and stay retryable (the caller
// falls back), but no count of them ejects it or churns the ring.
func TestBusyOwnerStaysMember(t *testing.T) {
	url, _ := startStub(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "rewrite queue saturated", http.StatusTooManyRequests)
	}))
	n := newTestNode(t, []string{url}, func(c *Config) { c.FailThreshold = 2 })
	for i := 0; i < 3; i++ {
		if _, _, err := n.Forward(context.Background(), url, []byte("var x=1;"), instrument.ModeLight, sched.ClassBatch); !Retryable(err) {
			t.Fatalf("forward %d to a busy owner → %v, want retryable", i, err)
		}
	}
	if got := len(n.Members()); got != 2 {
		t.Errorf("members = %d after 3 busy answers, want 2 (a busy owner is not ejected)", got)
	}
	if st := n.Stats(); st.Ejections != 0 || st.Rebalances != 0 || st.ForwardErrors != 3 {
		t.Errorf("Ejections=%d Rebalances=%d ForwardErrors=%d, want 0/0/3", st.Ejections, st.Rebalances, st.ForwardErrors)
	}
}

// refusingTransport fails every request before it leaves the process:
// a peer that cannot be reached, with no socket and no name lookup.
type refusingTransport struct{}

func (refusingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("peer unreachable")
}

// TestRouteIsLiveRingOwner: Route is the live ring's owner and nothing
// else. Over 10k key points it names NewRing(Members()).Owner, local
// exactly when that owner is self; repeated calls on one key never
// change the answer (routing keeps no per-request state); and after a
// peer is ejected by forward failures the same holds on the
// survivors' ring.
func TestRouteIsLiveRingOwner(t *testing.T) {
	const peerB, peerC = "http://peer-b.invalid", "http://peer-c.invalid"
	n := newTestNode(t, []string{peerB, peerC}, func(c *Config) {
		c.FailThreshold = 2
		c.Client = &http.Client{Transport: refusingTransport{}}
	})
	points := testPoints(10000)
	check := func(phase string, want int) {
		t.Helper()
		members := n.Members()
		if len(members) != want {
			t.Fatalf("%s: members = %v, want %d", phase, members, want)
		}
		ring := NewRing(members, DefaultVNodes)
		for _, pt := range points {
			owner, local := n.Route(pt)
			if wantOwner := ring.Owner(pt); owner != wantOwner || local != (wantOwner == chaosSelf) {
				t.Fatalf("%s: Route(%#x) = (%q, %v), live ring owner %q", phase, pt, owner, local, wantOwner)
			}
		}
		owner0, local0 := n.Route(points[0])
		for i := 0; i < 100; i++ {
			if owner, local := n.Route(points[0]); owner != owner0 || local != local0 {
				t.Fatalf("%s: call %d Route(%#x) = (%q, %v), first call (%q, %v)", phase, i, points[0], owner, local, owner0, local0)
			}
		}
	}
	check("all live", 3)

	for i := 0; i < 2; i++ {
		if _, _, err := n.Forward(context.Background(), peerB, []byte("var x=1;"), instrument.ModeLight, sched.ClassInteractive); !Retryable(err) {
			t.Fatalf("forward %d to unreachable peer: %v, want retryable", i, err)
		}
	}
	if st := n.Stats(); st.Ejections != 1 {
		t.Fatalf("Ejections = %d after %d forward failures, want 1", st.Ejections, 2)
	}
	check("peer-b ejected", 2)
}

// TestRingInvariantUnderDeltas is the one-owner-per-key invariant over
// 10k keys across a sequence of membership deltas: after every join or
// leave, each key resolves to exactly one live member, the resolution
// is order-insensitive, and the only keys that changed hands are the
// ones a minimal-movement ring is allowed to move.
func TestRingInvariantUnderDeltas(t *testing.T) {
	points := testPoints(10000)
	members := map[string]bool{}
	for i := 0; i < 5; i++ {
		members[fmt.Sprintf("http://n%d:8080", i)] = true
	}
	setOf := func() []string {
		var s []string
		for m := range members {
			s = append(s, m)
		}
		return s
	}
	ring := NewRing(setOf(), 0)
	owners := make(map[uint64]string, len(points))
	for _, pt := range points {
		owners[pt] = ring.Owner(pt)
	}

	type delta struct {
		member string
		join   bool
	}
	deltas := []delta{
		{"http://n2:8080", false},
		{"http://n0:8080", false},
		{"http://n2:8080", true},
		{"http://n5:8080", true},
		{"http://n4:8080", false},
		{"http://n0:8080", true},
	}
	rng := rand.New(rand.NewSource(99))
	for step, d := range deltas {
		if d.join {
			members[d.member] = true
		} else {
			delete(members, d.member)
		}
		set := setOf()
		ring = NewRing(set, 0)
		// Same set in a shuffled order must be the same ring.
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		shuffled := NewRing(set, 0)

		for _, pt := range points {
			owner := ring.Owner(pt)
			if owner == "" || !members[owner] {
				t.Fatalf("step %d: point %#x owned by %q, not a live member", step, pt, owner)
			}
			if so := shuffled.Owner(pt); so != owner {
				t.Fatalf("step %d: point %#x owner differs by member order: %q vs %q", step, pt, owner, so)
			}
			prev := owners[pt]
			if d.join {
				if owner != prev && owner != d.member {
					t.Fatalf("step %d (join %s): point %#x moved %s -> %s, not to the joiner", step, d.member, pt, prev, owner)
				}
			} else {
				if prev != d.member && owner != prev {
					t.Fatalf("step %d (leave %s): point %#x moved %s -> %s though its owner stayed", step, d.member, pt, prev, owner)
				}
			}
			owners[pt] = owner
		}
	}
}
