package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenMembers is the fixed fleet of the golden fixture. The URLs are
// opaque strings to the ring; realistic ones keep the fixture honest
// about what production keys look like.
var goldenMembers = []string{
	"http://node-a:8080",
	"http://node-b:8080",
	"http://node-c:8080",
}

const goldenVNodes = 16

// goldenFixture pins the key→owner map for a fixed member set. Any
// change to the hash, the vnode labeling, or the search direction
// shows up as a diff against testdata/ring_golden.json — and such a
// change is a rolling-upgrade break: a fleet of old and new binaries
// would route the same key to different owners.
type goldenFixture struct {
	Members []string          `json:"members"`
	VNodes  int               `json:"vnodes"`
	Owners  map[string]string `json:"owners"`
}

func computeGolden() goldenFixture {
	g := goldenFixture{
		Members: goldenMembers,
		VNodes:  goldenVNodes,
		Owners:  make(map[string]string),
	}
	r := NewRing(goldenMembers, goldenVNodes)
	for i := 0; i < 64; i++ {
		for _, mode := range []int{0, 1} {
			src := []byte(fmt.Sprintf("var script%d = %d;", i, i))
			g.Owners[fmt.Sprintf("script-%d@mode-%d", i, mode)] = r.Owner(pointForSource(src, mode))
		}
	}
	return g
}

func TestRingGolden(t *testing.T) {
	path := filepath.Join("testdata", "ring_golden.json")
	got := computeGolden()
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	var want goldenFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	if want.VNodes != got.VNodes || len(want.Owners) != len(got.Owners) {
		t.Fatalf("golden shape changed: vnodes %d->%d, keys %d->%d",
			want.VNodes, got.VNodes, len(want.Owners), len(got.Owners))
	}
	mismatch := 0
	for k, w := range want.Owners {
		if g := got.Owners[k]; g != w {
			mismatch++
			if mismatch <= 5 {
				t.Errorf("key %s: owner %s, golden says %s", k, g, w)
			}
		}
	}
	if mismatch > 5 {
		t.Errorf("... and %d more owner mismatches — the ring function changed", mismatch-5)
	}
}

// TestRingOrderInsensitive: the ring is a pure function of the member
// *set* — any permutation, with or without duplicates, routes every
// key identically. This is the no-coordinator contract: each fleet
// member builds its own ring from its own -peers string.
func TestRingOrderInsensitive(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	base := NewRing(members, 0)
	variants := [][]string{
		{"http://e:1", "http://d:1", "http://c:1", "http://b:1", "http://a:1"},
		{"http://c:1", "http://a:1", "http://e:1", "http://b:1", "http://d:1"},
		{"http://a:1", "http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1", "http://c:1"},
	}
	rng := rand.New(rand.NewSource(1))
	for vi, v := range variants {
		r := NewRing(v, 0)
		for i := 0; i < 2000; i++ {
			pt := rng.Uint64()
			if got, want := r.Owner(pt), base.Owner(pt); got != want {
				t.Fatalf("variant %d: point %#x owned by %s, base ring says %s", vi, pt, got, want)
			}
		}
	}
}

// pointForSource is KeyPoint over raw source bytes, the way the proxy
// keys a script.
func pointForSource(src []byte, mode int) uint64 {
	return KeyPoint(sha256.Sum256(src), mode)
}

// testPoints derives K deterministic key points the way production
// keys are derived: hash of source bytes.
func testPoints(k int) []uint64 {
	pts := make([]uint64, k)
	for i := range pts {
		pts[i] = pointForSource([]byte(fmt.Sprintf("key-%d", i)), 0)
	}
	return pts
}

// TestRingMinimalMovementLeave: removing one member moves exactly the
// keys that member owned — every other key keeps its owner — and the
// moved count is within slack of the fair share ⌈K/N⌉.
func TestRingMinimalMovementLeave(t *testing.T) {
	const K, N = 10000, 8
	members := make([]string, N)
	for i := range members {
		members[i] = fmt.Sprintf("http://n%d:8080", i)
	}
	leaver := members[3]
	before := NewRing(members, 0)
	after := NewRing(append(append([]string(nil), members[:3]...), members[4:]...), 0)

	moved := 0
	for _, pt := range testPoints(K) {
		was, is := before.Owner(pt), after.Owner(pt)
		if was == leaver {
			moved++
			if is == leaver {
				t.Fatalf("point %#x still owned by removed member", pt)
			}
			continue
		}
		if was != is {
			t.Fatalf("point %#x moved %s -> %s though neither is the leaver — not minimal", pt, was, is)
		}
	}
	fair := (K + N - 1) / N // ⌈K/N⌉ = 1250
	if moved == 0 {
		t.Fatal("leave moved zero keys — leaver owned nothing?")
	}
	// 64 vnodes keep per-member load within ~2x of fair share; a moved
	// count past that means vnode smoothing is broken.
	if moved > 2*fair {
		t.Errorf("leave moved %d of %d keys, want <= 2*⌈K/N⌉ = %d", moved, K, 2*fair)
	}
	t.Logf("leave moved %d keys (fair share %d)", moved, fair)
}

// TestRingMinimalMovementJoin: a joining member only *takes* keys —
// no key moves between two members that were both present before.
func TestRingMinimalMovementJoin(t *testing.T) {
	const K, N = 10000, 8
	members := make([]string, N)
	for i := range members {
		members[i] = fmt.Sprintf("http://n%d:8080", i)
	}
	joiner := "http://n8:8080"
	before := NewRing(members, 0)
	after := NewRing(append(append([]string(nil), members...), joiner), 0)

	moved := 0
	for _, pt := range testPoints(K) {
		was, is := before.Owner(pt), after.Owner(pt)
		if was == is {
			continue
		}
		moved++
		if is != joiner {
			t.Fatalf("point %#x moved %s -> %s, but only the joiner may take keys", pt, was, is)
		}
	}
	fair := (K + N) / (N + 1) // ⌈K/(N+1)⌉ = 1112
	if moved == 0 {
		t.Fatal("join moved zero keys — joiner owns nothing?")
	}
	if moved > 2*fair {
		t.Errorf("join moved %d of %d keys, want <= 2*⌈K/(N+1)⌉ = %d", moved, K, 2*fair)
	}
	t.Logf("join moved %d keys (fair share %d)", moved, fair)
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(nil, 0).Owner(42); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
	solo := NewRing([]string{"http://only:1"}, 0)
	for _, pt := range testPoints(100) {
		if got := solo.Owner(pt); got != "http://only:1" {
			t.Fatalf("single-member ring routed %#x to %q", pt, got)
		}
	}
}

// TestKeyPointModeSeparation: the same source under different
// instrumentation modes is a different key — mode is part of cache
// identity, so it must be part of routing identity.
func TestKeyPointModeSeparation(t *testing.T) {
	src := []byte("var x = 1;")
	if pointForSource(src, 0) == pointForSource(src, 1) {
		t.Error("mode 0 and mode 1 map to the same ring point")
	}
	if pointForSource(src, 0) != pointForSource(src, 0) {
		t.Error("KeyPoint is not deterministic")
	}
}
