package hub

import (
	"fmt"
	"testing"
)

func ringPeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("http://node-%d:8080", i)
	}
	return peers
}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	a, err := NewRing([]string{"http://a", "http://b", "http://c"})
	if err != nil {
		t.Fatal(err)
	}
	// Same peers in a different order, with duplicates and trailing slashes.
	b, err := NewRing([]string{"http://c/", "http://a", "http://b", "http://a"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("model-%d", i)
		oa, ob := a.Owners(key, 2), b.Owners(key, 2)
		if len(oa) != 2 || len(ob) != 2 || oa[0] != ob[0] || oa[1] != ob[1] {
			t.Fatalf("key %q: owners differ across equivalent rings: %v vs %v", key, oa, ob)
		}
	}
}

func TestRingEmptyPeersRejected(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty peer list must be rejected")
	}
	if _, err := NewRing([]string{"  ", ""}); err == nil {
		t.Fatal("blank peer list must be rejected")
	}
}

func TestRingOwnersDistinctAndClamped(t *testing.T) {
	r, err := NewRing(ringPeers(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k-%d", i)
		// Asking for more replicas than peers clamps to the peer count,
		// and every returned owner is distinct.
		owners := r.Owners(key, 10)
		if len(owners) != 3 {
			t.Fatalf("key %q: got %d owners, want 3", key, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate owner %s", key, o)
			}
			seen[o] = true
		}
		if !r.Owns(key, owners[0], 1) {
			t.Fatalf("key %q: primary owner %s not reported by Owns", key, owners[0])
		}
		if r.Owns(key, owners[2], 2) {
			t.Fatalf("key %q: third owner %s must not own at n=2", key, owners[2])
		}
	}
	if got := r.Owners("x", 0); got != nil {
		t.Fatalf("n=0 must return nil, got %v", got)
	}
}

func TestRingDistribution(t *testing.T) {
	const keys = 3000
	r, err := NewRing(ringPeers(5))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owners(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	// With 64 vnodes per peer the primary-owner share should land within a
	// loose band around the fair share of 20%.
	for peer, n := range counts {
		share := float64(n) / keys
		if share < 0.08 || share > 0.36 {
			t.Errorf("peer %s owns %.1f%% of keys; want roughly balanced", peer, share*100)
		}
	}
}

// TestRingRebalanceMovesFewKeys is the consistent-hashing contract: growing
// a 4-node ring to 5 nodes remaps only about 1/5 of the primary
// assignments, and every reassigned key lands on the new node — existing
// nodes never trade keys among themselves.
func TestRingRebalanceMovesFewKeys(t *testing.T) {
	const keys = 3000
	old, err := NewRing(ringPeers(4))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing(ringPeers(5))
	if err != nil {
		t.Fatal(err)
	}
	added := ringPeers(5)[4]
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := old.Owners(key, 1)[0], grown.Owners(key, 1)[0]
		if was == is {
			continue
		}
		moved++
		if is != added {
			t.Fatalf("key %q moved from %s to %s, not to the added node", key, was, is)
		}
	}
	share := float64(moved) / keys
	if share < 0.10 || share > 0.32 {
		t.Errorf("adding 1 of 5 nodes moved %.1f%% of keys; want near 20%%", share*100)
	}
}

// TestRingRemovalMovesOnlyOrphans is the inverse: removing a node remaps
// only the keys it owned.
func TestRingRemovalMovesOnlyOrphans(t *testing.T) {
	const keys = 2000
	full, err := NewRing(ringPeers(4))
	if err != nil {
		t.Fatal(err)
	}
	removed := ringPeers(4)[3]
	shrunk, err := NewRing(ringPeers(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := full.Owners(key, 1)[0], shrunk.Owners(key, 1)[0]
		if was != removed && was != is {
			t.Fatalf("key %q moved from surviving node %s to %s", key, was, is)
		}
	}
}
