package pas

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"modelhub/internal/floatenc"
	"modelhub/internal/tensor"
)

// Regression for the plane-cache poisoning bug: plane sets cached during a
// prefix-2 retrieval have zero-filled low planes, and keying the cache by
// node id alone let them satisfy later full-precision lookups. Alternating
// prefixes on one store must keep matching the source under every scheme —
// on matrix-granular, plane-granular and remote-tier archives.
func TestSchemesMatchSourceAlternatingPrefixes(t *testing.T) {
	snaps := makeSnaps(22, 4, 0)
	stores := map[string]*Store{
		"matrix": createStore(t, snaps, Options{}),
		"plane":  createStore(t, snaps, Options{Algorithm: "pas-mt", Alpha: 1.6, PlaneGranularity: true}),
		"remote": createStore(t, snaps, Options{Algorithm: "pas-mt", Remote: &RemoteTier{StorageFactor: 0.3, RecreationFactor: 8}}),
	}
	for label, st := range stores {
		t.Run(label, func(t *testing.T) {
			for _, prefix := range []int{2, 4, 1, 3, 4, 2} {
				for _, snap := range snaps {
					for _, scheme := range allSchemes {
						checkSnapshot(t, st, snap, prefix, scheme)
					}
				}
			}
		})
	}
}

// Run with -race: goroutines mixing the Concurrent and Parallel schemes (and
// the interval entry point) on one store, with a cache small enough to evict
// throughout, must be data-race free and correct.
func TestStoreConcurrentAndParallelRace(t *testing.T) {
	snaps := makeSnaps(24, 4, 0)
	st := createStore(t, snaps, Options{})
	st.workers = 4
	st.planes.lru.limit = 1 << 16
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scheme := Concurrent
			if g%2 == 1 {
				scheme = Parallel
			}
			for it := 0; it < 4; it++ {
				snap := snaps[(g+it)%len(snaps)]
				prefix := 1 + (g+it)%4
				got, err := st.GetSnapshot(snap.ID, prefix, scheme)
				if err != nil {
					errs[g] = err
					return
				}
				if prefix == 4 {
					for name, want := range snap.Matrices {
						if !got[name].Equal(want) {
							errs[g] = fmt.Errorf("goroutine %d: %s/%s mismatch", g, snap.ID, name)
							return
						}
					}
				}
				ref := MatrixRef{Snapshot: snap.ID, Name: "ip1"}
				if _, _, err := st.GetIntervals(ref, prefix); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A thousand-checkpoint delta chain must resolve without deep recursion,
// under every scheme, at full and partial precision.
func TestStoreDeepChainIterative(t *testing.T) {
	const n = 1200
	rng := rand.New(rand.NewSource(25))
	cur := tensor.RandNormal(rng, 2, 3, 0.1)
	snaps := make([]SnapshotIn, 0, n)
	for i := 0; i < n; i++ {
		cur = cur.Perturb(rng, 1e-3)
		snaps = append(snaps, SnapshotIn{
			ID:       fmt.Sprintf("s%04d", i),
			Matrices: map[string]*tensor.Matrix{"w": cur},
		})
	}
	st := createStore(t, snaps, Options{Algorithm: "mst"})
	last := snaps[n-1]
	for _, scheme := range allSchemes {
		got, err := st.GetSnapshot(last.ID, 4, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !got["w"].Equal(last.Matrices["w"]) {
			t.Fatalf("%v: deep-chain retrieval mismatch", scheme)
		}
	}
	got, err := st.GetMatrix(MatrixRef{Snapshot: last.ID, Name: "w"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := segTrunc(last.Matrices["w"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("deep-chain partial retrieval mismatch")
	}
}

// A manifest whose parent pointers form a cycle must yield ErrCycle (which
// also matches ErrStore) instead of hanging or overflowing.
func TestStoreManifestCycleDetected(t *testing.T) {
	snaps := makeSnaps(26, 3, 0)
	st := createStore(t, snaps, Options{})
	// Find a delta node and point its parent's parent back at it.
	var child, parent *manifestNode
	for i := range st.man.Nodes {
		if st.man.Nodes[i].Parent != 0 {
			child = &st.man.Nodes[i]
			p, err := st.node(child.Parent)
			if err != nil {
				t.Fatal(err)
			}
			parent = p
			break
		}
	}
	if child == nil {
		t.Fatal("fixture has no delta chains")
	}
	parent.Parent = child.ID

	for _, scheme := range allSchemes {
		_, err := st.resolveChain(st.engineFor(scheme), child.ID, 4)
		if !errors.Is(err, ErrCycle) {
			t.Fatalf("%v: want ErrCycle, got %v", scheme, err)
		}
		if !errors.Is(err, ErrStore) {
			t.Fatalf("%v: ErrCycle should wrap ErrStore, got %v", scheme, err)
		}
	}
}

// The engine's plane LRU must respect its byte bound, evict in LRU order,
// and cache nothing at limit 0.
func TestPlaneLRUBound(t *testing.T) {
	var c planeLRU
	c.limit = 100
	mk := func(n int) *[4][]byte {
		var p [4][]byte
		p[0] = make([]byte, n)
		return &p
	}
	c.add(planeKey{1, 4}, mk(40))
	c.add(planeKey{2, 4}, mk(40))
	if _, ok := c.get(planeKey{1, 4}); !ok { // touch 1 so 2 is the LRU victim
		t.Fatal("entry 1 missing")
	}
	c.add(planeKey{3, 4}, mk(40)) // 120 bytes > 100: evicts key 2
	if _, ok := c.get(planeKey{2, 4}); ok {
		t.Fatal("least recently used entry should have been evicted")
	}
	if _, ok := c.get(planeKey{1, 4}); !ok {
		t.Fatal("recently used entry evicted out of order")
	}
	if c.size > c.limit {
		t.Fatalf("size %d exceeds limit %d", c.size, c.limit)
	}
	c.add(planeKey{4, 4}, mk(500)) // larger than the whole cache: rejected
	if _, ok := c.get(planeKey{4, 4}); ok {
		t.Fatal("oversized entry should not be cached")
	}
	var off planeLRU
	off.add(planeKey{5, 4}, mk(10))
	if _, ok := off.get(planeKey{5, 4}); ok || off.size != 0 {
		t.Fatal("zero-limit cache accepted an entry")
	}
}

// The store retains decoded planes only inside its LRU bound, whatever the
// scheme: Concurrent fills the store's cache up to the limit, Reusable's
// cache dies with the call, Independent and Parallel keep nothing.
func TestStorePlaneCacheBounded(t *testing.T) {
	snaps := makeSnaps(27, 5, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{4 << 10, 0} {
		for _, scheme := range allSchemes {
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			st.planes.lru.limit = limit
			checkoutAllExact(t, st, snaps, scheme)
			size, entries := st.planes.lru.size, st.planes.lru.ll.Len()
			if size > limit {
				t.Fatalf("%v: store retains %d plane bytes, bound is %d", scheme, size, limit)
			}
			if wantEntries := scheme == Concurrent && limit > 0; (entries > 0) != wantEntries {
				t.Fatalf("%v at limit %d: store retains %d plane sets", scheme, limit, entries)
			}
			if len(st.planes.flights) != 0 {
				t.Fatalf("%v: %d flights outlived their retrievals", scheme, len(st.planes.flights))
			}
		}
	}
}

// ExplicitZero lets callers request actual zero for options whose zero value
// means "use the default".
func TestOptionsExplicitZero(t *testing.T) {
	if got := (Options{}).withDefaults().ZlibLevel; got != floatenc.DefaultZlibLevel {
		t.Fatalf("unset ZlibLevel: want default %d, got %d", floatenc.DefaultZlibLevel, got)
	}
	if got := (Options{ZlibLevel: ExplicitZero}).withDefaults().ZlibLevel; got != 0 {
		t.Fatalf("ExplicitZero ZlibLevel: want 0, got %d", got)
	}
	// Zlib level 0 (stored, uncompressed) must still round-trip exactly.
	snaps := makeSnaps(28, 3, 0)
	st := createStore(t, snaps, Options{ZlibLevel: ExplicitZero})
	got, err := st.GetSnapshot("c", 4, Concurrent)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range snaps[2].Matrices {
		if !got[name].Equal(want) {
			t.Fatalf("uncompressed store: matrix %s mismatch", name)
		}
	}
}

// ParseScheme round-trips every scheme name and rejects unknowns.
func TestParseScheme(t *testing.T) {
	for _, s := range []Scheme{Independent, Parallel, Reusable, Concurrent} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("warp"); err == nil {
		t.Fatal("ParseScheme should reject unknown names")
	}
}
