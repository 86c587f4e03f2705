package pas

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// extendFixture archives the first `archived` snapshots of makeSnaps(seed, n)
// with Create into a fresh directory and returns the directory, the open
// store and all n snapshots.
func extendFixture(t *testing.T, seed int64, n, archived int, opts Options) (string, *Store, []SnapshotIn) {
	t.Helper()
	snaps := makeSnaps(seed, n, 0)
	dir := t.TempDir()
	st, err := Create(dir, snaps[:archived], opts)
	if err != nil {
		t.Fatal(err)
	}
	return dir, st, snaps
}

// An extension leaves the stored plan as it is: every archived node and
// snapshot entry is kept, new node ids continue after the largest old one,
// the costs add up, and the new snapshots are planned against their budgets
// with the archived matrices they pair with pinned — here the default pair
// from the archive's last snapshot, and an extra pair from an older one.
// Every snapshot, old and new, comes back exact at every prefix.
func TestExtendKeepsTheStoredPlan(t *testing.T) {
	for _, opts := range []Options{
		{Algorithm: "pas-mt", Alpha: 1.6},
		{Algorithm: "mst", PlaneGranularity: true},
	} {
		_, st, snaps := extendFixture(t, 70, 6, 3, opts)
		old := st.man
		extOpts := opts
		extOpts.ExtraPairs = [][2]MatrixRef{{{Snapshot: "a", Name: "ip1"}, {Snapshot: "f", Name: "ip1"}}}
		ext, err := st.Extend(snaps[3:], extOpts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		man := ext.man
		if !reflect.DeepEqual(man.Nodes[:len(old.Nodes)], old.Nodes) || !reflect.DeepEqual(man.Snapshots[:3], old.Snapshots) {
			t.Fatalf("%+v: the extension changed archived entries", opts)
		}
		for i, n := range man.Nodes[len(old.Nodes):] {
			if n.ID != len(old.Nodes)+i+1 {
				t.Fatalf("%+v: new node %d has id %d", opts, i, n.ID)
			}
		}
		// Every edge stores the bytes of the planes its node covers, so a plan
		// over local chunks costs exactly the bytes its manifest records.
		var bytes float64
		fromArchive := 0
		for _, n := range man.Nodes {
			for _, b := range n.PlaneBytes {
				bytes += float64(b)
			}
			if n.ID > len(old.Nodes) && n.Parent != 0 && n.Parent <= len(old.Nodes) {
				fromArchive++
			}
		}
		if man.StorageCost != bytes || man.StorageCost <= old.StorageCost || man.MSTCost <= old.MSTCost || man.SPTCost <= old.SPTCost {
			t.Fatalf("%+v: costs %v / %v / %v after %v / %v / %v; %v plane bytes",
				opts, man.StorageCost, man.MSTCost, man.SPTCost, old.StorageCost, old.MSTCost, old.SPTCost, bytes)
		}
		if fromArchive == 0 {
			t.Fatalf("%+v: no new node is a delta from an archived one", opts)
		}
		info := ext.Info()
		if info.Alpha != opts.Alpha || info.PlaneGranularity != opts.PlaneGranularity || !info.Feasible {
			t.Fatalf("%+v: extended archive reports %+v", opts, info)
		}
		for _, snap := range man.Snapshots[3:] {
			if snap.Budget > 0 && snap.Recreation > snap.Budget+1e-9 {
				t.Fatalf("%+v: snapshot %s recreates at %v over its budget %v", opts, snap.ID, snap.Recreation, snap.Budget)
			}
		}
		checkoutAllExact(t, ext, snaps, Concurrent)
		reopened, err := Open(ext.dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reopened.man, man) {
			t.Fatalf("%+v: the returned store is not what Open reads back", opts)
		}
		checkoutAllExact(t, reopened, snaps, Independent)
	}
}

// The bytes Extend writes are a function of its input alone: equal at every
// worker count, like Create's. The segment files are pinned (segSum,
// segBytes) as the writer with a zlib coder per plane class writes them
// (they were 16,910 and 15,548 B under level 6 for every plane); the whole
// archive is compared with the serial run.
func TestExtendBytesAreWorkerInvariant(t *testing.T) {
	for _, fx := range []struct {
		opts     Options
		segSum   string
		segBytes int
	}{
		{Options{Algorithm: "pas-mt", Alpha: 1.6},
			"5859176180c0c4a3c2d24de577380cda07589a41e74651666fc1e07ec3e43bcf", 17352},
		{Options{Algorithm: "pas-mt", Alpha: 1.6, PlaneGranularity: true},
			"f34fb71d19af51abcb410c5a042df9ed81769d25395a66fd3209e1adaddd9780", 15469},
	} {
		opts := fx.opts
		extOpts := opts
		extOpts.ExtraPairs = [][2]MatrixRef{{{Snapshot: "b", Name: "conv1"}, {Snapshot: "e", Name: "conv1"}}}
		var want string
		for _, procs := range []int{1, 2, 4, 8} {
			dir, st, snaps := extendFixture(t, 71, 6, 3, opts)
			prev := runtime.GOMAXPROCS(procs)
			ext, err := st.Extend(snaps[3:], extOpts)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%+v at GOMAXPROCS=%d: %v", opts, procs, err)
			}
			checkoutAllExact(t, ext, snaps, Concurrent)
			if err := ext.Close(); err != nil {
				t.Fatal(err)
			}
			if got, size := segmentDigest(t, dir); got != fx.segSum || size != fx.segBytes {
				t.Errorf("%+v at GOMAXPROCS=%d: segments digest %s, %d bytes; want %s, %d bytes",
					opts, procs, got, size, fx.segSum, fx.segBytes)
			}
			got, _ := archiveDigest(t, dir)
			if procs == 1 {
				want = got
			} else if got != want {
				t.Errorf("%+v at GOMAXPROCS=%d: extended archive digest %s, serially %s", opts, procs, got, want)
			}
		}
	}
}

// A build that priced a remote tier recorded "tier":1 on each node it placed
// there, in a version-3 manifest, yet wrote that node's chunks into the local
// segments like any other. Such a manifest still opens: every snapshot reads
// back bit-identical, and Extend extends it.
func TestOpenManifestWithTier(t *testing.T) {
	opts := Options{Algorithm: "pas-mt", Alpha: 1.6}
	dir, st, snaps := extendFixture(t, 74, 6, 3, opts)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	blob := mutatedAs(t, 0, storedManifest(t, dir), func(*manifest) {})
	node := []byte(`{"id":2,`)
	if n := bytes.Count(blob, node); n != 1 {
		t.Fatalf("manifest holds %d nodes with id 2, want 1", n)
	}
	if err := os.WriteFile(path, bytes.Replace(blob, node, []byte(`{"id":2,"tier":1,`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkoutAllExact(t, old, snaps[:3], Concurrent)
	ext, err := old.Extend(snaps[3:], opts)
	if err != nil {
		t.Fatal(err)
	}
	checkoutAllExact(t, ext, snaps, Concurrent)
	if err := ext.Close(); err != nil {
		t.Fatal(err)
	}
}

// Extend refuses, with ErrStore and without writing anything, what it cannot
// extend without re-planning the archive or losing track of a matrix.
func TestExtendRejects(t *testing.T) {
	for _, tc := range []struct {
		name       string
		create     Options
		extend     Options
		extendSnap func(snaps []SnapshotIn) []SnapshotIn
	}{
		{name: "plane-granular archive, matrix extension",
			create: Options{PlaneGranularity: true}},
		{name: "matrix archive, plane-granular extension",
			extend: Options{PlaneGranularity: true}},
		{name: "snapshot already archived",
			extendSnap: func(snaps []SnapshotIn) []SnapshotIn { return append(snaps[3:], snaps[2]) }},
		{name: "snapshot repeated",
			extendSnap: func(snaps []SnapshotIn) []SnapshotIn { return append(snaps[3:], snaps[4]) }},
		{name: "pair names an unknown matrix",
			extend: Options{ExtraPairs: [][2]MatrixRef{{{Snapshot: "a", Name: "fc9"}, {Snapshot: "e", Name: "ip1"}}}}},
		{name: "pair joins two archived matrices",
			extend: Options{ExtraPairs: [][2]MatrixRef{{{Snapshot: "a", Name: "ip1"}, {Snapshot: "b", Name: "ip1"}}}}},
	} {
		dir, st, snaps := extendFixture(t, 72, 6, 3, tc.create)
		add := snaps[3:]
		if tc.extendSnap != nil {
			add = tc.extendSnap(snaps)
		}
		before := dirState(t, dir)
		if _, err := st.Extend(add, tc.extend); !errors.Is(err, ErrStore) {
			t.Errorf("%s: Extend = %v, want ErrStore", tc.name, err)
		}
		if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: a refused extension wrote to the archive", tc.name)
		}
	}
}

// The manifest records the α a plan was made with; α ≤ 0 and NaN mean the
// per-snapshot budgets and are recorded as 0.
func TestManifestRecordsAlpha(t *testing.T) {
	for _, tc := range []struct{ alpha, want float64 }{{1.6, 1.6}, {0, 0}, {-2, 0}, {math.NaN(), 0}} {
		st := createStore(t, makeSnaps(73, 2, 0), Options{Alpha: tc.alpha})
		if got := st.Info().Alpha; got != tc.want {
			t.Errorf("Create with α %v records %v, want %v", tc.alpha, got, tc.want)
		}
	}
}
