package pas

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"modelhub/internal/floatenc"
	"modelhub/internal/obs"
	"modelhub/internal/tensor"
)

// checkSnapshot retrieves one snapshot and compares it with the source
// matrices it was archived from: bit-identical at prefix 4, their byte-plane
// truncation below.
func checkSnapshot(t *testing.T, st *Store, snap SnapshotIn, prefix int, scheme Scheme) {
	t.Helper()
	got, err := st.GetSnapshot(snap.ID, prefix, scheme)
	if err != nil {
		t.Fatalf("%v: snapshot %s prefix %d: %v", scheme, snap.ID, prefix, err)
	}
	if len(got) != len(snap.Matrices) {
		t.Fatalf("%v: snapshot %s: got %d matrices, want %d", scheme, snap.ID, len(got), len(snap.Matrices))
	}
	for name, src := range snap.Matrices {
		want, err := segTrunc(src, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !got[name].Equal(want) {
			t.Fatalf("%v: snapshot %s matrix %s prefix %d differs from the source", scheme, snap.ID, name, prefix)
		}
	}
}

// checkoutAllExact asserts every snapshot matches its source under scheme,
// at every prefix.
func checkoutAllExact(t *testing.T, st *Store, snaps []SnapshotIn, scheme Scheme) {
	t.Helper()
	for prefix := floatenc.NumPlanes; prefix >= 1; prefix-- {
		for _, snap := range snaps {
			checkSnapshot(t, st, snap, prefix, scheme)
		}
	}
}

var allSchemes = []Scheme{Independent, Parallel, Reusable, Concurrent}

// toVersion1 rewrites the freshly created archive in dir as the Version-1
// layout Open still reads and migrates: one chunks/nNNNNNN.pP file per
// stored plane (remote/ for tier-1 nodes), a "version": 1 manifest, and no
// segments directory.
func toVersion1(t *testing.T, dir string) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"chunks", "remote"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := range st.man.Nodes {
		n := &st.man.Nodes[i]
		start, end := nodePlanes(n)
		for p := start; p < end; p++ {
			z, err := st.seg.read(n.PlaneSum[p])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(chunkPath(dir, n.ID, p, n.Tier), z, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, segmentsDir)); err != nil {
		t.Fatal(err)
	}
	man := st.man
	man.Version = 1
	if err := writeManifest(dir, &man); err != nil {
		t.Fatal(err)
	}
}

// dirState maps every file under dir to its size and modification time.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			state[path] = fmt.Sprint(info.Size(), info.ModTime().UnixNano())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// A Version-1 archive must migrate in place on Open: chunks repack into
// segments, the per-chunk files disappear, and every retrieval matches the
// source — on matrix-granular, plane-granular and remote-tier archives. A
// second Open must neither migrate again nor write anything.
func TestMigrateLegacyRoundTrip(t *testing.T) {
	snaps := makeSnaps(32, 3, 0)
	for label, opts := range map[string]Options{
		"matrix": {},
		"plane":  {PlaneGranularity: true},
		"remote": {Remote: &RemoteTier{StorageFactor: 0.3, RecreationFactor: 8}},
	} {
		dir := t.TempDir()
		if _, err := Create(dir, snaps, opts); err != nil {
			t.Fatal(err)
		}
		toVersion1(t, dir)
		obs.Enable() // counters are no-ops while metrics are disabled
		migrations := mSegmentMigrations.Value()

		st, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if mSegmentMigrations.Value() != migrations+1 {
			t.Fatalf("%s: migration counter did not advance", label)
		}
		for _, sub := range []string{"chunks", "remote"} {
			if _, err := os.Stat(filepath.Join(dir, sub)); !os.IsNotExist(err) {
				t.Fatalf("%s: legacy %s dir survived migration: %v", label, sub, err)
			}
		}
		segs, err := filepath.Glob(filepath.Join(dir, segmentsDir, "seg-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("%s: no segment files after migration: %v", label, err)
		}
		for _, scheme := range allSchemes {
			checkoutAllExact(t, st, snaps, scheme)
		}

		before := dirState(t, dir)
		st2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if mSegmentMigrations.Value() != migrations+1 {
			t.Fatalf("%s: second open migrated again", label)
		}
		if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: reopening a migrated archive wrote to it:\nbefore %v\nafter  %v", label, before, after)
		}
		checkoutAllExact(t, st2, snaps, Concurrent)
	}
}

// A chunk file lost before migration must not fail Open: its payload stays
// absent from the index, and the retrievals that need it report ErrStore.
func TestMigrateLegacyMissingChunk(t *testing.T) {
	snaps := makeSnaps(33, 3, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	toVersion1(t, dir)
	lost, err := filepath.Glob(filepath.Join(dir, "chunks", "*"))
	if err != nil || len(lost) == 0 {
		t.Fatalf("no legacy chunk files: %v", err)
	}
	// Every file carrying the lost payload goes: a dedup twin (another
	// node's plane with the same bytes) would let migration store it anyway.
	payload, err := os.ReadFile(lost[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range lost {
		if twin, err := os.ReadFile(path); err != nil {
			t.Fatal(err)
		} else if bytes.Equal(twin, payload) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open with a missing chunk file: %v", err)
	}
	failed := 0
	for _, snap := range snaps {
		if _, err := st.GetSnapshot(snap.ID, 4, Concurrent); err != nil {
			failed++
			if !errors.Is(err, ErrStore) {
				t.Fatalf("snapshot %s: error %v is not ErrStore", snap.ID, err)
			}
			continue
		}
		checkSnapshot(t, st, snap, 4, Independent)
	}
	if failed == 0 {
		t.Fatal("no retrieval noticed the missing chunk")
	}
}

// Chunk directories that outlive the manifest's flip to Version 2 — a crash
// between the migration commit and the unlink, or a re-archive over a
// Version-1 directory — are swept by the next Open.
func TestOpenSweepsLeftoverChunkDirs(t *testing.T) {
	snaps := makeSnaps(34, 2, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"chunks", "remote"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, "n000001.p0"), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Create(dir, snaps, Options{Algorithm: "mst"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"chunks", "remote"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); !os.IsNotExist(err) {
			t.Fatalf("leftover %s dir survived: %v", sub, err)
		}
	}
	checkoutAllExact(t, st, snaps, Concurrent)
}

// frozenSnaps builds snapshots where layer "emb" never changes — the
// frozen-layer pattern whose zero deltas the content-addressed index must
// deduplicate to a single stored payload.
func frozenSnaps(seed int64, n int) []SnapshotIn {
	rng := rand.New(rand.NewSource(seed))
	emb := tensor.RandNormal(rng, 24, 24, 0.1)
	head := tensor.RandNormal(rng, 8, 12, 0.1)
	var snaps []SnapshotIn
	for i := 0; i < n; i++ {
		head = head.Perturb(rng, 1e-3)
		snaps = append(snaps, SnapshotIn{
			ID: string(rune('a' + i)),
			Matrices: map[string]*tensor.Matrix{
				"emb":  emb.Clone(),
				"head": head,
			},
		})
	}
	return snaps
}

func TestSegmentDedupFrozenLayers(t *testing.T) {
	snaps := frozenSnaps(35, 5)
	dir := t.TempDir()
	st, err := Create(dir, snaps, Options{Algorithm: "mst"})
	if err != nil {
		t.Fatal(err)
	}
	storedPlanes := 0
	for i := range st.man.Nodes {
		start, end := nodePlanes(&st.man.Nodes[i])
		storedPlanes += end - start
	}
	if st.StoredChunks() >= storedPlanes {
		t.Fatalf("dedup stored %d payloads for %d planes", st.StoredChunks(), storedPlanes)
	}

	// Re-archiving identical content must add no payload bytes at all.
	before := st.SegmentDiskBytes()
	st2, err := Create(dir, snaps, Options{Algorithm: "mst"})
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.SegmentDiskBytes(); got != before {
		t.Fatalf("re-archive grew segments: %d -> %d bytes", before, got)
	}
	checkoutAllExact(t, st2, snaps, Concurrent)
}

// Re-archiving a subset leaves the displaced payloads as garbage; GC must
// reclaim them without disturbing live retrievals, and a second pass must be
// a no-op.
func TestCreateSegmentKeepsGarbageUntilGC(t *testing.T) {
	snaps := makeSnaps(36, 5, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Create(dir, snaps[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := st.SegmentStats()
	dead := 0
	for _, s := range stats {
		dead += s.DeadChunks
	}
	if dead == 0 {
		t.Fatal("re-archive left no garbage to collect")
	}
	before := st.SegmentDiskBytes()

	got, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if got.DroppedChunks == 0 || got.ReclaimedBytes <= 0 {
		t.Fatalf("GC reclaimed nothing: %+v", got)
	}
	if after := st.SegmentDiskBytes(); after >= before {
		t.Fatalf("GC did not shrink segments: %d -> %d", before, after)
	}
	checkoutAllExact(t, st, snaps[:2], Independent)
	checkoutAllExact(t, st, snaps[:2], Concurrent)

	again, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if again.Rewritten != 0 || again.ReclaimedBytes != 0 {
		t.Fatalf("second GC was not a no-op: %+v", again)
	}

	// A fresh open of the post-GC archive must agree.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkoutAllExact(t, st2, snaps[:2], Concurrent)
}

func TestRepackCoalescesSegments(t *testing.T) {
	snaps := makeSnaps(37, 4, 0)
	dir := t.TempDir()
	// Three appends → up to three segment files plus garbage.
	for _, end := range []int{2, 3, 4} {
		if _, err := Create(dir, snaps[:end], Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.SegmentStats()); n < 2 {
		t.Fatalf("expected multiple segments before repack, got %d", n)
	}
	stats, err := st.Repack()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 {
		t.Fatalf("repack left %d segments, want 1", stats.Segments)
	}
	checkoutAllExact(t, st, snaps, Concurrent)
	// No stray temp files from any of the passes.
	for _, pat := range []string{
		filepath.Join(dir, segTmpPrefix+"*"),
		filepath.Join(dir, segmentsDir, segTmpPrefix+"*"),
	} {
		if stray, _ := filepath.Glob(pat); len(stray) != 0 {
			t.Fatalf("temp files left behind: %v", stray)
		}
	}
}

// GC must not disturb concurrent readers of the same store (run under -race): live payloads stay readable through the index
// flip and victim unlink, via the reader's handle graveyard.
func TestGCConcurrentReaders(t *testing.T) {
	snaps := makeSnaps(38, 6, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, snaps[:3], Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	// Force disk reads on every retrieval so readers race the GC's file
	// swap rather than hitting the plane LRU.
	st.planes.lru.limit = 0

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < len(errs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				snap := snaps[i%3]
				got, err := st.GetSnapshot(snap.ID, 4, Concurrent)
				if err != nil {
					errs[w] = err
					return
				}
				for name, want := range snap.Matrices {
					if !got[name].Equal(want) {
						errs[w] = errors.New("mismatched matrix " + name + " in snapshot " + snap.ID)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	if _, err := st.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Repack(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A missing or corrupted segments/index.json rebuilds from the segment
// record headers on open — retrievals stay bit-exact either way.
func TestSegmentIndexRebuild(t *testing.T) {
	snaps := makeSnaps(40, 3, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, segmentsDir, segIndexName)
	if err := os.Remove(idxPath); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open without index: %v", err)
	}
	checkoutAllExact(t, st, snaps, Concurrent)

	if err := os.WriteFile(idxPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with corrupt index: %v", err)
	}
	checkoutAllExact(t, st2, snaps, Independent)
}

// A truncated segment file must surface as typed ErrStore at retrieval and
// poison the index-rebuild path with a typed error too.
func TestSegmentTruncationTypedErrors(t *testing.T) {
	snaps := makeSnaps(41, 3, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segmentsDir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sawError := false
	for _, snap := range snaps {
		if _, err := st.GetSnapshot(snap.ID, 4, Concurrent); err != nil {
			sawError = true
			if !errors.Is(err, ErrStore) {
				t.Fatalf("truncation error %v is not ErrStore", err)
			}
		}
	}
	if !sawError {
		t.Fatal("no retrieval noticed the truncated segment")
	}
	// With the index gone too, the rebuild scan must fail typed, not panic.
	if err := os.Remove(filepath.Join(dir, segmentsDir, segIndexName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrStore) {
		t.Fatalf("rebuild over truncated segment = %v, want ErrStore", err)
	}
}

// The GC gather pass verifies payloads before rewriting them: compacting a
// corrupted segment must fail typed instead of laundering bad bytes into a
// fresh segment.
func TestGCRefusesCorruptedSegment(t *testing.T) {
	snaps := makeSnaps(42, 4, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Create(dir, snaps[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segmentsDir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	// Corrupt every byte so whichever live payloads the gather pass reads,
	// it meets damaged data (a single flipped byte could land in a garbage
	// record GC never reads).
	for _, path := range segs {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blob {
			blob[i] ^= 0x01
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.GC(); !errors.Is(err, ErrStore) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("GC over corrupted segment = %v, want ErrStore checksum mismatch", err)
	}
}
