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

// checkOneMetadataFile asserts dir holds the manifest and segment files,
// nothing else.
func checkOneMetadataFile(t *testing.T, dir string) {
	t.Helper()
	for path := range dirState(t, dir) {
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		if seg, _ := filepath.Match(filepath.Join(segmentsDir, "seg-*.seg"), rel); rel != manifestName && !seg {
			t.Errorf("archive holds %s besides its manifest and segments", rel)
		}
	}
}

// Opening an archive is a read: a second Open of a matrix-granular or
// plane-granular archive writes nothing to its directory, and every
// retrieval still matches the source.
func TestOpenWritesNothing(t *testing.T) {
	snaps := makeSnaps(32, 3, 0)
	for label, opts := range map[string]Options{
		"matrix": {},
		"plane":  {PlaneGranularity: true},
	} {
		dir := t.TempDir()
		st, err := Create(dir, snaps, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, scheme := range allSchemes {
			checkoutAllExact(t, st, snaps, scheme)
		}
		before := dirState(t, dir)
		st2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: reopening an archive wrote to it:\nbefore %v\nafter  %v", label, before, after)
		}
		checkoutAllExact(t, st2, snaps, Concurrent)
	}
}

// Version 1 (one file per chunk) and version 2 (the layout in a second
// file, segments/index.json) have no writer; Open refuses both with a typed
// error that names the version, and deletes nothing.
func TestOpenRejectsVersion1(t *testing.T) {
	for _, v := range []int{1, 2} {
		dir, man := hostileArchive(t)
		blob := mutated(t, man, func(m *manifest) { m.Version = v })
		if err := os.WriteFile(filepath.Join(dir, manifestName), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirState(t, dir)
		_, err := Open(dir)
		if want := fmt.Sprintf("unsupported version %d", v); !errors.Is(err, ErrStore) || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open on a version-%d manifest = %v, want ErrStore saying %q", v, err, want)
		}
		if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("refusing version %d changed the archive:\nbefore %v\nafter  %v", v, before, after)
		}
	}
}

// testdata/v2 is a version-2 archive as Create wrote it before the layout
// moved into the manifest: makeSnaps(100, 3, 0) under pas-mt, alpha 1.6,
// plane granularity. Open refuses it with ErrStore and leaves every file,
// segments/index.json included, byte for byte as it was.
func TestOpenParentArchive(t *testing.T) {
	src, dir := filepath.Join("testdata", "v2"), t.TempDir()
	want := map[string][]byte{}
	for _, rel := range []string{manifestName, filepath.Join(segmentsDir, "index.json"), filepath.Join(segmentsDir, "seg-000000.seg")} {
		blob, err := os.ReadFile(filepath.Join(src, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		want[rel] = blob
	}
	_, err := Open(dir)
	if !errors.Is(err, ErrStore) || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("Open on the version-2 archive = %v, want ErrStore saying \"unsupported version 2\"", err)
	}
	if got := len(dirState(t, dir)); got != len(want) {
		t.Fatalf("the refused archive holds %d files, want %d", got, len(want))
	}
	for rel, blob := range want {
		if got, err := os.ReadFile(filepath.Join(dir, rel)); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("%s changed after a refused Open (%v)", rel, err)
		}
	}
}

// Open and a checkout leave temp files alone: one may belong to a write in
// flight in another process. The next write in the directory, an Extend or
// a GC, sweeps them from the archive and from segments/.
func TestTempFilesOutliveOpenUntilNextWrite(t *testing.T) {
	snaps := makeSnaps(41, 3, 0)
	for _, write := range []string{"extend", "gc"} {
		dir := t.TempDir()
		if _, err := Create(dir, snaps[:2], Options{}); err != nil {
			t.Fatal(err)
		}
		temps := []string{filepath.Join(dir, segTmpPrefix+"x"), filepath.Join(dir, segmentsDir, segTmpPrefix+"x")}
		for _, path := range temps {
			if err := os.WriteFile(path, []byte("in flight"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		checkoutAllExact(t, st, snaps[:2], Concurrent)
		for _, path := range temps {
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("%s: a temp file did not survive Open and a checkout: %v", write, err)
			}
		}
		if write == "extend" {
			var ext *Store
			if ext, err = st.Extend(snaps[2:], Options{}); err == nil {
				err = ext.Close()
			}
		} else {
			_, err = st.GC()
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range temps {
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s left %s behind (%v)", write, path, err)
			}
		}
		checkOneMetadataFile(t, dir)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Nothing shipped may produce the retired layout: no example, script or
// command, and no document, writes a chunks/ directory or a "version": 1
// manifest, or names the options that once selected them. CHANGES.md and
// ISSUE.md are exempt: they record removals by name.
func TestNoLegacyLayoutWriter(t *testing.T) {
	root := filepath.Join("..", "..")
	needles := []string{"chunks/", "n%06d.p%d", `"version": 1`, `"version":1`,
		"MODELHUB_PAS_LAYOUT", "LayoutLegacy", "KeepLegacy", "-layout"}
	shipped := map[string]bool{"examples": true, "scripts": true, "cmd": true}
	checked := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		top := strings.Split(filepath.ToSlash(rel), "/")[0]
		if !shipped[top] && filepath.Ext(rel) != ".md" {
			return nil
		}
		if rel == "CHANGES.md" || rel == "ISSUE.md" {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		for _, needle := range needles {
			if bytes.Contains(blob, []byte(needle)) {
				t.Errorf("%s mentions %q: the one-file-per-chunk layout must have no writer", rel, needle)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 10 {
		t.Fatalf("only %d files checked under %s: wrong root?", checked, root)
	}
}

// frozenSnaps builds snapshots where layer "emb" never changes — the
// frozen-layer pattern whose zero deltas the content-addressed store must
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

// Three archives into one directory and a repack leave segments and one
// manifest behind, nothing else.
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
	checkOneMetadataFile(t, dir)
}

// GC must not disturb concurrent readers of the same store (run under
// -race): live payloads stay readable through the layout swap and victim
// unlink, via the reader's handle graveyard.
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

// A truncated segment file must surface as typed ErrStore at retrieval.
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

// SegmentDiskBytes sums the on-disk sizes of the archive's segment files.
func (s *Store) SegmentDiskBytes() int64 {
	var total int64
	for _, sf := range s.seg.current().Segments {
		total += sf.Size
	}
	return total
}

// SegmentStat describes one segment file's occupancy for the GC tests.
type SegmentStat struct {
	Name       string
	Size       int64
	LiveBytes  int64 // payload bytes the manifest references
	LiveChunks int
	DeadChunks int
}

// SegmentStats reports per-segment occupancy.
func (s *Store) SegmentStats() []SegmentStat {
	lay := s.seg.current()
	live := s.liveSums()
	out := make([]SegmentStat, len(lay.Segments))
	for i, sf := range lay.Segments {
		out[i] = SegmentStat{Name: sf.Name, Size: sf.Size}
	}
	for sum, loc := range lay.Chunks {
		if live[sum] {
			out[loc.Seg].LiveBytes += loc.Len
			out[loc.Seg].LiveChunks++
		} else {
			out[loc.Seg].DeadChunks++
		}
	}
	return out
}
