package pas

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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
		blob := mutatedAs(t, 0, man, func(m *manifest) { m.Version = v })
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
// a Create, sweeps them from the archive and from segments/.
func TestTempFilesOutliveOpenUntilNextWrite(t *testing.T) {
	snaps := makeSnaps(41, 3, 0)
	for _, write := range []string{"extend", "create"} {
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
			var re *Store
			if re, err = Create(dir, snaps, Options{}); err == nil {
				err = re.Close()
			}
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

// segmentNames lists the segment files in dir's segments/, in name order.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(segPath(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range paths {
		paths[i] = filepath.Base(path)
	}
	return paths
}

// checkHoldsOnlyNamed asserts that segments/ holds exactly the segment files
// the manifest on disk names, and the archive nothing else.
func checkHoldsOnlyNamed(t *testing.T, dir string) {
	t.Helper()
	var named []string
	for _, sf := range storedManifest(t, dir).Segments {
		named = append(named, sf.Name)
	}
	slices.Sort(named)
	if got := segmentNames(t, dir); !slices.Equal(got, named) {
		t.Fatalf("segments/ holds %v, the manifest names %v", got, named)
	}
	checkOneMetadataFile(t, dir)
}

// A crash leaves a readable archive, and the next write removes what it
// left. The rows are a write that crashed before its manifest, leaving a
// sealed segment and temp files, and a re-plan that crashed after its
// manifest but before it unlinked the old plan's segments. Open reads every
// snapshot bit-identically and writes nothing; after the next Create or
// Extend, segments/ holds exactly the files the manifest names, and every
// new segment is numbered past each name that was on disk.
func TestWriteAfterCrashLeavesOnlyNamedSegments(t *testing.T) {
	snaps := makeSnaps(43, 5, 0)
	crashes := []struct {
		name  string
		crash func(t *testing.T, dir string)
	}{
		{"before the manifest", func(t *testing.T, dir string) {
			for path, blob := range map[string][]byte{
				segPath(dir, "seg-000099.seg"):              append([]byte(segMagic), make([]byte, segRecordOverhead+16)...),
				segPath(dir, segTmpPrefix+"seg"):            []byte("half a segment"),
				filepath.Join(dir, segTmpPrefix+"manifest"): []byte("half a manifest"),
			} {
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"after the manifest", func(t *testing.T, dir string) {
			old := map[string][]byte{}
			for _, name := range segmentNames(t, dir) {
				blob, err := os.ReadFile(segPath(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				old[name] = blob
			}
			st, err := Create(dir, snaps[:3], Options{Algorithm: "spt"})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			for name, blob := range old {
				if _, err := os.Stat(segPath(dir, name)); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("the re-plan kept the old plan's %s (%v)", name, err)
				}
				if err := os.WriteFile(segPath(dir, name), blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	writes := []struct {
		name  string
		write func(dir string, st *Store) (*Store, error)
	}{
		{"create", func(dir string, _ *Store) (*Store, error) { return Create(dir, snaps, Options{Algorithm: "mst"}) }},
		{"extend", func(_ string, st *Store) (*Store, error) { return st.Extend(snaps[3:], Options{}) }},
	}
	for _, c := range crashes {
		for _, w := range writes {
			dir := t.TempDir()
			base, err := Create(dir, snaps[:3], Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := base.Close(); err != nil {
				t.Fatal(err)
			}
			c.crash(t, dir)
			before := dirState(t, dir)
			st, err := Open(dir)
			if err != nil {
				t.Fatalf("crash %s: %v", c.name, err)
			}
			checkoutAllExact(t, st, snaps[:3], Concurrent)
			if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("crash %s: reading the archive wrote to it:\nbefore %v\nafter  %v", c.name, before, after)
			}
			onDisk := segmentNames(t, dir)
			last, _ := segNumber(onDisk[len(onDisk)-1])
			next, err := w.write(dir, st)
			if err != nil {
				t.Fatalf("crash %s, then %s: %v", c.name, w.name, err)
			}
			checkoutAllExact(t, next, snaps, Concurrent)
			checkHoldsOnlyNamed(t, dir)
			for _, sf := range storedManifest(t, dir).Segments {
				if n, _ := segNumber(sf.Name); n <= last && !slices.Contains(onDisk, sf.Name) {
					t.Fatalf("crash %s, then %s: new segment %s reuses a number up to %d", c.name, w.name, sf.Name, last)
				}
			}
			if err := errors.Join(st.Close(), next.Close()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Create over a directory whose manifest fails validation, in either
// encoding, is ErrStore and changes nothing there: not the manifest, not a
// segment, not a leftover the write would otherwise have swept.
func TestCreateOverInvalidManifestUnlinksNothing(t *testing.T) {
	snaps := makeSnaps(44, 3, 0)
	dir, man := hostileArchive(t)
	if err := os.WriteFile(segPath(dir, "seg-000099.seg"), []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	names, blobs := hostileBlobs(t, man)
	for i, blob := range blobs {
		if err := os.WriteFile(filepath.Join(dir, manifestName), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirState(t, dir)
		if _, err := Create(dir, snaps, Options{}); !errors.Is(err, ErrStore) {
			t.Fatalf("%s: Create = %v, want ErrStore", names[i], err)
		}
		if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: a refused Create changed the archive:\nbefore %v\nafter  %v", names[i], before, after)
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

// Three archives into one directory and a repack — a re-plan of every
// snapshot, which is a Create over the archive — leave one manifest and one
// freshly packed segment behind, nothing else.
func TestRepackCoalescesSegments(t *testing.T) {
	snaps := makeSnaps(37, 4, 0)
	dir := t.TempDir()
	st, err := Create(dir, snaps[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, end := range []int{3, 4} {
		if st, err = st.Extend(snaps[end-1:end], Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(segmentNames(t, dir)); n < 2 {
		t.Fatalf("expected multiple segments before repack, got %d", n)
	}
	if st, err = Create(dir, snaps, Options{Algorithm: "mst"}); err != nil {
		t.Fatal(err)
	}
	if n := len(segmentNames(t, dir)); n != 1 {
		t.Fatalf("repack left %d segments, want 1", n)
	}
	checkoutAllExact(t, st, snaps, Concurrent)
	checkHoldsOnlyNamed(t, dir)
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

// SegmentDiskBytes sums the on-disk sizes of the archive's segment files.
func (s *Store) SegmentDiskBytes() int64 {
	var total int64
	for _, sf := range s.seg.lay.Segments {
		total += sf.Size
	}
	return total
}
