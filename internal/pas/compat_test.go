package pas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testdata/v2 is a version-2 archive, its layout in segments/index.json,
// written by Create before the layout moved into the manifest:
// makeSnaps(100, 3, 0) under parentOpts. testdata/v2.digests holds, one line
// per snapshot and prefix, the snapshotDigest taken right after that Create.
var parentOpts = Options{Algorithm: "pas-mt", Alpha: 1.6, PlaneGranularity: true}

// parentArchive copies testdata/v2 into a fresh directory.
func parentArchive(t *testing.T) string {
	t.Helper()
	src, dir := filepath.Join("testdata", "v2"), t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, blob, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// snapshotDigest hashes one retrieved snapshot: each matrix's name, shape
// and float bits, in name order.
func snapshotDigest(t *testing.T, st *Store, id string, prefix int) string {
	t.Helper()
	got, err := st.GetSnapshot(id, prefix, Independent)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, name := range slices.Sorted(maps.Keys(got)) {
		m := got[name]
		fmt.Fprintf(h, "%s %d %d\n", name, m.Rows(), m.Cols())
		var b [4]byte
		for _, v := range m.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkParentDigests compares every snapshot of testdata/v2, at every
// prefix, with the digests recorded when it was written.
func checkParentDigests(t *testing.T, st *Store) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "v2.digests"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 3*4 {
		t.Fatalf("%d recorded digests, want 12", len(lines))
	}
	for _, line := range lines {
		var id, want string
		var prefix int
		if _, err := fmt.Sscan(line, &id, &prefix, &want); err != nil {
			t.Fatalf("digest line %q: %v", line, err)
		}
		if got := snapshotDigest(t, st, id, prefix); got != want {
			t.Errorf("snapshot %s at prefix %d: digest %s, recorded %s", id, prefix, got, want)
		}
	}
}

// checkOneMetadataFile asserts dir holds the version-3 manifest and segment
// files, nothing else.
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
	if v := storedManifest(t, dir).Version; v != manifestVersion {
		t.Errorf("manifest version %d, want %d", v, manifestVersion)
	}
}

// An archive written before the layout moved into the manifest still opens,
// read-only, to the snapshots it was written with. The first write in its
// directory — an extension, or a GC that moves nothing — stores version 3
// and removes the index. Without a readable index it is ErrStore.
func TestOpenParentArchive(t *testing.T) {
	dir := parentArchive(t)
	before := dirState(t, dir)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkParentDigests(t, st)
	if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("opening a version-2 archive wrote to it:\nbefore %v\nafter  %v", before, after)
	}
	snaps := makeSnaps(100, 4, 0)
	ext, err := st.Extend(snaps[3:], parentOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ext.GC(); err != nil {
		t.Fatal(err)
	}
	checkOneMetadataFile(t, dir)
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkParentDigests(t, reopened)
	checkoutAllExact(t, reopened, snaps, Concurrent)
	for _, s := range []*Store{st, ext, reopened} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	dir = parentArchive(t)
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats, err := st.GC(); err != nil || stats.Rewritten != 0 {
		t.Fatalf("GC of a clean version-2 archive = %+v, %v; want nothing rewritten", stats, err)
	}
	checkOneMetadataFile(t, dir)
	checkParentDigests(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	checkParentDigests(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for name, index := range map[string][]byte{
		"missing":       nil,
		"corrupt":       []byte("{not json"),
		"wrong version": []byte(`{"version":2}`),
		"chunks not located": []byte(`{"version":1,"next_seg":1,` +
			`"segments":[{"name":"seg-000000.seg","size":7975}],"chunks":{}}`),
	} {
		dir := parentArchive(t)
		path := filepath.Join(dir, segmentsDir, v2IndexName)
		if index == nil {
			err = os.Remove(path)
		} else {
			err = os.WriteFile(path, index, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrStore) {
			t.Errorf("index %s: Open = %v, want ErrStore", name, err)
		}
	}
}
