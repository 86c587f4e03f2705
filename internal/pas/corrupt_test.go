package pas

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chunkFiles lists the segment files holding the archive's chunk payloads,
// sorted.
func chunkFiles(t *testing.T, dir string) []string {
	t.Helper()
	out, err := filepath.Glob(filepath.Join(dir, segmentsDir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("archive has no chunk payload files")
	}
	return out
}

// corruptEverySnapshot corrupts one chunk file via mutate, reopens the store
// (a fresh Store, so no plane cache hides the damage), and asserts every
// snapshot retrieval that touches the bad chunk fails with ErrStore under
// every retrieval scheme. At least one snapshot must be affected.
func corruptEverySnapshot(t *testing.T, mutate func(t *testing.T, path string)) {
	t.Helper()
	snaps := makeSnaps(7, 3, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	files := chunkFiles(t, dir)
	mutate(t, files[0])
	for _, scheme := range allSchemes {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, snap := range snaps {
			got, err := st.GetSnapshot(snap.ID, 4, scheme)
			if err == nil {
				// A snapshot whose chain avoids the corrupted chunk must
				// still decode exactly.
				for name, want := range snap.Matrices {
					if !got[name].Equal(want) {
						t.Fatalf("%v: snapshot %s matrix %s decoded wrong instead of failing", scheme, snap.ID, name)
					}
				}
				continue
			}
			failed++
			if !errors.Is(err, ErrStore) {
				t.Fatalf("%v: snapshot %s: error %v is not wrapped in ErrStore", scheme, snap.ID, err)
			}
		}
		if failed == 0 {
			t.Fatalf("%v: no snapshot retrieval noticed the corrupted chunk", scheme)
		}
	}
}

func TestGetSnapshotBitFlippedChunk(t *testing.T) {
	corruptEverySnapshot(t, func(t *testing.T, path string) {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The last byte is always chunk payload (a middle byte could land
		// in a segment record header, which reads do not traverse).
		blob[len(blob)-1] ^= 0x40
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGetSnapshotTruncatedChunk(t *testing.T) {
	corruptEverySnapshot(t, func(t *testing.T, path string) {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGetSnapshotMissingChunk(t *testing.T) {
	corruptEverySnapshot(t, func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	})
}

// A bit flip must surface as a checksum mismatch specifically — the sha256
// gate, not a zlib decode failure further down.
func TestBitFlipReportsChecksumMismatch(t *testing.T) {
	snaps := makeSnaps(9, 2, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	files := chunkFiles(t, dir)
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01
	if err := os.WriteFile(files[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sawMismatch := false
	for _, snap := range snaps {
		if _, err := st.GetSnapshot(snap.ID, 4, Independent); err != nil {
			if !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("snapshot %s: error %v does not name the checksum mismatch", snap.ID, err)
			}
			sawMismatch = true
		}
	}
	if !sawMismatch {
		t.Fatal("no retrieval reported the checksum mismatch")
	}
}
