package pas

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
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

// claimedArchive archives two snapshots and rewrites the stored manifest
// through claim.
func claimedArchive(t *testing.T, claim func(m *manifest)) (string, []SnapshotIn) {
	t.Helper()
	snaps := makeSnaps(110, 2, 0)
	dir := t.TempDir()
	st, err := Create(dir, snaps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), mutated(t, storedManifest(t, dir), claim), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, snaps
}

// claimChunk claims length bytes for chunk c and grows its segment's
// claimed size to hold them.
func claimChunk(m *manifest, c int, length int64) {
	m.Chunks[c].Len = length
	sf := &m.Segments[m.Chunks[c].Seg]
	sf.Size = max(sf.Size, m.Chunks[c].Off+length)
}

// retrieveFailsSmall opens dir and retrieves snapshot id, which must fail
// with ErrStore having allocated under 1 MiB on the way.
func retrieveFailsSmall(t *testing.T, dir, id string) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st, err := Open(dir)
	if err == nil {
		defer st.Close()
		_, err = st.GetSnapshot(id, 4, Independent)
	}
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrStore) {
		t.Fatalf("retrieval = %v, want ErrStore", err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("failing the retrieval allocated %d bytes", grew)
	}
}

// A chunk length the manifest claims sizes no buffer: the claim is
// consistent with the segment size the manifest also claims, but the file
// holds a few KB, so the read fails before allocating the 64 MiB.
func TestClaimedChunkLengthAllocatesNothing(t *testing.T) {
	dir, snaps := claimedArchive(t, func(m *manifest) { claimChunk(m, m.Nodes[0].Chunks[0], 64<<20) })
	retrieveFailsSmall(t, dir, snaps[0].ID)
}

// Nor does a claimed shape: a 64 Mi-element node whose chunks claim 64 KiB
// each passes Open's inflate bound, and retrieval fails before it sizes a
// plane, because no chunk of that size is there to vouch for the shape.
func TestClaimedShapeAllocatesNothing(t *testing.T) {
	dir, snaps := claimedArchive(t, func(m *manifest) {
		n := &m.Nodes[0]
		n.Rows, n.Cols = 8<<10, 8<<10
		for _, c := range n.Chunks {
			claimChunk(m, c, 64<<10)
		}
	})
	retrieveFailsSmall(t, dir, snaps[0].ID)
}
