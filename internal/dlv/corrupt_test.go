package dlv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"modelhub/internal/pas"
)

// A damaged raw weights file must surface as a typed repository error on
// checkout and archive — not a panic, never silently short weights, and
// never an allocation sized by a length the file does not hold. The file
// arrives inside pulled repositories.
func TestWeightsTruncatedRawFile(t *testing.T) {
	r := initRepo(t)
	id, _, _ := commitToy(t, r, "toy", 21, 0)
	path := r.rawPath(id)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first record's header: snapshot label, layer name, rows, cols.
	label := binary.LittleEndian.Uint32(good[len(rawMagic):])
	nameAt := len(rawMagic) + 4 + int(label)
	shapeAt := nameAt + 4 + int(binary.LittleEndian.Uint32(good[nameAt:]))
	oversized := bytes.Clone(good)
	binary.LittleEndian.PutUint32(oversized[shapeAt:], 1<<30)
	binary.LittleEndian.PutUint32(oversized[shapeAt+4:], 1<<30)
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		{"truncated mid-body", good[:shapeAt+8+10], "more than"},
		{"truncated mid-header", good[:shapeAt+2], "truncated record"},
		{"oversized declared size", oversized, "more than"},
		{"bad magic", append([]byte("DLVRAW0\n"), good[len(rawMagic):]...), "bad magic"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, c.blob, 0o644); err != nil {
				t.Fatal(err)
			}
			var allocs runtime.MemStats
			runtime.ReadMemStats(&allocs)
			before := allocs.TotalAlloc
			_, err := r.Weights(id, LatestSnap, 4)
			runtime.ReadMemStats(&allocs)
			if !errors.Is(err, ErrRepo) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Weights = %v, want ErrRepo saying %q", err, c.want)
			}
			if grew := allocs.TotalAlloc - before; grew > uint64(len(good))+1<<20 {
				t.Fatalf("reading a %d-byte file allocated %d bytes", len(c.blob), grew)
			}
			if _, err := r.Archive(ArchiveOptions{}); !errors.Is(err, ErrRepo) {
				t.Fatalf("Archive = %v, want ErrRepo", err)
			}
		})
	}
}

// A version whose raw weights are still in the per-layer layout (one
// directory per snapshot, one file per layer) has no vNNNNNN.bin: checkout
// and archive fail with ErrRepo, and the directory stays as it was.
func TestWeightsRejectsPerLayerRawLayout(t *testing.T) {
	r := initRepo(t)
	id, res, _ := commitToy(t, r, "toy", 23, 0)
	if err := os.Remove(r.rawPath(id)); err != nil {
		t.Fatal(err)
	}
	layer := filepath.Join(r.Root(), dlvDir, weightsDir, fmt.Sprintf("v%06d", id), LatestSnap, "conv1.bin")
	if err := os.MkdirAll(filepath.Dir(layer), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(layer, res.Final["conv1"].Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, werr := r.Weights(id, LatestSnap, 4)
	_, aerr := r.Archive(ArchiveOptions{})
	for _, err := range []error{werr, aerr} {
		if !errors.Is(err, ErrRepo) {
			t.Fatalf("err = %v, want ErrRepo", err)
		}
	}
	if blob, err := os.ReadFile(layer); err != nil || !bytes.Equal(blob, res.Final["conv1"].Bytes()) {
		t.Fatalf("the per-layer file changed after a refused archive (%v)", err)
	}
}

// A corrupted archive chunk must surface as a typed store error through the
// full checkout path (Repo.Weights -> PAS retrieval).
func TestWeightsCorruptArchiveChunk(t *testing.T) {
	r := initRepo(t)
	id, _, _ := commitToy(t, r, "toy", 22, 0)
	if _, err := r.Archive(ArchiveOptions{Algorithm: "pas-mt", Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(r.Root(), ".dlv", "pas", "segments", "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("archive has no chunk payload files")
	}
	// Flip a bit in every byte of every payload file so the snapshot's
	// chain cannot avoid a corrupted chunk, whichever records it reads.
	for _, path := range files {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blob {
			blob[i] ^= 0x20
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen so neither the memoized store nor its plane caches mask the
	// corruption.
	r2, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Weights(id, LatestSnap, 4); !errors.Is(err, pas.ErrStore) {
		t.Fatalf("Weights on corrupted archive = %v, want pas.ErrStore", err)
	}
}
