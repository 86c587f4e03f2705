package pas

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"modelhub/internal/delta"
)

// hostileManifests are single-field corruptions of a valid manifest, each of
// which used to reach an index expression, an allocation or a map lookup
// unchecked. manifest.json arrives inside every pulled repository. The rows
// from "segment name" on check its layout: segments and the chunk table.
var hostileManifests = []struct {
	name   string
	mutate func(m *manifest)
}{
	{"version 0", func(m *manifest) { m.Version = 0 }},
	{"version 4", func(m *manifest) { m.Version = 4 }},
	{"delta op intsub", func(m *manifest) { m.DeltaOp = uint8(delta.IntSub) }},
	{"delta op unknown", func(m *manifest) { m.DeltaOp = 200 }},
	{"negative alpha", func(m *manifest) { m.Alpha = -0.5 }},
	{"negative plane start", func(m *manifest) { m.Nodes[0].PlaneStart = -1 }},
	{"plane end past 4", func(m *manifest) { m.Nodes[0].PlaneEnd = 9 }},
	{"empty plane range", func(m *manifest) { m.Nodes[0].PlaneStart, m.Nodes[0].PlaneEnd = 2, 2 }},
	{"plane start without end", func(m *manifest) { m.Nodes[0].PlaneStart, m.Nodes[0].PlaneEnd = 1, 0 }},
	{"negative rows", func(m *manifest) { m.Nodes[0].Rows = -4 }},
	{"negative cols", func(m *manifest) { m.Nodes[0].Cols = -1 }},
	{"shape overflows", func(m *manifest) { m.Nodes[0].Rows, m.Nodes[0].Cols = 1<<40, 1<<40 }},
	{"shape beyond any payload", func(m *manifest) { m.Nodes[0].Rows, m.Nodes[0].Cols = 1<<20, 1<<20 }},
	{"unknown parent", func(m *manifest) { m.Nodes[1].Parent = 9999 }},
	{"negative parent", func(m *manifest) { m.Nodes[1].Parent = -2 }},
	{"duplicate node id", func(m *manifest) { m.Nodes[1].ID = m.Nodes[0].ID }},
	{"node id 0", func(m *manifest) { m.Nodes[0].ID = 0 }},
	{"segment name", func(m *manifest) { m.Segments[0].Name = "../seg-000000.seg" }},
	{"segment smaller than its magic", func(m *manifest) { m.Segments[0].Size = int64(len(segMagic)) - 1 }},
	{"chunk digest not hex", func(m *manifest) { m.Chunks[0].Sum = strings.Repeat("zz", sha256.Size) }},
	{"chunk digest short", func(m *manifest) { m.Chunks[0].Sum = m.Chunks[0].Sum[:2*sha256.Size-2] }},
	{"duplicate chunk digest", func(m *manifest) { m.Chunks[1].Sum = m.Chunks[0].Sum }},
	{"chunk segment out of range", func(m *manifest) { m.Chunks[0].Seg = len(m.Segments) }},
	{"negative chunk segment", func(m *manifest) { m.Chunks[0].Seg = -1 }},
	{"chunk offset before its record header", func(m *manifest) { m.Chunks[0].Off = int64(len(segMagic)) }},
	{"chunk past its segment", func(m *manifest) { m.Chunks[0].Len = m.Segments[0].Size }},
	{"chunk length overflows", func(m *manifest) { m.Chunks[0].Len = math.MaxInt64 }},
	{"node chunk out of range", func(m *manifest) { m.Nodes[0].Chunks[0] = len(m.Chunks) }},
	{"negative node chunk", func(m *manifest) { m.Nodes[0].Chunks[0] = -1 }},
	{"node chunk outside its planes", func(m *manifest) { m.Nodes[0].Chunks = append(m.Nodes[0].Chunks, 0) }},
	{"node plane without a chunk", func(m *manifest) { m.Nodes[0].Chunks = m.Nodes[0].Chunks[1:] }},
	{"parent stores other planes", func(m *manifest) {
		for _, n := range m.Nodes {
			if n.Parent != 0 {
				p := &m.Nodes[n.Parent-1] // ids are 1, 2, … in order
				p.PlaneEnd, p.Chunks = 2, p.Chunks[:2]
				return
			}
		}
	}},
}

// hostileArchive creates a small valid archive and returns its directory and
// manifest as stored.
func hostileArchive(t testing.TB) (string, manifest) {
	t.Helper()
	dir := t.TempDir()
	st, err := Create(dir, makeSnaps(90, 3, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, storedManifest(t, dir)
}

// storedManifest decodes dir's manifest.json as it is stored: nodes name
// chunk positions, and the layout is filled in.
func storedManifest(t testing.TB, dir string) manifest {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// mutated returns the manifest JSON after one corruption; the slices are
// copied so rows do not see each other's damage.
func mutated(t testing.TB, man manifest, mutate func(*manifest)) []byte {
	t.Helper()
	man.Nodes = append([]manifestNode(nil), man.Nodes...)
	for i := range man.Nodes {
		man.Nodes[i].Chunks = slices.Clone(man.Nodes[i].Chunks)
	}
	man.Segments = slices.Clone(man.Segments)
	man.Chunks = slices.Clone(man.Chunks)
	mutate(&man)
	blob, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// Every row panicked (index out of range, makeslice, inside a worker
// goroutine nothing can recover from) or was silently accepted before Open
// validated the manifest; all must now be ErrStore at Open.
func TestOpenRejectsHostileManifest(t *testing.T) {
	dir, man := hostileArchive(t)
	path := filepath.Join(dir, "manifest.json")
	for _, row := range hostileManifests {
		if err := os.WriteFile(path, mutated(t, man, row.mutate), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrStore) {
			t.Errorf("%s: Open = %v, want ErrStore", row.name, err)
		}
	}
	// The unmutated manifest still opens: the table rejects the mutation,
	// not the fixture.
	if err := os.WriteFile(path, mutated(t, man, func(*manifest) {}), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	for _, snap := range st.Snapshots() {
		if _, err := st.GetSnapshot(snap, 4, Concurrent); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzOpenManifest feeds arbitrary bytes to Open as the manifest of an
// otherwise valid archive. Open either fails with ErrStore or returns a
// store on which retrieval fails typed at worst — never a panic (wired into
// make fuzz-smoke).
func FuzzOpenManifest(f *testing.F) {
	base, man := hostileArchive(f)
	f.Add(mutated(f, man, func(*manifest) {}))
	for _, row := range hostileManifests {
		f.Add(mutated(f, man, row.mutate))
	}
	// Shapes Open accepts but the stored payloads inflate past, or fall
	// short of: retrieval must stop at the declared plane size.
	f.Add(mutated(f, man, func(m *manifest) { m.Nodes[0].Rows, m.Nodes[0].Cols = 1, 1 }))
	f.Add(mutated(f, man, func(m *manifest) { m.Nodes[0].Rows++ }))
	f.Add(mutated(f, man, func(m *manifest) { m.Version = 1 }))
	// An α JSON cannot hold as a float64.
	valid := mutated(f, man, func(*manifest) {})
	if !bytes.Contains(valid, []byte(`"alpha":0,`)) {
		f.Fatal("the fixture manifest does not record alpha 0")
	}
	f.Add(bytes.Replace(valid, []byte(`"alpha":0,`), []byte(`"alpha":1e999,`), 1))
	// The node "tier" an earlier build wrote (1: priced remote, its chunks
	// local like any other's) is ignored, whatever its value.
	for _, tier := range []string{`"tier":1,`, `"tier":7,`} {
		f.Add(bytes.Replace(valid, []byte(`{"id":2,`), []byte(`{"id":2,`+tier), 1))
	}
	paths, err := filepath.Glob(filepath.Join(base, segmentsDir, "*"))
	if err != nil {
		f.Fatal(err)
	}
	segFiles := map[string][]byte{}
	for _, path := range paths {
		if segFiles[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, segmentsDir), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range segFiles {
			if err := os.WriteFile(filepath.Join(dir, segmentsDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrStore) {
				t.Fatalf("Open error %v is not ErrStore", err)
			}
			return
		}
		defer st.Close()
		for _, snap := range st.Snapshots() {
			for _, prefix := range []int{4, 2} {
				if _, err := st.GetSnapshot(snap, prefix, Concurrent); err != nil && !errors.Is(err, ErrStore) {
					t.Fatalf("retrieval error %v is not ErrStore", err)
				}
			}
		}
	})
}
