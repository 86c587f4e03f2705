package pas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"modelhub/internal/delta"
	"modelhub/internal/floatenc"
	"modelhub/internal/tensor"
)

// hostileManifests are single-field corruptions of a valid manifest, each of
// which used to reach an index expression, an allocation or a map lookup
// unchecked. manifest.json arrives inside every pulled repository. The rows
// from "segment name" on check its layout: segments and the chunk table.
// Each row is refused in both encodings, except those marked for one: a
// version-4 record cannot spell a digest in anything but 32 raw bytes.
var hostileManifests = []struct {
	name   string
	mutate func(m *manifest)
	only   string // "v3" or "v4": the row exists in that encoding alone
}{
	{"version 0", func(m *manifest) { m.Version = 0 }, ""},
	{"version 5", func(m *manifest) { m.Version = 5 }, ""},
	{"version 4 as JSON", func(m *manifest) { m.Version = 4 }, "v3"},
	{"version 3 as a binary record", func(m *manifest) { m.Version = 3 }, "v4"},
	{"delta op intsub", func(m *manifest) { m.DeltaOp = uint8(delta.IntSub) }, ""},
	{"delta op unknown", func(m *manifest) { m.DeltaOp = 200 }, ""},
	{"negative alpha", func(m *manifest) { m.Alpha = -0.5 }, ""},
	{"negative plane start", func(m *manifest) { m.Nodes[0].PlaneStart = -1 }, ""},
	{"plane end past 4", func(m *manifest) { m.Nodes[0].PlaneEnd = 9 }, ""},
	{"empty plane range", func(m *manifest) { m.Nodes[0].PlaneStart, m.Nodes[0].PlaneEnd = 2, 2 }, ""},
	{"plane start without end", func(m *manifest) { m.Nodes[0].PlaneStart, m.Nodes[0].PlaneEnd = 1, 0 }, ""},
	{"negative rows", func(m *manifest) { m.Nodes[0].Rows = -4 }, ""},
	{"negative cols", func(m *manifest) { m.Nodes[0].Cols = -1 }, ""},
	{"shape overflows", func(m *manifest) { m.Nodes[0].Rows, m.Nodes[0].Cols = 1<<40, 1<<40 }, ""},
	{"shape beyond any payload", func(m *manifest) { m.Nodes[0].Rows, m.Nodes[0].Cols = 1<<20, 1<<20 }, ""},
	{"unknown parent", func(m *manifest) { m.Nodes[1].Parent = 9999 }, ""},
	{"negative parent", func(m *manifest) { m.Nodes[1].Parent = -2 }, ""},
	{"duplicate node id", func(m *manifest) { m.Nodes[1].ID = m.Nodes[0].ID }, ""},
	{"node id 0", func(m *manifest) { m.Nodes[0].ID = 0 }, ""},
	{"segment name", func(m *manifest) { m.Segments[0].Name = "../seg-000000.seg" }, ""},
	{"segment smaller than its magic", func(m *manifest) { m.Segments[0].Size = int64(len(segMagic)) - 1 }, ""},
	{"chunk digest not hex", func(m *manifest) { m.Chunks[0].Sum = strings.Repeat("zz", sha256.Size) }, "v3"},
	{"chunk digest short", func(m *manifest) { m.Chunks[0].Sum = m.Chunks[0].Sum[:2*sha256.Size-2] }, "v3"},
	{"duplicate chunk digest", func(m *manifest) { m.Chunks[1].Sum = m.Chunks[0].Sum }, ""},
	{"chunk segment out of range", func(m *manifest) { m.Chunks[0].Seg = len(m.Segments) }, ""},
	{"negative chunk segment", func(m *manifest) { m.Chunks[0].Seg = -1 }, ""},
	{"chunk offset before its record header", func(m *manifest) { m.Chunks[0].Off = int64(len(segMagic)) }, ""},
	{"chunk past its segment", func(m *manifest) { m.Chunks[0].Len = m.Segments[0].Size }, ""},
	{"chunk length overflows", func(m *manifest) { m.Chunks[0].Len = math.MaxInt64 }, ""},
	{"node chunk out of range", func(m *manifest) { m.Nodes[0].Chunks[0] = len(m.Chunks) }, ""},
	{"negative node chunk", func(m *manifest) { m.Nodes[0].Chunks[0] = -1 }, ""},
	{"node chunk outside its planes", func(m *manifest) { m.Nodes[0].Chunks = append(m.Nodes[0].Chunks, 0) }, ""},
	{"node plane without a chunk", func(m *manifest) { m.Nodes[0].Chunks = m.Nodes[0].Chunks[1:] }, ""},
	{"parent stores other planes", func(m *manifest) {
		for _, n := range m.Nodes {
			if n.Parent != 0 {
				p := &m.Nodes[n.Parent-1] // ids are 1, 2, … in order
				p.PlaneEnd, p.Chunks = 2, p.Chunks[:2]
				return
			}
		}
	}, ""},
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

// storedManifest decodes dir's manifest, in either encoding, as it is
// stored: nodes name chunk positions, and the layout is filled in.
func storedManifest(t testing.TB, dir string) manifest {
	t.Helper()
	man, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return *man
}

// encodings are the two manifest encodings Open reads, with the version
// each carries.
var encodings = []struct {
	name    string
	version int
	encode  func(t testing.TB, m *manifest) []byte
}{
	{"v3", jsonVersion, func(t testing.TB, m *manifest) []byte {
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}},
	{"v4", manifestVersion, func(t testing.TB, m *manifest) []byte {
		blob, err := encodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}},
}

// mutated returns the version-4 manifest after one corruption.
func mutated(t testing.TB, man manifest, mutate func(*manifest)) []byte {
	return mutatedAs(t, 1, man, mutate)
}

// mutatedAs returns the manifest in encodings[enc] after one corruption; the
// slices are copied so rows do not see each other's damage.
func mutatedAs(t testing.TB, enc int, man manifest, mutate func(*manifest)) []byte {
	t.Helper()
	man.Version = encodings[enc].version
	man.Nodes = append([]manifestNode(nil), man.Nodes...)
	for i := range man.Nodes {
		man.Nodes[i].Chunks = slices.Clone(man.Nodes[i].Chunks)
	}
	man.Segments = slices.Clone(man.Segments)
	man.Chunks = slices.Clone(man.Chunks)
	mutate(&man)
	return encodings[enc].encode(t, &man)
}

// hostileBlobs lists every hostile manifest: each hostileManifests row in
// each encoding it exists in, then the hostileRecords rows.
func hostileBlobs(t testing.TB, man manifest) (names []string, blobs [][]byte) {
	t.Helper()
	for enc, e := range encodings {
		for _, row := range hostileManifests {
			if row.only == "" || row.only == e.name {
				names = append(names, e.name+" "+row.name)
				blobs = append(blobs, mutatedAs(t, enc, man, row.mutate))
			}
		}
	}
	for _, row := range hostileRecords(t, man) {
		names = append(names, "v4 record "+row.name)
		blobs = append(blobs, row.blob)
	}
	return names, blobs
}

// reseal replaces a version-4 record's trailer with the CRC-32C of what
// precedes it, so that a corruption reaches the decoder's other checks.
func reseal(blob []byte) []byte {
	body := slices.Clone(blob[:len(blob)-manTrailerLen])
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// splice returns blob with the n bytes at off replaced by with, resealed.
func splice(blob []byte, off, n int, with []byte) []byte {
	return reseal(slices.Concat(blob[:off], with, blob[off+n:]))
}

func uvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// hostileRecord is a version-4 record corrupted below the fields of the
// stored manifest, with the words the refusal must contain.
type hostileRecord struct {
	name, want string
	blob       []byte
}

// hostileRecords corrupts the version-4 encoding of man structurally: a
// truncation at every byte, counts and indices past their ends, bad bytes
// where a string, a float or the trailer go. Every corruption but the
// trailer's own is resealed, so each reaches the check it names.
func hostileRecords(t testing.TB, man manifest) []hostileRecord {
	t.Helper()
	man.Version = manifestVersion
	valid := mutated(t, man, func(*manifest) {})
	body := len(valid) - manTrailerLen
	var rows []hostileRecord
	for n := 0; n < body; n++ {
		rows = append(rows,
			hostileRecord{fmt.Sprintf("cut at %d", n), "", valid[:n]},
			hostileRecord{fmt.Sprintf("cut at %d, resealed", n), "", reseal(valid[:n+manTrailerLen])})
	}
	// The string table follows the magic; its first string is the algorithm.
	strs := len(manMagic)
	count, k := binary.Uvarint(valid[strs:])
	first := strs + k
	firstLen, k := binary.Uvarint(valid[first:])
	plan := first + k + int(firstLen)
	for range int(count) - 1 {
		n, k := binary.Uvarint(valid[plan:])
		plan += k + int(n)
	}
	// The chunk table's first record opens with its raw digest; the node
	// table is what an encoding without nodes ends in.
	raw, err := hex.DecodeString(man.Chunks[0].Sum)
	if err != nil {
		t.Fatal(err)
	}
	chunks := bytes.Index(valid, raw) - len(uvarint(uint64(len(man.Chunks))))
	nodes := len(mutated(t, man, func(m *manifest) { m.Nodes = nil })) - manTrailerLen - 1
	node0 := nodes + len(uvarint(uint64(len(man.Nodes)))) + len(uvarint(uint64(man.Nodes[0].ID)))
	snap0 := slices.IndexFunc(man.Snapshots, func(s manifestSnap) bool { return s.ID == man.Nodes[0].Ref.Snapshot })
	if count < 2 || firstLen == 0 || chunks < plan || nodes < chunks || snap0 < 0 {
		t.Fatalf("cannot locate the fields of the record: strings %d, chunks at %d, nodes at %d", count, chunks, nodes)
	}
	rows = append(rows,
		hostileRecord{"string count past the end", "cannot fit", splice(valid, strs, 1, uvarint(uint64(body)))},
		hostileRecord{"string length past the end", "runs past", splice(valid, first, 1, uvarint(uint64(body)))},
		hostileRecord{"chunk count past the end", "cannot fit", splice(valid, chunks, len(uvarint(uint64(len(man.Chunks)))), uvarint(uint64(len(man.Chunks)+body/manChunkLen)))},
		hostileRecord{"node count past the end", "cannot fit", splice(valid, nodes, len(uvarint(uint64(len(man.Nodes)))), uvarint(uint64(body)))},
		hostileRecord{"varint above MaxInt", "exceeds MaxInt", splice(valid, strs, 1, uvarint(math.MaxInt+1))},
		hostileRecord{"varint past 64 bits", "overlong", splice(valid, strs, 1, bytes.Repeat([]byte{0xff}, 11))},
		hostileRecord{"string not UTF-8", "UTF-8", splice(valid, first+1, 1, []byte{0xff})},
		hostileRecord{"delta op wraps to XOR", "delta op", splice(valid, plan, 1, uvarint(256+uint64(deltaOp)))},
		hostileRecord{"feasible 2", "feasible", splice(valid, plan+3+4*8, 1, []byte{2})},
		hostileRecord{"node snapshot out of range", "out of range", splice(valid, node0, 1, uvarint(uint64(len(man.Snapshots))))},
		hostileRecord{"node name out of range", "out of range", splice(valid, node0+1, 1, uvarint(uint64(len(man.Snapshots[snap0].Names))))},
		hostileRecord{"trailing bytes", "trailing", reseal(slices.Concat(valid[:body], []byte{0}, valid[body:]))},
		hostileRecord{"bad trailer", "trailer", slices.Concat(valid[:body], []byte{valid[body] ^ 1}, valid[body+1:])},
	)
	// Every float field: a sentinel value is found and replaced.
	const sentinel = 1234.5678
	for _, f := range []struct {
		name string
		set  func(m *manifest)
	}{
		{"alpha", func(m *manifest) { m.Alpha = sentinel }},
		{"storage cost", func(m *manifest) { m.StorageCost = sentinel }},
		{"mst cost", func(m *manifest) { m.MSTCost = sentinel }},
		{"spt cost", func(m *manifest) { m.SPTCost = sentinel }},
		{"budget", func(m *manifest) { m.Snapshots[1].Budget = sentinel }},
		{"recreation", func(m *manifest) { m.Snapshots[1].Recreation = sentinel }},
	} {
		blob := mutated(t, man, func(m *manifest) {
			m.Snapshots = slices.Clone(m.Snapshots)
			f.set(m)
		})
		at := bytes.Index(blob, binary.LittleEndian.AppendUint64(nil, math.Float64bits(sentinel)))
		if at < 0 {
			t.Fatalf("no %s in the record", f.name)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			rows = append(rows, hostileRecord{fmt.Sprintf("%s %v", f.name, x), "not finite",
				splice(blob, at, 8, binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))})
		}
	}
	return rows
}

// Every row panicked (index out of range, makeslice, inside a worker
// goroutine nothing can recover from) or was silently accepted before Open
// validated the manifest; all must now be ErrStore at Open, in both
// encodings, and leave the archive as it was.
func TestOpenRejectsHostileManifest(t *testing.T) {
	dir, man := hostileArchive(t)
	path := filepath.Join(dir, manifestName)
	names, blobs := hostileBlobs(t, man)
	wants := map[string]string{}
	for _, row := range hostileRecords(t, man) {
		wants["v4 record "+row.name] = row.want
	}
	for i, blob := range blobs {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirState(t, dir)
		_, err := Open(dir)
		if !errors.Is(err, ErrStore) || !strings.Contains(err.Error(), wants[names[i]]) {
			t.Errorf("%s: Open = %v, want ErrStore saying %q", names[i], err, wants[names[i]])
		}
		if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: a refused Open changed the archive", names[i])
		}
	}
	// The unmutated manifest still opens in both encodings: the table
	// rejects the mutation, not the fixture.
	for enc, e := range encodings {
		if err := os.WriteFile(path, mutatedAs(t, enc, man, func(*manifest) {}), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: valid manifest rejected: %v", e.name, err)
		}
		for _, snap := range st.Snapshots() {
			if _, err := st.GetSnapshot(snap, 4, Concurrent); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// What Create writes decodes to the manifest it encoded, and encoding that
// again gives the same bytes.
func TestManifestRoundTrip(t *testing.T) {
	dir, man := hostileArchive(t)
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte(manMagic)) {
		t.Fatalf("Create wrote a manifest opening %q, want %q", blob[:min(len(blob), 8)], manMagic)
	}
	again, err := encodeManifest(&man)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-encoding the decoded manifest changed its bytes")
	}
	fromJSON, err := decodeManifest(mutatedAs(t, 0, man, func(*manifest) {}))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON.Version = manifestVersion
	if !reflect.DeepEqual(*fromJSON, man) {
		t.Fatal("the version-3 encoding decodes to another manifest")
	}
}

// A write refuses what Open would: a snapshot id that is not UTF-8, or a
// non-finite cost, fails Create before the manifest is committed.
func TestEncodeRefusesWhatOpenRefuses(t *testing.T) {
	_, man := hostileArchive(t)
	for name, mutate := range map[string]func(m *manifest){
		"id not UTF-8":        func(m *manifest) { m.Snapshots[0].ID = "\xff" },
		"NaN storage cost":    func(m *manifest) { m.StorageCost = math.NaN() },
		"infinite budget":     func(m *manifest) { m.Snapshots[0].Budget = math.Inf(1) },
		"node of no snapshot": func(m *manifest) { m.Nodes[0].Ref.Name = "nowhere" },
	} {
		m := man
		m.Snapshots = slices.Clone(man.Snapshots)
		m.Nodes = slices.Clone(man.Nodes)
		mutate(&m)
		if _, err := encodeManifest(&m); !errors.Is(err, ErrStore) {
			t.Errorf("%s: encodeManifest = %v, want ErrStore", name, err)
		}
	}
}

// FuzzOpenManifest feeds arbitrary bytes to Open as the manifest of an
// otherwise valid archive. Open either fails with ErrStore or returns a
// store on which retrieval fails typed at worst — never a panic (wired into
// make fuzz-smoke). Its seeds are the valid manifest and every hostile one,
// in both encodings.
func FuzzOpenManifest(f *testing.F) {
	base, man := hostileArchive(f)
	// Every hostile manifest but the record's truncations, which the fuzzer
	// makes on its own.
	names, blobs := hostileBlobs(f, man)
	for enc := range encodings {
		f.Add(mutatedAs(f, enc, man, func(*manifest) {}))
		// Shapes Open accepts but the stored payloads inflate past, or
		// fall short of: retrieval must stop at the declared plane size.
		f.Add(mutatedAs(f, enc, man, func(m *manifest) { m.Nodes[0].Rows, m.Nodes[0].Cols = 1, 1 }))
		f.Add(mutatedAs(f, enc, man, func(m *manifest) { m.Nodes[0].Rows++ }))
		f.Add(mutatedAs(f, enc, man, func(m *manifest) { m.Version = 1 }))
	}
	for i, blob := range blobs {
		if !strings.Contains(names[i], " cut at ") {
			f.Add(blob)
		}
	}
	// An α JSON cannot hold as a float64.
	valid := mutatedAs(f, 0, man, func(*manifest) {})
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
		if err := os.WriteFile(filepath.Join(dir, manifestName), blob, 0o644); err != nil {
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

// snapshotDigest hashes a snapshot's matrices in name order: each name, a
// zero byte, rows and cols as uint32 and every element's bits, little-endian.
func snapshotDigest(ms map[string]*tensor.Matrix) string {
	h := sha256.New()
	for _, name := range slices.Sorted(maps.Keys(ms)) {
		m := ms[name]
		h.Write(append([]byte(name), 0))
		h.Write(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(m.Rows())), uint32(m.Cols())))
		for _, x := range m.Data() {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(x)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// v3Fixture copies testdata/v3 into a temp dir and returns it with the
// snapshot digests of testdata/v3.sha256, in archive order. The archive is
// what the build before version 4 wrote for a dlv repository of two tiny
// versions (five snapshots) under pas-mt at α 1.6 with plane granularity;
// the digests are snapshotDigest of each snapshot as that build read it
// back.
func v3Fixture(t *testing.T) (string, [][2]string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "v3"))); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(filepath.Join("testdata", "v3.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]string
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		id, sum, _ := strings.Cut(line, " ")
		want = append(want, [2]string{id, sum})
	}
	return dir, want
}

// checkDigests fails unless st holds exactly the snapshots of want, in
// order, each reading back to its digest under every scheme.
func checkDigests(t *testing.T, st *Store, want [][2]string) {
	t.Helper()
	if got := st.Snapshots(); len(got) < len(want) {
		t.Fatalf("the archive holds snapshots %v, want at least %d", got, len(want))
	}
	for i, w := range want {
		if id := st.Snapshots()[i]; id != w[0] {
			t.Fatalf("snapshot %d is %q, want %q", i, id, w[0])
		}
		for _, scheme := range allSchemes {
			ms, err := st.GetSnapshot(w[0], floatenc.NumPlanes, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDigest(ms); got != w[1] {
				t.Fatalf("%s under scheme %v reads back as %s, want %s", w[0], scheme, got, w[1])
			}
		}
	}
}

// The version-3 fixture opens and reads back bit-identically to what the
// build that wrote it read, and opening it writes nothing.
func TestOpenVersion3Fixture(t *testing.T) {
	dir, want := v3Fixture(t)
	before := dirState(t, dir)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Snapshots()) != len(want) {
		t.Fatalf("the fixture holds %d snapshots, its digests %d", len(st.Snapshots()), len(want))
	}
	checkDigests(t, st, want)
	if info := st.Info(); info.Algorithm != "pas-mt" || info.Alpha != 1.6 || !info.PlaneGranularity {
		t.Fatalf("the fixture's plan is %+v", info)
	}
	if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("opening the fixture wrote to it:\nbefore %v\nafter  %v", before, after)
	}
}

// Extending the version-3 fixture writes a version-4 manifest that keeps
// every node and snapshot entry of the old one, and every old snapshot
// reads back as it did.
func TestExtendVersion3Fixture(t *testing.T) {
	dir, want := v3Fixture(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := storedManifest(t, dir)
	rng := rand.New(rand.NewSource(53))
	next := SnapshotIn{ID: "v000003/latest", Matrices: map[string]*tensor.Matrix{}}
	for _, name := range st.man.Snapshots[len(st.man.Snapshots)-1].Names {
		ms, err := st.GetMatrix(MatrixRef{Snapshot: "v000002/latest", Name: name}, floatenc.NumPlanes)
		if err != nil {
			t.Fatal(err)
		}
		next.Matrices[name] = ms.Perturb(rng, 1e-3)
	}
	ext, err := st.Extend([]SnapshotIn{next}, Options{Algorithm: "pas-mt", Alpha: 1.6, PlaneGranularity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(st.Close(), ext.Close()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte(manMagic)) {
		t.Fatalf("the extended manifest opens %.8q, want %q", blob, manMagic)
	}
	now := storedManifest(t, dir)
	if !reflect.DeepEqual(now.Nodes[:len(old.Nodes)], old.Nodes) || !reflect.DeepEqual(now.Snapshots[:len(old.Snapshots)], old.Snapshots) {
		t.Fatal("extending changed an entry of the version-3 manifest")
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	checkDigests(t, reopened, append(want, [2]string{next.ID, snapshotDigest(next.Matrices)}))
}
