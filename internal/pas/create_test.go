package pas

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"modelhub/internal/delta"
	"modelhub/internal/floatenc"
	"modelhub/internal/obs"
	"modelhub/internal/tensor"
)

// archiveDigest hashes everything Create writes: manifest.json and every
// segment file, names included. It also returns the files' total size.
func archiveDigest(t *testing.T, dir string) (string, int) {
	return filesDigest(t, dir, true)
}

// segmentDigest is archiveDigest over the segment files alone: the chunk
// bytes, whatever metadata describes them.
func segmentDigest(t *testing.T, dir string) (string, int) {
	return filesDigest(t, dir, false)
}

func filesDigest(t *testing.T, dir string, withManifest bool) (string, int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segmentsDir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if withManifest {
		paths = append([]string{filepath.Join(dir, manifestName)}, paths...)
	}
	h := sha256.New()
	size := 0
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(blob)
		size += len(blob)
	}
	return hex.EncodeToString(h.Sum(nil)), size
}

// reshapedSnaps is makeSnaps plus a last snapshot whose "ip2" lost a row —
// the fine-tune that changes the label domain — so the default pairing holds
// two same-shape pairs and one differing-shape pair into the last snapshot.
func reshapedSnaps(seed int64, nSnaps int) []SnapshotIn {
	snaps := makeSnaps(seed, nSnaps, 0)
	last := snaps[len(snaps)-1].Matrices
	ip2 := last["ip2"]
	return append(snaps, SnapshotIn{ID: "reshaped", Matrices: map[string]*tensor.Matrix{
		"conv1": last["conv1"],
		"ip1":   last["ip1"],
		"ip2":   delta.ResizeTo(ip2, ip2.Rows()-1, ip2.Cols()),
	}})
}

// The bytes Create writes are a function of its input alone: equal at every
// worker count. The segment files — every chunk payload, in write order —
// were what the serial implementation of e3e714e wrote, through candidate
// pricing being pooled, shared between twin and equal planes, run on a
// worker gate and allowed to skip zlib's compressor on incompressible
// planes, and through the version-3 manifest. They moved once, when pricing
// began to pick the zlib coder per plane class (planeLevel): the matrix
// fixture's segments went 14,673 → 14,478 B and its archive 23,284 →
// 23,078 B; the plane-granular one's segments 11,354 → 11,280 B and its
// archive 21,327 → 21,251 B. The plane-granular fixture then lost its remote
// tier, which had priced a cheaper copy of every edge: the same input
// without it is what the build before that change wrote too, segments
// 11,346 B and archive 21,461 B. The whole archive (want, wantBytes) is
// pinned as version 4 writes it: one binary manifest beside the segments.
// The move from the version-3 JSON manifest left every segment byte as it
// was and shrank the archives 23,078 → 18,185 B and 21,461 → 15,027 B.
func TestCreateBytesAreWorkerInvariant(t *testing.T) {
	for _, fx := range []struct {
		name      string
		snaps     []SnapshotIn
		opts      Options
		segSum    string
		segBytes  int
		want      string
		wantBytes int
	}{
		{"matrix", makeSnaps(60, 5, 0), Options{Algorithm: "pas-mt", Alpha: 1.6},
			"91f5be051c0ae3c15d253b7052e04a3ca5512e6c6e3357eb35390f0133479967", 14478,
			"0a000d287854adf8ec32432e0c83acd7d38e05bc59d042d71c7d29c283f0953d", 18185},
		{"plane+reshaped", reshapedSnaps(61, 4),
			Options{Algorithm: "pas-mt", Alpha: 1.6, PlaneGranularity: true},
			"edc03d9b244cf519b4a7aaa0dadff39dd6f799c06feabbb35d85bf67a584365f", 11346,
			"9cd26fbc01585b53f9637390c7d47899c36532c9b724e8342b99c0e76ed0cfab", 15027},
	} {
		for _, procs := range []int{1, 2, 4, 8} {
			prev := runtime.GOMAXPROCS(procs)
			dir := t.TempDir()
			st, err := Create(dir, fx.snaps, fx.opts)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", fx.name, procs, err)
			}
			checkoutAllExact(t, st, fx.snaps, Concurrent)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if got, size := segmentDigest(t, dir); got != fx.segSum || size != fx.segBytes {
				t.Errorf("%s at GOMAXPROCS=%d: segments digest %s, %d bytes; want %s, %d bytes",
					fx.name, procs, got, size, fx.segSum, fx.segBytes)
			}
			if got, size := archiveDigest(t, dir); got != fx.want || size != fx.wantBytes {
				t.Errorf("%s at GOMAXPROCS=%d: archive digest %s, %d bytes; want %s, %d bytes",
					fx.name, procs, got, size, fx.want, fx.wantBytes)
			}
		}
	}
}

// Pricing compresses each distinct (level, plane) pair of the candidate delta
// bodies exactly once — the bodies are one per matrix, one per same-shape pair
// and two per differing-shape pair, each plane's level is its class's, and a
// plane equal to one already met at the same level, such as a matrix a later
// snapshot repeats, is shared instead — and the write loop compresses
// nothing, whatever the node granularity, tier options or worker count.
func TestCreateDeflatesEachPlaneOnce(t *testing.T) {
	snaps := reshapedSnaps(62, 3) // 4 snapshots x 3 matrices; 9 default pairs, 1 of them reshaped
	const matrices, pairs, sameShape = 12, 9, 8
	priced := (matrices + 2*pairs) * floatenc.NumPlanes
	// The distinct (level, plane) pairs of every body a candidate edge
	// stores, found without the pricing code.
	type levelPlane struct {
		level int
		plane string
	}
	distinct := map[levelPlane]bool{}
	addBody := func(m *tensor.Matrix, materialized bool) {
		for p, plane := range floatenc.Segment(m).Planes {
			distinct[levelPlane{planeLevel(materialized, p), string(plane)}] = true
		}
	}
	for i, s := range snaps {
		for name, m := range s.Matrices {
			addBody(m, true)
			if i == 0 {
				continue
			}
			prev := snaps[i-1].Matrices[name]
			for _, d := range [][2]*tensor.Matrix{{prev, m}, {m, prev}} {
				body, err := delta.Compute(deltaOp, d[0], d[1])
				if err != nil {
					t.Fatal(err)
				}
				addBody(body.Body, false)
			}
		}
	}
	compressed := len(distinct)
	// The reshaped snapshot repeats conv1 and ip1 of the one before it: their
	// eight planes are shared on top of the same-shape twins.
	if priced-compressed < (sameShape+2)*floatenc.NumPlanes {
		t.Fatalf("fixture has %d distinct (level, plane) pairs of %d planes; it no longer repeats a matrix", compressed, priced)
	}
	obs.Enable() // counters are no-ops while metrics are disabled
	for _, opts := range []Options{
		{},
		{PlaneGranularity: true},
	} {
		var serial [2]int64 // deflated and stored at GOMAXPROCS=1
		for _, procs := range []int{1, 2, 4, 8} {
			deflated, stored, shared := mCreatePlanesDeflated.Value(), mCreatePlanesStored.Value(), mCreatePlanesShared.Value()
			prev := runtime.GOMAXPROCS(procs)
			createStore(t, snaps, opts)
			runtime.GOMAXPROCS(prev)
			deflated = mCreatePlanesDeflated.Value() - deflated
			stored = mCreatePlanesStored.Value() - stored
			shared = mCreatePlanesShared.Value() - shared
			if deflated+stored != int64(compressed) || shared != int64(priced-compressed) {
				t.Errorf("%+v at GOMAXPROCS=%d: %d planes deflated + %d stored, %d shared; want %d compressed, %d shared",
					opts, procs, deflated, stored, shared, compressed, priced-compressed)
			}
			if deflated == 0 || stored == 0 {
				t.Errorf("%+v at GOMAXPROCS=%d: %d planes deflated, %d stored; the fixture has both kinds", opts, procs, deflated, stored)
			}
			if procs == 1 {
				serial = [2]int64{deflated, stored}
			} else if serial != [2]int64{deflated, stored} {
				t.Errorf("%+v at GOMAXPROCS=%d: %d deflated, %d stored; serially %d, %d", opts, procs, deflated, stored, serial[0], serial[1])
			}
		}
	}
}

// An all-zero plane belongs to several classes at once: every plane of a
// zero matrix and of the XOR body between two equal matrices is one. Each
// chunk still holds its plane coded at its own class's level, and the
// archive is the same bytes at every worker count, whichever class a worker
// happens to price the plane in first.
func TestCreateCodesEachPlaneByItsClass(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	w := tensor.RandNormal(rng, 8, 10, 0.1)
	snaps := []SnapshotIn{
		{ID: "a", Matrices: map[string]*tensor.Matrix{"bias": tensor.NewMatrix(8, 10), "w": w}},
		{ID: "b", Matrices: map[string]*tensor.Matrix{"bias": tensor.NewMatrix(8, 10), "w": w.Clone()}},
		{ID: "c", Matrices: map[string]*tensor.Matrix{"bias": tensor.NewMatrix(8, 10), "w": w.Perturb(rng, 1e-3)}},
	}
	var want string
	for _, procs := range []int{1, 2, 4, 8} {
		for range 3 {
			prev := runtime.GOMAXPROCS(procs)
			dir := t.TempDir()
			st, err := Create(dir, snaps, Options{})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			checkoutAllExact(t, st, snaps, Concurrent)
			for _, n := range st.man.Nodes {
				for p := range floatenc.NumPlanes {
					z, err := st.seg.read(n.PlaneSum[p])
					if err != nil {
						t.Fatal(err)
					}
					raw, err := floatenc.Inflate(z, n.Rows*n.Cols)
					if err != nil {
						t.Fatal(err)
					}
					level := planeLevel(n.Parent == 0, p)
					if coded, err := floatenc.Deflate(raw, level); err != nil || string(coded) != string(z) {
						t.Errorf("GOMAXPROCS=%d: %v plane %d (parent %d) is not coded at level %d", procs, n.Ref, p, n.Parent, level)
					}
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			got, _ := archiveDigest(t, dir)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("GOMAXPROCS=%d: archive digest %s, serially %s", procs, got, want)
			}
		}
	}
}

// When a pair's shapes differ the two directions crop and pad different
// bases, so they are priced separately, cost differently, and each inverts
// bit-exactly when a plan picks it: Prim's tree roots at the matrix that is
// cheaper to materialize, which the wide one's column count decides here.
func TestCreateDifferingShapePairPricesBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	tall := tensor.RandNormal(rng, 20, 6, 0.1)
	used := map[[2]int]bool{}
	for _, cols := range []int{9, 15} {
		wide := delta.ResizeTo(tall, 10, cols).Perturb(rng, 1e-4)
		snaps := []SnapshotIn{
			{ID: "v1", Matrices: map[string]*tensor.Matrix{"fc": tall}},
			{ID: "v2", Matrices: map[string]*tensor.Matrix{"fc": wide}},
		}
		g, err := BuildGraph(snaps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Edges: ν0→v1, ν0→v2, v1→v2, v2→v1.
		if len(g.Edges) != 4 || g.Edges[2].Storage == g.Edges[3].Storage {
			t.Fatalf("directed costs of a reshaped pair: %+v", g.Edges)
		}
		st := createStore(t, snaps, Options{Algorithm: "mst"})
		used[[2]int{st.man.Nodes[0].Parent, st.man.Nodes[1].Parent}] = true
		checkoutAllExact(t, st, snaps, Concurrent)
	}
	if !used[[2]int{0, 1}] || !used[[2]int{2, 0}] {
		t.Fatalf("plans %v did not use both directions of the pair", used)
	}
}

// A pricing failure surfaces as one ErrStore, nothing is written, and every
// worker has exited by the time Create returns.
func TestCreatePricingErrorSurfacesOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	before := runtime.NumGoroutine()
	defer func(level func(bool, int) int) { planeLevel = level }(planeLevel)
	planeLevel = func(bool, int) int { return 42 }
	dir := t.TempDir()
	_, err := Create(dir, makeSnaps(64, 6, 0), Options{})
	if !errors.Is(err, ErrStore) {
		t.Fatalf("Create with an invalid zlib level = %v, want ErrStore", err)
	}
	if n := strings.Count(err.Error(), "invalid compression level"); n != 1 {
		t.Fatalf("error names the failure %d times: %v", n, err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("failed Create left %d entries behind", len(left))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Create, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// A pulled archive's chunk is untrusted even when its digest matches the
// manifest: a payload that inflates past the plane size its node declares is
// rejected after at most that many bytes, not after the whole expansion.
func TestReadPlaneBoundsHostileInflate(t *testing.T) {
	snaps := makeSnaps(65, 2, 0)
	dir := t.TempDir()
	st, err := Create(dir, snaps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	const bombSize = 8 << 20
	bomb, err := floatenc.Deflate(make([]byte, bombSize), floatenc.DefaultZlibLevel)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bomb)
	_, lay, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := storePayloads(dir, lay, []segPayload{{sum: hex.EncodeToString(sum[:]), data: bomb}}); err != nil {
		t.Fatal(err)
	}
	man := st.man
	man.Nodes = append([]manifestNode(nil), man.Nodes...)
	man.Nodes[0].PlaneSum[0] = hex.EncodeToString(sum[:])
	man.Nodes[0].PlaneBytes[0] = len(bomb)
	if err := writeManifest(dir, &man, lay); err != nil {
		t.Fatal(err)
	}
	hostile, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = hostile.GetSnapshot(snaps[0].ID, 4, Independent)
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrStore) {
		t.Fatalf("retrieval through a %d-byte payload inflating to %d bytes = %v, want ErrStore", len(bomb), bombSize, err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > bombSize/8 {
		t.Fatalf("rejecting the payload allocated %d bytes", grew)
	}
	// A payload shorter than its declared plane is typed the same way.
	man.Nodes[0] = st.man.Nodes[0]
	man.Nodes[0].Rows++
	if err := writeManifest(dir, &man, lay); err != nil {
		t.Fatal(err)
	}
	short, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	if _, err := short.GetSnapshot(snaps[0].ID, 4, Independent); !errors.Is(err, ErrStore) {
		t.Fatalf("retrieval of a short payload = %v, want ErrStore", err)
	}
}
