package hub

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// snapshots maps "v<id>/<snap>" to a snapshot's weights.
type snapshots map[string]map[string]*tensor.Matrix

// makeArchivedRepo builds a repository whose weights live in a PAS archive:
// a base version with three checkpoints, each a small step from the one
// before, and a fine-tuned child with one. It returns the root and the
// weights every snapshot was committed with.
func makeArchivedRepo(tb testing.TB) (string, snapshots) {
	tb.Helper()
	root := tb.TempDir()
	repo, err := dlv.Init(root)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	w := map[string]*tensor.Matrix{
		"conv1": tensor.RandNormal(rng, 8, 10, 0.1),
		"conv2": tensor.RandNormal(rng, 16, 73, 0.1),
		"ip1":   tensor.RandNormal(rng, 48, 145, 0.1),
		"ip2":   tensor.RandNormal(rng, 10, 49, 0.1),
	}
	step := func(from map[string]*tensor.Matrix) map[string]*tensor.Matrix {
		out := map[string]*tensor.Matrix{}
		for name, m := range from {
			out[name] = m.Perturb(rng, 1e-3)
		}
		return out
	}
	truth := snapshots{}
	var parent int64
	for i, ckpts := range []int{3, 1} {
		var cks []dnn.Checkpoint
		for c := 1; c <= ckpts; c++ {
			w = step(w)
			cks = append(cks, dnn.Checkpoint{Iter: 10 * c, Weights: w})
		}
		w = step(w)
		name := fmt.Sprintf("lenet_v%d", i+1)
		id, err := repo.Commit(dlv.CommitInput{
			Name: name, NetDef: zoo.LeNet(name), Checkpoints: cks, Final: w,
			Accuracy: 0.9, ParentID: parent,
		})
		if err != nil {
			tb.Fatal(err)
		}
		for _, ck := range cks {
			truth[fmt.Sprintf("v%d/ckpt-%06d", id, ck.Iter)] = ck.Weights
		}
		truth[fmt.Sprintf("v%d/%s", id, dlv.LatestSnap)] = w
		parent = id
	}
	if _, err := repo.Archive(dlv.ArchiveOptions{Algorithm: "pas-mt", Alpha: 2}); err != nil {
		tb.Fatal(err)
	}
	return root, truth
}

// checkSnapshots fails unless every archived snapshot of the repository at
// root checks out bit for bit as committed.
func checkSnapshots(t *testing.T, root string, want snapshots) {
	t.Helper()
	repo, err := dlv.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	versions, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, v := range versions {
		if !v.Archived {
			t.Fatalf("version %d is not archived", v.ID)
		}
		for _, snap := range v.Snapshots {
			key := fmt.Sprintf("v%d/%s", v.ID, snap)
			got, err := repo.Weights(v.ID, snap, 4)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			for name, m := range want[key] {
				g := got[name].Data()
				for i, x := range m.Data() {
					if math.Float32bits(g[i]) != math.Float32bits(x) {
						t.Fatalf("%s %s[%d] = %v, committed %v", key, name, i, g[i], x)
					}
				}
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Fatalf("checked %d snapshots, committed %d", seen, len(want))
	}
}

// An archived repository, PAS segment and all, survives publish → pull with
// every snapshot bit-identical.
func TestArchivedRepoRoundTrip(t *testing.T) {
	_, client := newTestServer(t)
	root, truth := makeArchivedRepo(t)
	if err := client.Publish(context.Background(), root, "archived"); err != nil {
		t.Fatal(err)
	}
	dest := t.TempDir()
	if err := client.Pull(context.Background(), "archived", dest); err != nil {
		t.Fatal(err)
	}
	checkSnapshots(t, dest, truth)
}

// postPublish sends body as a publish of name and returns the response.
func postPublish(t *testing.T, client *Client, name string, body []byte) (int, string) {
	t.Helper()
	resp, err := client.HTTP.Post(client.Base+"/api/publish?name="+name, "application/gzip", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(msg)
}

// A well-formed archive of a repository whose PAS segment bytes were flipped
// is refused by inspect's probe of the first archived snapshot.
func TestPublishRejectsCorruptSegment(t *testing.T) {
	_, client := newTestServer(t)
	root, _ := makeArchivedRepo(t)
	segs, err := filepath.Glob(filepath.Join(root, ".dlv", "pas", "segments", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment file: %v", err)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for i := len("PASSEG2\n"); i < len(b); i++ {
			b[i] ^= 0xff
		}
		if err := os.WriteFile(seg, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	status, msg := postPublish(t, client, "corrupt", packBytes(t, root))
	if status != http.StatusBadRequest || !strings.Contains(msg, "archived weights unreadable") {
		t.Fatalf("publish of a corrupt segment = %d %q, want 400 from the probe", status, msg)
	}
	if res, err := client.Search(context.Background(), "corrupt"); err != nil || len(res) != 0 {
		t.Fatalf("search after rejected publish = %+v, %v", res, err)
	}
}

// A PAS manifest that claims chunks far longer than its segment files hold
// is refused with 400 by the publish probe, which reads the claimed bytes
// into no buffer on the way.
func TestPublishRejectsClaimedChunkLength(t *testing.T) {
	_, client := newTestServer(t)
	root, _ := makeArchivedRepo(t)
	path := filepath.Join(root, ".dlv", "pas", "manifest.json")
	blob, err := pas.ManifestJSON(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	const claim = 64 << 20
	segs := man["segments"].([]any)
	for _, c := range man["chunks"].([]any) {
		chunk := c.(map[string]any)
		seg, _ := chunk["seg"].(json.Number).Int64()
		off, _ := chunk["off"].(json.Number).Int64()
		chunk["len"] = claim
		segs[seg].(map[string]any)["size"] = off + claim
	}
	if blob, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	status, msg := postPublish(t, client, "claimed", packBytes(t, root))
	if status != http.StatusBadRequest || !strings.Contains(msg, "archived weights unreadable") {
		t.Fatalf("publish of a manifest claiming %d-byte chunks = %d %q, want 400 from the probe", claim, status, msg)
	}
}

// A published repository whose catalog has a version without its network
// definition, in either catalog form, is refused with 400 like any other
// bad archive, and no handler panics on the way.
func TestPublishRejectsCatalogWithoutNetdef(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	panics := obs.GetCounter("hub.http.panics")
	before := panics.Value()
	_, client := newTestServer(t)
	for form, catalog := range map[string]string{
		"tables": `{"tables":[{"schema":{"name":"model_version","columns":[{"name":"id","type":0,"primary":true},` +
			`{"name":"name","type":2,"indexed":true},{"name":"netdef","type":2},{"name":"msg","type":2},` +
			`{"name":"created","type":2},{"name":"accuracy","type":1},{"name":"archived","type":3}]},` +
			`"rows":[{"id":1,"name":"m","archived":false}]}]}`,
		"versions": `{"versions":[{"ID":1,"Name":"m"}]}`,
	} {
		blob := tarGz(t, map[string]string{".dlv/catalog.json": catalog})
		if status, msg := postPublish(t, client, "no-netdef-"+form, blob); status != http.StatusBadRequest {
			t.Fatalf("publish of a %s catalog without netdef = %d %q, want 400", form, status, msg)
		}
	}
	if got := panics.Value(); got != before {
		t.Fatalf("hub.http.panics moved %d -> %d", before, got)
	}
}

// Blobs packed as one gzip member at the levels PackRepo wrote before it
// stored segments — gzip's default (6) and then BestSpeed (1) — still
// publish, pull and check out bit-identically: hub nodes hold such blobs,
// and the format is the same tar.gz.
func TestDefaultLevelBlobStillPulls(t *testing.T) {
	_, client := newTestServer(t)
	root, truth := makeArchivedRepo(t)
	packed := packBytes(t, root)
	for _, level := range []int{6, gzip.BestSpeed} {
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			gz, err := gzip.NewReader(bytes.NewReader(packed))
			if err != nil {
				t.Fatal(err)
			}
			var old bytes.Buffer
			w, err := gzip.NewWriterLevel(&old, level)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(w, gz); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(old.Bytes(), packed) {
				t.Fatalf("the level-%d blob is the one PackRepo wrote", level)
			}
			name := fmt.Sprintf("level%d", level)
			if status, msg := postPublish(t, client, name, old.Bytes()); status != http.StatusOK {
				t.Fatalf("publish of a level-%d blob = %d %q", level, status, msg)
			}
			dest := t.TempDir()
			if err := client.Pull(context.Background(), name, dest); err != nil {
				t.Fatal(err)
			}
			checkSnapshots(t, dest, truth)
		})
	}
}

// PackRepo stores segments and deflates the rest, each run of one kind in
// its own gzip member, and so its blob is no larger than the same tar as one
// level-1 member, the codec it replaced: the stored segment gives up only
// what deflate could not find in compressed data.
func TestPackRepoStoresSegmentsInOwnMember(t *testing.T) {
	root, _ := makeArchivedRepo(t)
	packed := packBytes(t, root)
	gz, err := gzip.NewReader(bytes.NewReader(packed))
	if err != nil {
		t.Fatal(err)
	}
	var level1 bytes.Buffer
	w, err := gzip.NewWriterLevel(&level1, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(w, gz); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(packed) > level1.Len() {
		t.Fatalf("PackRepo's blob is %d bytes, larger than the %d of one level-1 member", len(packed), level1.Len())
	}

	// Read member by member. Each starts on an entry's header, so its tar
	// entries list on their own. A member that holds a segment holds only
	// segments, in stored blocks (at least as many bytes out as in); every
	// other member shrank.
	r := bytes.NewReader(packed)
	if err := gz.Reset(r); err != nil {
		t.Fatal(err)
	}
	segments := 0
	for {
		gz.Multistream(false)
		start := r.Len()
		var member bytes.Buffer
		if _, err := io.Copy(&member, gz); err != nil {
			t.Fatal(err)
		}
		in, out := member.Len(), start-r.Len()
		var names []string
		tr := tar.NewReader(&member)
		for {
			hdr, err := tr.Next()
			if err != nil {
				break // the end marker, or a member that ends mid-archive
			}
			names = append(names, hdr.Name)
		}
		stored := len(names) > 0 && isSegment(names[0])
		for _, name := range names {
			if isSegment(name) != stored {
				t.Fatalf("member %q mixes segments and other entries", names)
			}
		}
		if stored {
			segments += len(names)
		}
		if stored != (out >= in) {
			t.Fatalf("member %q: %d bytes packed to %d", names, in, out)
		}
		if err := gz.Reset(r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if segments == 0 {
		t.Fatal("no member holds a segment")
	}
}

// A storedMember is a gzip member any gzip reader takes, CRC and size
// checked, for any length and any split into writes, and it adds only the
// header, the trailer and five bytes per block to what it carries.
func TestStoredMemberDecodes(t *testing.T) {
	data := make([]byte, 3*0xffff+7)
	for i := range data {
		data[i] = byte(i * 7919 >> 3)
	}
	for _, n := range []int{0, 1, 0xffff, 0xffff + 1, len(data)} {
		for _, chunk := range []int{1 << 20, 512, 0xffff} {
			var out bytes.Buffer
			m := &storedMember{w: &out}
			if err := m.begin(); err != nil {
				t.Fatal(err)
			}
			blocks := 1 // the empty final block
			for p := data[:n]; len(p) > 0; {
				k := min(chunk, len(p))
				if _, err := m.Write(p[:k]); err != nil {
					t.Fatal(err)
				}
				blocks += (k + 0xfffe) / 0xffff
				p = p[k:]
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if want := 10 + n + 5*blocks + 8; out.Len() != want {
				t.Fatalf("%d bytes in writes of %d: member is %d bytes, want %d", n, chunk, out.Len(), want)
			}
			gz, err := gzip.NewReader(&out)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(gz)
			if err != nil {
				t.Fatalf("%d bytes in writes of %d: %v", n, chunk, err)
			}
			if !bytes.Equal(got, data[:n]) {
				t.Fatalf("%d bytes in writes of %d decode to %d other bytes", n, chunk, len(got))
			}
		}
	}
}

// bombs are small archives that expand past the unpack bound at a publish
// limit of limit bytes: one big file, and many empty ones.
func bombs(tb testing.TB, limit int64) map[string][]byte {
	tb.Helper()
	bound := maxUnpackRatio * limit
	empties := map[string]string{}
	for i := int64(0); i <= bound/512; i++ {
		empties[fmt.Sprintf(".dlv/e%06d", i)] = ""
	}
	return map[string][]byte{
		"big file":    tarGz(tb, map[string]string{".dlv/catalog.json": strings.Repeat("\x00", int(2*bound))}),
		"empty files": tarGz(tb, empties),
	}
}

// A gzip bomb inside the publish limit is refused before it extracts past
// maxUnpackRatio × maxPublishBytes: UnpackRepo returns ErrHub, and a publish
// answers 400 and leaves nothing in the data or temp directories.
func TestUnpackBoundStopsBomb(t *testing.T) {
	old := maxPublishBytes
	maxPublishBytes = 16 << 10
	t.Cleanup(func() { maxPublishBytes = old })
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // inspect unpacks under os.TempDir
	dir := t.TempDir()
	srv := newStore(t, dir)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClientWith(ts.URL, Options{})
	bound := maxUnpackRatio * maxPublishBytes
	for kind, bomb := range bombs(t, maxPublishBytes) {
		if int64(len(bomb)) > maxPublishBytes {
			t.Fatalf("%s bomb is %d bytes, over the %d-byte publish limit", kind, len(bomb), maxPublishBytes)
		}
		root := t.TempDir()
		if err := UnpackRepo(bytes.NewReader(bomb), root); !errors.Is(err, ErrHub) {
			t.Fatalf("%s bomb unpacked: %v", kind, err)
		}
		if n := treeBytes(t, root); n > bound {
			t.Fatalf("%s bomb extracted %d bytes, bound %d", kind, n, bound)
		}
		if status, msg := postPublish(t, client, "bomb", bomb); status != http.StatusBadRequest ||
			!strings.Contains(msg, "expands past") {
			t.Fatalf("%s bomb publish = %d %q, want 400", kind, status, msg)
		}
	}
	for _, d := range []string{srv.dir, tmp} {
		for _, f := range serverFiles(t, d) {
			t.Errorf("bomb publish left %q in %s", f, d)
		}
	}
	if res := searchBody(t, srv, "bomb"); res != "[]\n" {
		t.Fatalf("search after bomb = %q", res)
	}
}

// treeBytes sums the sizes of the regular files under root.
func treeBytes(tb testing.TB, root string) int64 {
	tb.Helper()
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// FuzzUnpackRepo: whatever the archive, UnpackRepo does not panic, writes
// nothing outside root, extracts no more than the unpack bound, and reports
// failures as ErrHub.
func FuzzUnpackRepo(f *testing.F) {
	old := maxPublishBytes
	maxPublishBytes = 16 << 10 // a 512 KiB bound keeps every input small on disk
	f.Cleanup(func() { maxPublishBytes = old })
	root, _ := makeArchivedRepo(f)
	var packed bytes.Buffer
	if err := PackRepo(root, &packed); err != nil {
		f.Fatal(err)
	}
	f.Add(packed.Bytes())
	for _, name := range []string{"../evil", "..", ".dlv/../../evil", "/abs/evil", "..foo", ".dlv/..cache"} {
		f.Add(tarGz(f, map[string]string{name: "evil"}))
	}
	f.Add(bombs(f, 1<<10)["big file"])
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		root := filepath.Join(dir, "root")
		if err := os.Mkdir(root, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := UnpackRepo(bytes.NewReader(blob), root); err != nil && !errors.Is(err, ErrHub) {
			t.Fatalf("error not wrapped as ErrHub: %v", err)
		}
		if got := serverFiles(t, dir); len(got) != 1 || got[0] != "root" {
			t.Fatalf("wrote outside root: %v", got)
		}
		for _, e := range serverFiles(t, root) {
			if e != ".dlv" {
				t.Fatalf("wrote %q outside root/.dlv", e)
			}
		}
		if n, bound := treeBytes(t, root), maxUnpackRatio*maxPublishBytes; n > bound {
			t.Fatalf("extracted %d bytes past the %d-byte bound", n, bound)
		}
	})
}

func BenchmarkPackRepo(b *testing.B) {
	root, _ := makeArchivedRepo(b)
	b.SetBytes(treeBytes(b, root))
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := PackRepo(root, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackRepo(b *testing.B) {
	root, _ := makeArchivedRepo(b)
	b.SetBytes(treeBytes(b, root))
	var buf bytes.Buffer
	if err := PackRepo(root, &buf); err != nil {
		b.Fatal(err)
	}
	dest := filepath.Join(b.TempDir(), "dest")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := UnpackRepo(bytes.NewReader(buf.Bytes()), dest); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(dest); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// v3Repository assembles, in a temp dir, a repository whose archive an
// earlier build wrote with a version-3 (JSON) manifest: the PAS archive
// internal/pas/testdata/v3 and the catalog that build wrote beside it. It
// returns the root and the archive's manifest bytes.
func v3Repository(t *testing.T) (string, []byte) {
	t.Helper()
	root := t.TempDir()
	meta := filepath.Join(root, ".dlv")
	archive := filepath.Join("..", "pas", "testdata", "v3")
	if err := os.CopyFS(filepath.Join(meta, "pas"), os.DirFS(archive)); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"objects", "weights"} {
		if err := os.MkdirAll(filepath.Join(meta, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	catalog, err := os.ReadFile(filepath.Join("testdata", "v3-catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(meta, "catalog.json"), catalog, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(archive, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	return root, manifest
}

// A repository archived with a version-3 manifest publishes, pulls and
// checks out bit-identically, and arrives with its manifest bytes as they
// were: hub nodes hold such blobs under their digests.
func TestPublishVersion3Archive(t *testing.T) {
	_, client := newTestServer(t)
	root, manifest := v3Repository(t)
	if !bytes.HasPrefix(manifest, []byte(`{"version":3,`)) {
		t.Fatalf("the fixture manifest opens %.20q, not a version-3 JSON object", manifest)
	}
	src, err := dlv.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	versions, err := src.List()
	if err != nil {
		t.Fatal(err)
	}
	truth := snapshots{}
	for _, v := range versions {
		for _, snap := range v.Snapshots {
			if truth[fmt.Sprintf("v%d/%s", v.ID, snap)], err = src.Weights(v.ID, snap, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(truth) != 5 {
		t.Fatalf("the fixture holds %d snapshots, want 5", len(truth))
	}
	if err := client.Publish(context.Background(), root, "v3"); err != nil {
		t.Fatal(err)
	}
	dest := t.TempDir()
	if err := client.Pull(context.Background(), "v3", dest); err != nil {
		t.Fatal(err)
	}
	pulled, err := os.ReadFile(filepath.Join(dest, ".dlv", "pas", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pulled, manifest) {
		t.Fatal("the pulled manifest is not the published version-3 manifest")
	}
	checkSnapshots(t, dest, truth)
}

// deletedHandles counts this process's open descriptors on unlinked files
// whose path contains part, read from /proc/self/fd; it skips the test where
// there is none.
func deletedHandles(t *testing.T, part string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to read: %v", err)
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.Contains(target, part) && strings.HasSuffix(target, " (deleted)") {
			n++
		}
	}
	return n
}

// The publish probe closes the archive it read before it removes the
// unpacked copy, so no inspect leaves a descriptor on an unlinked segment
// file. The collector is off: a finalizer would otherwise close a leaked
// handle at its own pace and hide the leak.
func TestInspectClosesTheArchive(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	root, _ := makeArchivedRepo(t)
	spool := filepath.Join(t.TempDir(), "repo.tar.gz")
	if err := os.WriteFile(spool, packBytes(t, root), 0o644); err != nil {
		t.Fatal(err)
	}
	const inspects = 5
	before := deletedHandles(t, "hub-inspect-")
	for range inspects {
		if _, err := inspectArchive(context.Background(), spool); err != nil {
			t.Fatal(err)
		}
	}
	if n := deletedHandles(t, "hub-inspect-") - before; n != 0 {
		t.Fatalf("%d inspects left %d descriptors on unlinked files", inspects, n)
	}
}
