package hub

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"modelhub/internal/obs"
)

// packBytes packs the repo at root into memory.
func packBytes(t *testing.T, root string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := PackRepo(root, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// publishTo drives one publish through the real HTTP API and fails the test
// on a non-200.
func publishTo(t *testing.T, client *Client, root, name string) {
	t.Helper()
	if err := client.Publish(context.Background(), root, name); err != nil {
		t.Fatal(err)
	}
}

// serverFiles lists the base names in a server data directory.
func serverFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// An upload cut mid-stream must leave no visible server state: no index
// entry, no blob, no temp file.
func TestPublishCutUploadLeavesNoState(t *testing.T) {
	dir := t.TempDir()
	srv := newStore(t, dir)
	blob := packBytes(t, makeRepo(t, "m"))
	for _, cutAt := range []int{1, len(blob) / 2, len(blob) - 1} {
		req := httptest.NewRequest(http.MethodPost, "/api/publish?name=r",
			io.MultiReader(bytes.NewReader(blob[:cutAt]), &errorReader{}))
		rec := httptest.NewRecorder()
		srv.handlePublish(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("cut at %d: status = %d, want 400", cutAt, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "upload aborted") {
			t.Fatalf("cut at %d: body = %q", cutAt, rec.Body.String())
		}
	}
	for _, f := range serverFiles(t, srv.dir) {
		t.Errorf("failed publish left %q in the data dir", f)
	}
	if res := searchBody(t, srv, "r"); res != "[]\n" {
		t.Fatalf("search after failed publishes = %q", res)
	}
}

type errorReader struct{}

func (errorReader) Read([]byte) (int, error) { return 0, errors.New("injected upload cut") }

// Every publish entrance — an owner node, a non-owner node that relays, the
// gateway — answers a rejected upload alike: 413 for the size limit only, 400
// for a digest mismatch (counted once) or a cut body, and no file left in any
// data or spool directory.
func TestPublishStatusDistinguishesLimitFromDisconnect(t *testing.T) {
	old := maxPublishBytes
	maxPublishBytes = 1024
	t.Cleanup(func() { maxPublishBytes = old })
	obs.Enable()
	t.Cleanup(obs.Disable)
	spoolDir := t.TempDir()
	t.Setenv("TMPDIR", spoolDir) // the gateway spools under os.TempDir

	const name = "r"
	tc := newTestCluster(t, 2, 1)
	gw, _ := gatewayFor(t, tc)
	owner := 0
	if !tc.nodes[0].server().cluster.ring.Owns(name, tc.urls[0], 1) {
		owner = 1
	}
	entrances := []struct {
		name    string
		handler http.Handler
	}{
		{"owner", tc.nodes[owner].server().Handler()},
		{"non-owner", tc.nodes[1-owner].server().Handler()},
		{"gateway", gw.Handler()},
	}
	small := []byte("not even a tarball")
	failures := []struct {
		name       string
		body       func() io.Reader
		digest     string
		status     int
		mismatches int64
		msg        string
	}{
		{"oversize", func() io.Reader { return bytes.NewReader(make([]byte, 4096)) }, "",
			http.StatusRequestEntityTooLarge, 0, "publish limit"},
		{"digest mismatch", func() io.Reader { return bytes.NewReader(small) }, strings.Repeat("f", 64),
			http.StatusBadRequest, 1, "digest mismatch"},
		{"cut body", func() io.Reader { return io.MultiReader(bytes.NewReader(small), errorReader{}) }, "",
			http.StatusBadRequest, 0, "upload aborted"},
	}
	for _, e := range entrances {
		for _, f := range failures {
			req := httptest.NewRequest(http.MethodPost, "/api/publish?name="+name, f.body())
			if f.digest != "" {
				req.Header.Set(DigestHeader, f.digest)
			}
			before := mDigestMismatch.Value()
			rec := httptest.NewRecorder()
			e.handler.ServeHTTP(rec, req)
			if rec.Code != f.status || !strings.Contains(rec.Body.String(), f.msg) {
				t.Errorf("%s, %s: answered %d %q, want %d with %q", e.name, f.name, rec.Code, rec.Body.String(), f.status, f.msg)
			}
			if got := mDigestMismatch.Value() - before; got != f.mismatches {
				t.Errorf("%s, %s: hub.transfer.digest_mismatch moved by %d, want %d", e.name, f.name, got, f.mismatches)
			}
			for _, dir := range []string{tc.nodes[0].server().dir, tc.nodes[1].server().dir, spoolDir} {
				for _, left := range serverFiles(t, dir) {
					t.Errorf("%s, %s: left %q in %s", e.name, f.name, left, dir)
				}
			}
		}
	}
}

// A publish whose body does not match its declared digest is rejected
// before anything is promoted.
func TestPublishDigestHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	srv := newStore(t, dir)
	req := httptest.NewRequest(http.MethodPost, "/api/publish?name=r",
		bytes.NewReader(packBytes(t, makeRepo(t, "m"))))
	req.Header.Set(DigestHeader, strings.Repeat("f", 64))
	rec := httptest.NewRecorder()
	srv.handlePublish(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "digest mismatch") {
		t.Fatalf("publish = %d %q", rec.Code, rec.Body.String())
	}
	for _, f := range serverFiles(t, srv.dir) {
		t.Errorf("rejected publish left %q", f)
	}
}

// searchBody fetches the raw search response body.
func searchBody(t *testing.T, srv *Server, q string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/api/search?q="+q, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("search status = %d", rec.Code)
	}
	return rec.Body.String()
}

// An empty result set must encode as the JSON array literal [], not null.
func TestSearchEmptyEncodesAsArray(t *testing.T) {
	srv := newStore(t, t.TempDir())
	if body := searchBody(t, srv, "nothing-matches"); body != "[]\n" {
		t.Fatalf("empty search body = %q, want \"[]\\n\"", body)
	}
}

// Pulls carry Content-Length, the digest header, a digest ETag, and honour
// Range requests with correct 206 semantics.
func TestPullHeadersAndRange(t *testing.T) {
	_, client := newTestServer(t)
	publishTo(t, client, makeRepo(t, "m"), "r")
	infos, err := client.Search(context.Background(), "r")
	if err != nil || len(infos) != 1 {
		t.Fatalf("search = %v, %v", infos, err)
	}
	resp, err := http.Get(client.Base + "/api/pull?name=r")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pull = %d, %v", resp.StatusCode, err)
	}
	if int64(len(body)) != infos[0].SizeBytes || resp.ContentLength != infos[0].SizeBytes {
		t.Fatalf("len(body) = %d, Content-Length = %d, want %d", len(body), resp.ContentLength, infos[0].SizeBytes)
	}
	sum := sha256.Sum256(body)
	if got := resp.Header.Get(DigestHeader); got != digestString(sum[:]) || got != infos[0].SHA256 {
		t.Fatalf("digest header = %q, body digest = %q, index digest = %q", got, digestString(sum[:]), infos[0].SHA256)
	}
	if etag := resp.Header.Get("ETag"); etag != etagFor(infos[0].SHA256) {
		t.Fatalf("ETag = %q", etag)
	}

	// Resume from byte 10 with the matching If-Range.
	req, err := http.NewRequest(http.MethodGet, client.Base+"/api/pull?name=r", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", "bytes=10-")
	req.Header.Set("If-Range", etagFor(infos[0].SHA256))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(resp2.Body)
	_ = resp2.Body.Close()
	if err != nil || resp2.StatusCode != http.StatusPartialContent {
		t.Fatalf("range pull = %d, %v", resp2.StatusCode, err)
	}
	if want := fmt.Sprintf("bytes 10-%d/%d", len(body)-1, len(body)); resp2.Header.Get("Content-Range") != want {
		t.Fatalf("Content-Range = %q, want %q", resp2.Header.Get("Content-Range"), want)
	}
	if !bytes.Equal(rest, body[10:]) {
		t.Fatal("range pull body differs from the archive suffix")
	}
	// A stale If-Range (content replaced) falls back to a full 200 body.
	req.Header.Set("If-Range", etagFor(strings.Repeat("0", 64)))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	full, err := io.ReadAll(resp3.Body)
	_ = resp3.Body.Close()
	if err != nil || resp3.StatusCode != http.StatusOK || !bytes.Equal(full, body) {
		t.Fatalf("stale If-Range: status %d, %d bytes, %v", resp3.StatusCode, len(full), err)
	}
}

// A crash between blob promotion and its record write (fresh name) must be
// unobservable after restart: the orphan blob is swept, search stays empty.
func TestReconcileSweepsOrphanBlob(t *testing.T) {
	dir := t.TempDir()
	srv := newStore(t, dir)
	ts := httptest.NewServer(srv.Handler())
	client := NewClientWith(ts.URL, Options{})
	publishTo(t, client, makeRepo(t, "m"), "kept")
	ts.Close()

	// Simulate the crash: a promoted blob for a name the index never saw.
	blob := packBytes(t, makeRepo(t, "ghost-model"))
	sum := sha256.Sum256(blob)
	orphan := srv.blobPath("ghost", digestString(sum[:]))
	if err := os.WriteFile(orphan, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := newStore(t, dir)
	if body := searchBody(t, srv2, "ghost"); body != "[]\n" {
		t.Fatalf("orphan blob became visible: %q", body)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan blob survived reconciliation")
	}
	if body := searchBody(t, srv2, "kept"); !strings.Contains(body, `"kept"`) {
		t.Fatalf("committed publish lost in reconciliation: %q", body)
	}
}

// A crash during a REpublish (new blob promoted, record not yet written) must
// leave the previous version fully intact after restart.
func TestReconcileRepublishCrashKeepsOldVersion(t *testing.T) {
	dir := t.TempDir()
	srv := newStore(t, dir)
	ts := httptest.NewServer(srv.Handler())
	client := NewClientWith(ts.URL, Options{})
	publishTo(t, client, makeRepo(t, "v1-model"), "r")
	infos, err := client.Search(context.Background(), "r")
	if err != nil || len(infos) != 1 {
		t.Fatalf("search = %v, %v", infos, err)
	}
	oldDigest := infos[0].SHA256
	ts.Close()

	// The crashed republish: its blob landed, its record never did.
	newBlob := packBytes(t, makeRepo(t, "v2-model"))
	sum := sha256.Sum256(newBlob)
	stranded := srv.blobPath("r", digestString(sum[:]))
	if err := os.WriteFile(stranded, newBlob, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := newStore(t, dir)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client2 := NewClientWith(ts2.URL, Options{})
	infos2, err := client2.Search(context.Background(), "r")
	if err != nil || len(infos2) != 1 || infos2[0].SHA256 != oldDigest {
		t.Fatalf("after crash-restart: %+v, %v (want digest %s)", infos2, err, oldDigest)
	}
	if len(infos2[0].Models) != 1 || infos2[0].Models[0] != "v1-model" {
		t.Fatalf("models after crash-restart = %v", infos2[0].Models)
	}
	if _, err := os.Stat(stranded); !os.IsNotExist(err) {
		t.Fatal("stranded republish blob survived reconciliation")
	}
	// And the old version still pulls + digest-verifies end to end.
	dest := t.TempDir()
	if err := client2.Pull(context.Background(), "r", dest); err != nil {
		t.Fatal(err)
	}
}

// An index entry whose blob is gone must be dropped at load, not serve 500s.
func TestReconcileDropsIndexedButMissing(t *testing.T) {
	dir := t.TempDir()
	srv := newStore(t, dir)
	ts := httptest.NewServer(srv.Handler())
	client := NewClientWith(ts.URL, Options{})
	publishTo(t, client, makeRepo(t, "m"), "gone")
	infos, err := client.Search(context.Background(), "gone")
	if err != nil || len(infos) != 1 {
		t.Fatalf("search = %v, %v", infos, err)
	}
	ts.Close()
	if err := os.Remove(srv.blobPath("gone", infos[0].SHA256)); err != nil {
		t.Fatal(err)
	}
	srv2 := newStore(t, dir)
	if body := searchBody(t, srv2, "gone"); body != "[]\n" {
		t.Fatalf("missing-blob entry still visible: %q", body)
	}
}

// A pre-digest data directory (<name>.tar.gz blobs, no sha256 in the index)
// is not read: NewServer fails with ErrHub, and the blob, the index and
// even a stray temp file are left byte for byte.
func TestNewServerRefusesPreDigestLayout(t *testing.T) {
	dir := t.TempDir()
	idxBlob, err := json.Marshal(map[string]RepoInfo{"legacy": {
		Name: "legacy", SizeBytes: 3, PublishedAt: "2026-01-01T00:00:00Z", Models: []string{"old-model"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"legacy.tar.gz":         packBytes(t, makeRepo(t, "old-model")),
		"index.json":            idxBlob,
		tmpPrefix + "publish-1": []byte("partial upload"),
	}
	for name, blob := range files {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewServer(dir); !errors.Is(err, ErrHub) {
		t.Fatalf("NewServer on a pre-digest directory = %v, want ErrHub", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("the directory holds %d entries after the refusal, want %d", len(entries), len(files))
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed after the refusal (%v)", name, err)
		}
	}
}

// Stray temp files from in-flight publishes are removed at startup.
func TestReconcileRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	srv := newStore(t, dir)
	stray := filepath.Join(srv.dir, tmpPrefix+"publish-12345")
	if err := os.WriteFile(stray, []byte("partial upload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("temp file survived startup reconciliation")
	}
}

// The torn-blob race: concurrent publishes, pulls, and searches on one name
// must never let a pull observe bytes that do not hash to the digest the
// server advertised for them.
func TestConcurrentPublishPullSearch(t *testing.T) {
	_, client := newTestServer(t)
	roots := []string{makeRepo(t, "gen1"), makeRepo(t, "gen2")}
	publishTo(t, client, roots[0], "hammer")

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := client.Publish(context.Background(), roots[(p+i)%2], "hammer"); err != nil {
					report("publish: %v", err)
				}
			}
		}(p)
	}
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				resp, err := http.Get(client.Base + "/api/pull?name=hammer")
				if err != nil {
					report("pull: %v", err)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					report("pull read: %d, %v", resp.StatusCode, err)
					continue
				}
				sum := sha256.Sum256(body)
				if got, want := digestString(sum[:]), resp.Header.Get(DigestHeader); got != want {
					report("torn pull: body digest %s, advertised %s", got, want)
				}
				if int64(len(body)) != resp.ContentLength {
					report("short pull: %d of %d bytes", len(body), resp.ContentLength)
				}
			}
		}()
	}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := client.Search(context.Background(), "hammer"); err != nil {
					report("search: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
