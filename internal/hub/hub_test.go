package hub

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"errors"
	"io/fs"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"modelhub/internal/dlv"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// makeRepo builds a small repository with one committed model.
func makeRepo(t *testing.T, name string) string {
	t.Helper()
	root := t.TempDir()
	repo, err := dlv.Init(root)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	weights := map[string]*tensor.Matrix{
		"conv1": tensor.RandNormal(rng, 8, 10, 0.1),
		"ip2":   tensor.RandNormal(rng, 10, 65, 0.1),
	}
	if _, err := repo.Commit(dlv.CommitInput{
		Name: name, NetDef: zoo.LeNet(name), Final: weights, Accuracy: 0.9,
		Files: map[string][]byte{"notes.md": []byte("hello")},
	}); err != nil {
		t.Fatal(err)
	}
	return root
}

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := newStore(t, t.TempDir())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClientWith(ts.URL, Options{})
}

func TestPackUnpackRoundTrip(t *testing.T) {
	root := makeRepo(t, "lenet")
	var buf bytes.Buffer
	if err := PackRepo(root, &buf); err != nil {
		t.Fatal(err)
	}
	dest := t.TempDir()
	if err := UnpackRepo(bytes.NewReader(buf.Bytes()), dest); err != nil {
		t.Fatal(err)
	}
	repo, err := dlv.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	v, err := repo.VersionByName("lenet")
	if err != nil || v.Accuracy != 0.9 {
		t.Fatalf("unpacked repo: %+v, %v", v, err)
	}
	content, err := repo.GetObject(v.Files["notes.md"])
	if err != nil || string(content) != "hello" {
		t.Fatalf("object: %q, %v", content, err)
	}
}

func TestPackNonRepo(t *testing.T) {
	if err := PackRepo(t.TempDir(), &bytes.Buffer{}); !errors.Is(err, ErrHub) {
		t.Fatal("packing a non-repo must fail")
	}
}

// The same repository packs to the same bytes from any copy of it: tar
// headers carry content only, so two checkouts whose files differ in mtime
// publish under one digest and newerThan's digest tie-break compares content.
func TestPackIsContentOnly(t *testing.T) {
	root := makeRepo(t, "lenet")
	var first bytes.Buffer
	if err := PackRepo(root, &first); err != nil {
		t.Fatal(err)
	}
	copyRoot := t.TempDir()
	if err := UnpackRepo(bytes.NewReader(first.Bytes()), copyRoot); err != nil {
		t.Fatal(err)
	}
	stamp := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	if err := filepath.WalkDir(copyRoot, func(path string, _ fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		return os.Chtimes(path, stamp, stamp)
	}); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := PackRepo(copyRoot, &second); err != nil {
		t.Fatal(err)
	}
	if a, b := sha256.Sum256(first.Bytes()), sha256.Sum256(second.Bytes()); a != b {
		t.Fatalf("one repository packed from two copies: sha256 %x vs %x", a, b)
	}
}

func TestUnpackRejectsTraversal(t *testing.T) {
	evil := func(name string) []byte {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		tw := tar.NewWriter(gz)
		tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: 4, Typeflag: tar.TypeReg})
		tw.Write([]byte("evil"))
		tw.Close()
		gz.Close()
		return buf.Bytes()
	}
	for _, name := range []string{"../escape", "/abs", "outside.txt", ".dlv/../../x"} {
		if err := UnpackRepo(bytes.NewReader(evil(name)), t.TempDir()); !errors.Is(err, ErrHub) {
			t.Errorf("entry %q must be rejected", name)
		}
	}
}

func TestPublishSearchPull(t *testing.T) {
	_, client := newTestServer(t)
	root := makeRepo(t, "alexnet_v1")
	if err := client.Publish(context.Background(), root, "vision-models"); err != nil {
		t.Fatal(err)
	}
	// Search by repo name substring.
	res, err := client.Search(context.Background(), "vision")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "vision-models" || res[0].SizeBytes <= 0 {
		t.Fatalf("search = %+v", res)
	}
	if len(res[0].Models) != 1 || res[0].Models[0] != "alexnet_v1" {
		t.Fatalf("models = %v", res[0].Models)
	}
	// Search by model name substring.
	res, err = client.Search(context.Background(), "alexnet")
	if err != nil || len(res) != 1 {
		t.Fatalf("model search = %+v, %v", res, err)
	}
	// No match.
	res, err = client.Search(context.Background(), "zzz")
	if err != nil || len(res) != 0 {
		t.Fatalf("miss search = %+v, %v", res, err)
	}
	// Pull into a fresh root and open it.
	dest := t.TempDir()
	if err := client.Pull(context.Background(), "vision-models", dest); err != nil {
		t.Fatal(err)
	}
	repo, err := dlv.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.VersionByName("alexnet_v1"); err != nil {
		t.Fatal(err)
	}
}

func TestPublishRejectsBadNames(t *testing.T) {
	_, client := newTestServer(t)
	root := makeRepo(t, "m")
	for _, bad := range []string{"", "../evil", "a/b", ".hidden", "sp ace"} {
		if err := client.Publish(context.Background(), root, bad); err == nil {
			t.Errorf("name %q must be rejected", bad)
		}
	}
}

func TestPublishRejectsGarbage(t *testing.T) {
	_, client := newTestServer(t)
	resp, err := client.HTTP.Post(client.Base+"/api/publish?name=x", "application/gzip",
		bytes.NewReader([]byte("not a tarball")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("garbage archive must be rejected")
	}
}

func TestPullUnknown(t *testing.T) {
	_, client := newTestServer(t)
	if err := client.Pull(context.Background(), "ghost", t.TempDir()); !errors.Is(err, ErrHub) {
		t.Fatal("unknown pull must fail")
	}
}

func TestPullIntoExistingRepo(t *testing.T) {
	_, client := newTestServer(t)
	root := makeRepo(t, "m")
	if err := client.Publish(context.Background(), root, "r"); err != nil {
		t.Fatal(err)
	}
	if err := client.Pull(context.Background(), "r", root); !errors.Is(err, ErrHub) {
		t.Fatal("pull into existing repo must fail")
	}
}

func TestServerIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	srv := newStore(t, dir)
	ts := httptest.NewServer(srv.Handler())
	client := NewClientWith(ts.URL, Options{})
	if err := client.Publish(context.Background(), makeRepo(t, "m"), "persisted"); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	// Reload the server from the same directory.
	srv2 := newStore(t, dir)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	res, err := NewClientWith(ts2.URL, Options{}).Search(context.Background(), "persisted")
	if err != nil || len(res) != 1 {
		t.Fatalf("reloaded search = %+v, %v", res, err)
	}
}

func TestRepublishOverwrites(t *testing.T) {
	_, client := newTestServer(t)
	if err := client.Publish(context.Background(), makeRepo(t, "m1"), "r"); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(context.Background(), makeRepo(t, "m2"), "r"); err != nil {
		t.Fatal(err)
	}
	res, err := client.Search(context.Background(), "r")
	if err != nil || len(res) != 1 {
		t.Fatalf("search = %+v, %v", res, err)
	}
	if len(res[0].Models) != 1 || res[0].Models[0] != "m2" {
		t.Fatalf("republish did not overwrite: %v", res[0].Models)
	}
}

func TestClientUnreachableServer(t *testing.T) {
	client := NewClientWith("http://127.0.0.1:1", Options{}) // nothing listens there
	if err := client.Publish(context.Background(), makeRepo(t, "m"), "x"); !errors.Is(err, ErrHub) {
		t.Fatal("publish to dead server must fail with ErrHub")
	}
	if _, err := client.Search(context.Background(), "x"); !errors.Is(err, ErrHub) {
		t.Fatal("search against dead server must fail")
	}
	if err := client.Pull(context.Background(), "x", t.TempDir()); !errors.Is(err, ErrHub) {
		t.Fatal("pull from dead server must fail")
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	_, client := newTestServer(t)
	resp, err := client.HTTP.Get(client.Base + "/api/publish?name=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET publish = %d", resp.StatusCode)
	}
	resp, err = client.HTTP.Post(client.Base+"/api/search", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST search = %d", resp.StatusCode)
	}
	resp, err = client.HTTP.Post(client.Base+"/api/pull?name=x", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST pull = %d", resp.StatusCode)
	}
}

func TestServerCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	srv := newStore(t, dir)
	if err := os.WriteFile(srv.recordPath("r", strings.Repeat("0", 64)), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(dir); !errors.Is(err, ErrHub) {
		t.Fatal("corrupt index must fail to load")
	}
}

func TestValidateNameEdgeCases(t *testing.T) {
	long := strings.Repeat("a", 200)
	for _, bad := range []string{long, "a:b", "a\\b"} {
		if err := validateName(bad); err == nil {
			t.Errorf("name %q must be invalid", bad)
		}
	}
	for _, good := range []string{"repo-1", "A.B_c"} {
		if err := validateName(good); err != nil {
			t.Errorf("name %q must be valid: %v", good, err)
		}
	}
}
