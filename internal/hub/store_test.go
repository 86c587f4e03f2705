package hub

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// commitBytes commits body as name's blob through spool and commit, as a
// client publish without an HTTP round trip or an archive inspect: the
// store is what these tests exercise.
func commitBytes(tb testing.TB, srv *Server, name, body string) RepoInfo {
	tb.Helper()
	info, err := commitBody(srv, name, body)
	if err != nil {
		tb.Fatal(err)
	}
	return info
}

func commitBody(srv *Server, name, body string) (RepoInfo, error) {
	sp, err := spool(srv.dir, strings.NewReader(body), "")
	if err != nil {
		return RepoInfo{}, err
	}
	info, _, err := srv.commit(sp, RepoInfo{Name: name, SizeBytes: sp.size, Models: []string{"m"}, SHA256: sp.digest})
	return info, err
}

// newStore starts a server over dir.
func newStore(tb testing.TB, dir string) *Server {
	tb.Helper()
	srv, err := NewServer(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// writeFiles writes name → body files into dir.
func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirBytes reads every file of a flat directory.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range serverFiles(t, dir) {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = blob
	}
	return out
}

// refused asserts that NewServer refuses dir with ErrHub and leaves every
// file of the flat directory flat byte for byte.
func refused(t *testing.T, dir, flat string) {
	t.Helper()
	before := dirBytes(t, flat)
	if _, err := NewServer(dir); !errors.Is(err, ErrHub) {
		t.Fatalf("NewServer = %v, want ErrHub", err)
	}
	if after := dirBytes(t, flat); !reflect.DeepEqual(after, before) {
		t.Fatalf("the directory changed after the refusal: %d files before, %d after", len(before), len(after))
	}
}

// A crash between two steps of a commit leaves a blob without its record, a
// record without its blob, two complete pairs for one name, or temp files.
// None of them was acknowledged except the newer pair; startup keeps exactly
// the entry's two files and removes the rest.
func TestNewServerCrashStates(t *testing.T) {
	for _, c := range []struct {
		name              string
		blob, record, tmp bool
		shift             time.Duration // the planted stamp against the kept one
		plantedWins       bool
	}{
		{name: "blob only", blob: true, shift: time.Second},
		{name: "record only", record: true, shift: time.Second},
		{name: "newer pair", blob: true, record: true, shift: time.Nanosecond, plantedWins: true},
		{name: "older pair", blob: true, record: true, shift: -time.Second},
		{name: "tmp files", tmp: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			srv := newStore(t, dir)
			kept := commitBytes(t, srv, "r", "v1")
			sum := sha256.Sum256([]byte("v2"))
			planted := kept
			planted.SHA256 = digestString(sum[:])
			planted.PublishedAt = publishedInstant(kept).Add(c.shift).Format(time.RFC3339Nano)
			meta, err := json.Marshal(planted)
			if err != nil {
				t.Fatal(err)
			}
			files := map[string]string{}
			if c.blob {
				files[blobFileName("r", planted.SHA256)] = "v2"
			}
			if c.record {
				files[recordFileName("r", planted.SHA256)] = string(meta)
			}
			if c.tmp {
				files[tmpPrefix+"spool-1"], files[tmpPrefix+"2"] = "partial upload", "partial record"
			}
			writeFiles(t, srv.dir, files)
			want := kept
			if c.plantedWins {
				want = planted
			}
			if got := newStore(t, dir).index; !reflect.DeepEqual(got, map[string]RepoInfo{"r": want}) {
				t.Fatalf("index after restart = %v, want r = %v", got, want)
			}
			wantFiles := []string{recordFileName("r", want.SHA256), blobFileName("r", want.SHA256)}
			if got := serverFiles(t, srv.dir); !slices.Equal(got, wantFiles) {
				t.Fatalf("the store holds %q, want %q", got, wantFiles)
			}
		})
	}
}

// A data directory in a retired layout — the pre-digest <name>.tar.gz
// blobs, or digest-named blobs beside index.json and index.log — is refused
// and left byte for byte: this build reads only what it writes.
func TestNewServerRefusesRetiredLayouts(t *testing.T) {
	for _, c := range []struct{ name, file string }{
		{"pre-digest blob", "legacy.tar.gz"},
		{"digest blob", blobFileName("r", strings.Repeat("0", 64))},
		{"index.json", "index.json"},
		{"index.log", "index.log"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFiles(t, dir, map[string]string{c.file: "retired", tmpPrefix + "1": "partial upload"})
			refused(t, dir, dir)
		})
	}
}

// A record that does not decode, or does not name the file it sits in, is
// corruption of an acknowledged commit: the server refuses the directory
// with ErrHub and deletes nothing, not even the temp file it would sweep.
func TestNewServerRefusesCorruptRecords(t *testing.T) {
	zero, upper := strings.Repeat("0", 64), strings.Repeat("A", 64)
	good := fmt.Sprintf(`{"name":"r","published_at":"2026-01-01T00:00:00Z","sha256":%q}`, zero)
	for _, c := range []struct{ name, file, body string }{
		{"garbage", recordFileName("r", zero), "garbage"},
		{"empty file", recordFileName("r", zero), ""},
		{"JSON null", recordFileName("r", zero), "null"},
		{"no digest", recordFileName("r", zero), `{"name":"r"}`},
		{"bad name", recordFileName("r", zero), fmt.Sprintf(`{"name":"../r","sha256":%q}`, zero)},
		{"name differs from file name", recordFileName("q", zero), good},
		{"digest differs from file name", recordFileName("r", strings.Repeat("1", 64)), good},
		{"upper-case digest", recordFileName("r", upper), fmt.Sprintf(`{"name":"r","sha256":%q}`, upper)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			srv := newStore(t, dir)
			commitBytes(t, srv, "a", "a")
			writeFiles(t, srv.dir, map[string]string{c.file: c.body, tmpPrefix + "1": "partial upload"})
			refused(t, dir, srv.dir)
		})
	}
}

// Commits of many names from many goroutines, each name republished: the
// index a restart loads is the one the server held, and the store holds
// exactly one record and one blob per name.
func TestConcurrentCommitsKeepEveryRecord(t *testing.T) {
	dir := t.TempDir()
	srv := newStore(t, dir)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("g%d-%d", g, i%5)
				if _, err := commitBody(srv, name, fmt.Sprintf("%s body %d", name, i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := maps.Clone(srv.index)
	if len(want) != 20 {
		t.Fatalf("%d names indexed, want 20", len(want))
	}
	if got := newStore(t, dir).index; !reflect.DeepEqual(got, want) {
		t.Fatalf("index after restart = %v, want %v", got, want)
	}
	var wantFiles []string
	for name, info := range want {
		wantFiles = append(wantFiles, blobFileName(name, info.SHA256), recordFileName(name, info.SHA256))
	}
	slices.Sort(wantFiles)
	if got := serverFiles(t, srv.dir); !slices.Equal(got, wantFiles) {
		t.Fatalf("the store holds %d files, want %d", len(got), len(wantFiles))
	}
}

// preloadStore writes a store of n names straight into dir, each a record
// and an (empty) blob, and returns one of the records.
func preloadStore(tb testing.TB, dir string, n int) RepoInfo {
	tb.Helper()
	store := filepath.Join(dir, storeDir)
	if err := os.MkdirAll(store, 0o755); err != nil {
		tb.Fatal(err)
	}
	var last RepoInfo
	for i := 0; i < n; i++ {
		last = RepoInfo{Name: fmt.Sprintf("repo-%05d", i), SizeBytes: 1, PublishedAt: "2026-01-01T00:00:00Z",
			Models: []string{"m"}, SHA256: fmt.Sprintf("%064x", i)}
		meta, err := json.Marshal(last)
		if err == nil {
			err = os.WriteFile(filepath.Join(store, recordFileName(last.Name, last.SHA256)), meta, 0o644)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(store, blobFileName(last.Name, last.SHA256)), nil, 0o644)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return last
}

// A commit's index work does not grow with the index: over 5,000 names, a
// new name adds exactly its record and blob, and a republish swaps its
// name's pair for the new one. No other file changes.
func TestCommitAppendsOneRecord(t *testing.T) {
	dir := t.TempDir()
	old := preloadStore(t, dir, 5000)
	srv := newStore(t, dir)
	files := serverFiles(t, srv.dir)
	for i, name := range []string{"fresh", old.Name} {
		info := commitBytes(t, srv, name, "new body")
		files = append(files, recordFileName(name, info.SHA256), blobFileName(name, info.SHA256))
		if i == 1 {
			files = slices.DeleteFunc(files, func(f string) bool {
				return f == recordFileName(name, old.SHA256) || f == blobFileName(name, old.SHA256)
			})
		}
		slices.Sort(files)
		if got := serverFiles(t, srv.dir); !slices.Equal(got, files) {
			t.Fatalf("commit %d: the store holds %d files, want %d", i, len(got), len(files))
		}
	}
	if got := srv.index[old.Name].SHA256; got == old.SHA256 {
		t.Fatal("the republish did not replace the record")
	}
}

// BenchmarkIndexCommit times the index side of one commit, its record write
// (temp file, fsync, rename, directory fsync), at 1 and 5,000 names. Each
// iteration rewrites the record of a name already stored.
func BenchmarkIndexCommit(b *testing.B) {
	for _, n := range []int{1, 5000} {
		b.Run(fmt.Sprintf("names=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			info := preloadStore(b, dir, n)
			srv := newStore(b, dir)
			for b.Loop() {
				if err := srv.writeRecord(info); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewServer times a startup over 5,000 stored names: one scan of
// the store and one small file read per record.
func BenchmarkNewServer(b *testing.B) {
	dir := b.TempDir()
	preloadStore(b, dir, 5000)
	for b.Loop() {
		newStore(b, dir)
	}
}

// FuzzReadRecord decodes hostile record files: the decoder never panics,
// refuses with ErrHub, and every record it accepts carries a valid name and
// digest and names the file it was read from.
func FuzzReadRecord(f *testing.F) {
	zero := strings.Repeat("0", 64)
	rec := fmt.Sprintf(`{"name":"a","size_bytes":1,"published_at":"2026-01-01T00:00:00Z","models":["m"],"sha256":%q}`, zero)
	f.Add(recordFileName("a", zero), []byte(rec))
	f.Add(recordFileName("b", zero), []byte(rec))
	f.Add(recordFileName("a", zero), []byte("null"))
	f.Add(recordFileName("a", zero), []byte(rec[:20]))
	f.Add("a.json", []byte(`{"name":"a"}`))
	f.Add("../a."+zero+".json", []byte(strings.Replace(rec, `"a"`, `"../a"`, 1)))
	f.Fuzz(func(t *testing.T, base string, blob []byte) {
		info, err := decodeRecord(base, blob)
		if err != nil {
			if !errors.Is(err, ErrHub) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if checkRecord(info) != nil || recordFileName(info.Name, info.SHA256) != base {
			t.Fatalf("accepted %+v from %q", info, base)
		}
	})
}
