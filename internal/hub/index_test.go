package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// commitBytes commits body as name's blob through spool and commit, without
// an HTTP round trip or an archive inspect: the index path is what these
// tests exercise.
func commitBytes(tb testing.TB, srv *Server, name, body string) RepoInfo {
	tb.Helper()
	sp, err := spool(srv.dir, strings.NewReader(body), "")
	if err != nil {
		tb.Fatal(err)
	}
	info := RepoInfo{Name: name, SizeBytes: sp.size, PublishedAt: "2026-01-01T00:00:00Z", Models: []string{"m"}, SHA256: sp.digest}
	if _, err := srv.commit(sp, info, acceptAlways); err != nil {
		tb.Fatal(err)
	}
	return info
}

// logLines returns the newline-terminated lines of dir's index log.
func logLines(t *testing.T, dir string) []string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	return lines[:len(lines)-1]
}

// readIndexFile decodes dir's index.json.
func readIndexFile(t *testing.T, dir string) map[string]RepoInfo {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	var idx map[string]RepoInfo
	if err := json.Unmarshal(blob, &idx); err != nil {
		t.Fatal(err)
	}
	return idx
}

// restartIndex starts a fresh server over dir and returns its index.
func restartIndex(t *testing.T, dir string) map[string]RepoInfo {
	t.Helper()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	return srv.index
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

// A commit appends one record to the log and writes nothing else; the log
// folds into index.json once it holds more records than the index has
// entries; records committed after the last fold survive a restart, which
// folds them too.
func TestIndexLogRecordsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		commitBytes(t, srv, name, "v1 of "+name)
	}
	if _, err := os.Stat(filepath.Join(dir, indexFile)); !os.IsNotExist(err) {
		t.Fatalf("index.json written before any fold: %v", err)
	}
	if got := logLines(t, dir); len(got) != 3 {
		t.Fatalf("log holds %d records after 3 commits, want 3", len(got))
	}
	// A fourth record outgrows the three-entry index: the log folds.
	commitBytes(t, srv, "a", "v2 of a")
	if got := logLines(t, dir); len(got) != 0 {
		t.Fatalf("log holds %d records after the fold, want 0", len(got))
	}
	if got := readIndexFile(t, dir); !reflect.DeepEqual(got, srv.index) {
		t.Fatalf("folded index.json = %v, want %v", got, srv.index)
	}
	d := commitBytes(t, srv, "d", "v1 of d")
	if got := logLines(t, dir); len(got) != 1 || !strings.Contains(got[0], d.SHA256) {
		t.Fatalf("log after one more commit = %q", got)
	}
	want := maps.Clone(srv.index)
	if got := restartIndex(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("index after restart = %v, want %v", got, want)
	}
	if got := logLines(t, dir); len(got) != 0 {
		t.Fatalf("log holds %d records after the startup fold, want 0", len(got))
	}
	if got := readIndexFile(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("index.json after the startup fold = %v, want %v", got, want)
	}
}

// A torn final line — cut before its newline, or down with its newline but
// not its body — is an append whose publish was never acknowledged: a
// restart drops it, and reconcile sweeps the blob it would have named.
func TestIndexLogDropsTornFinalLine(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(line string) string
	}{
		{"no newline", func(line string) string { return line[:len(line)-1] }},
		{"half a line", func(line string) string { return line[:len(line)/2] }},
		{"zeroed body", func(line string) string { return strings.Repeat("\x00", len(line)-1) + "\n" }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := NewServer(dir)
			if err != nil {
				t.Fatal(err)
			}
			commitBytes(t, srv, "a", "a")
			commitBytes(t, srv, "b", "b")
			want := maps.Clone(srv.index)
			// The torn commit: its blob was renamed in and its record
			// only partly reached the log.
			torn := commitBytes(t, srv, "c", "c")
			lines := logLines(t, dir)
			lines[2] = tear.cut(lines[2])
			if err := os.WriteFile(filepath.Join(dir, logFile), []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := restartIndex(t, dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("index after restart = %v, want %v", got, want)
			}
			if _, err := os.Stat(filepath.Join(dir, blobFileName("c", torn.SHA256))); !os.IsNotExist(err) {
				t.Fatalf("the unrecorded blob survived reconcile: %v", err)
			}
			if got := logLines(t, dir); len(got) != 0 {
				t.Fatalf("log holds %d lines after the startup fold, want 0", len(got))
			}
		})
	}
}

// A bad line before the last one, or a last line that is JSON but not a
// valid record, is corruption, not a torn append: a torn append never
// leaves a whole JSON value. The server refuses the directory with ErrHub
// and leaves it byte for byte.
func TestIndexLogCorruptLineRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		at   int // which of the three lines to replace
		line string
	}{
		{"garbage", 1, "garbage\n"},
		{"empty line", 1, "\n"},
		{"no digest", 1, `{"name":"b","sha256":""}` + "\n"},
		{"bad name", 1, `{"name":"../b","sha256":"` + strings.Repeat("0", 64) + `"}` + "\n"},
		{"upper-case digest", 1, `{"name":"b","sha256":"` + strings.Repeat("A", 64) + `"}` + "\n"},
		{"bad final record", 2, `{"name":"c","sha256":"` + strings.Repeat("A", 64) + `"}` + "\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := NewServer(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"a", "b", "c"} {
				commitBytes(t, srv, name, name)
			}
			lines := logLines(t, dir)
			lines[c.at] = c.line
			if err := os.WriteFile(filepath.Join(dir, logFile), []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, dir)
			if _, err := NewServer(dir); !errors.Is(err, ErrHub) {
				t.Fatalf("NewServer over a corrupt log = %v, want ErrHub", err)
			}
			after := dirBytes(t, dir)
			if len(after) != len(before) {
				t.Fatalf("the directory went from %d to %d files", len(before), len(after))
			}
			for name, blob := range before {
				if !bytes.Equal(after[name], blob) {
					t.Fatalf("%s changed after the refusal", name)
				}
			}
		})
	}
}

// A crash between a fold's rename of index.json and its truncation of the
// log leaves records index.json already holds; replaying them again gives
// the same index as replaying the log alone.
func TestIndexFoldCrashReplaysToSameIndex(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	// a2 folds the log; a3 and b2 are records of names index.json holds.
	for _, c := range [][2]string{{"a", "a1"}, {"b", "b1"}, {"c", "c1"}, {"a", "a2"}, {"a", "a3"}, {"b", "b2"}} {
		commitBytes(t, srv, c[0], c[1])
	}
	want := maps.Clone(srv.index)
	// The fold's first half: index.json as foldLocked writes it, and the
	// log not yet truncated.
	blob, err := json.MarshalIndent(srv.index, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := logLines(t, dir); len(got) != 2 {
		t.Fatalf("the log holds %d records, want a3 and b2", len(got))
	}
	if got := restartIndex(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("index after the crashed fold = %v, want %v", got, want)
	}
}

// Commits of many names from many goroutines interleave appends and folds;
// the index a restart replays is the one the server held, and every record
// in it names a blob on disk.
func TestConcurrentCommitsKeepEveryRecord(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Five names, each republished five times: the log outgrows
			// the index again and again, so folds run between appends.
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("g%d-%d", g, i%5)
				sp, err := spool(dir, strings.NewReader(fmt.Sprintf("%s body %d", name, i)), "")
				if err == nil {
					info := RepoInfo{Name: name, SizeBytes: sp.size, PublishedAt: "2026-01-01T00:00:00Z", SHA256: sp.digest}
					_, err = srv.commit(sp, info, acceptAlways)
				}
				if err != nil {
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
	if got := restartIndex(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("index after restart = %v, want %v", got, want)
	}
	for name, info := range want {
		if _, err := os.Stat(filepath.Join(dir, blobFileName(name, info.SHA256))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// preloadIndex writes an index.json of n names, each with an (empty) blob
// file so reconcile keeps it, and returns one of its records.
func preloadIndex(tb testing.TB, dir string, n int) RepoInfo {
	tb.Helper()
	idx := map[string]RepoInfo{}
	var last RepoInfo
	for i := 0; i < n; i++ {
		last = RepoInfo{Name: fmt.Sprintf("repo-%05d", i), SizeBytes: 1, PublishedAt: "2026-01-01T00:00:00Z",
			Models: []string{"m"}, SHA256: fmt.Sprintf("%064x", i)}
		idx[last.Name] = last
		if err := os.WriteFile(filepath.Join(dir, blobFileName(last.Name, last.SHA256)), nil, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	blob, err := json.MarshalIndent(idx, "", " ")
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), blob, 0o644); err != nil {
		tb.Fatal(err)
	}
	return last
}

// A commit's index work does not grow with the index: over a 5,000-name
// index, a new name and a republish each append exactly their one record
// and leave index.json as it was.
func TestCommitAppendsOneRecord(t *testing.T) {
	dir := t.TempDir()
	old := preloadIndex(t, dir, 5000)
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	size := int64(0)
	for i, name := range []string{"fresh", old.Name} {
		info := commitBytes(t, srv, name, "new body")
		line, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, logFile))
		if err != nil {
			t.Fatal(err)
		}
		size += int64(len(line)) + 1
		if st.Size() != size {
			t.Fatalf("commit %d: log is %d bytes, want %d (one record more)", i, st.Size(), size)
		}
		after, err := os.Stat(filepath.Join(dir, indexFile))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(before, after) || after.Size() != before.Size() || !after.ModTime().Equal(before.ModTime()) {
			t.Fatalf("commit %d rewrote index.json", i)
		}
	}
	if got := srv.index[old.Name].SHA256; got == old.SHA256 {
		t.Fatal("the republish did not replace the record")
	}
}

// BenchmarkIndexCommit times the index side of one commit (Server.record: the
// log append and fsync, and the amortized fold) at 1 and 5,000 names. Each
// iteration republishes a name already indexed, so the index keeps its size.
func BenchmarkIndexCommit(b *testing.B) {
	for _, n := range []int{1, 5000} {
		b.Run(fmt.Sprintf("names=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			info := preloadIndex(b, dir, n)
			srv, err := NewServer(dir)
			if err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				if err := srv.record(info); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzLoadIndex replays hostile index.json + index.log pairs: the loader
// never panics, and every entry it returns carries a valid digest under its
// own name.
func FuzzLoadIndex(f *testing.F) {
	rec := func(name string, i int) string {
		return fmt.Sprintf(`{"name":%q,"size_bytes":1,"published_at":"2026-01-01T00:00:00Z","models":["m"],"sha256":"%064x"}`, name, i)
	}
	f.Add([]byte(""), []byte(""))
	f.Add([]byte(`{"a":`+rec("a", 1)+`}`), []byte(rec("b", 2)+"\n"+rec("a", 3)+"\n"))
	f.Add([]byte(`{"a":`+rec("a", 1)+`}`), []byte(rec("b", 2)+"\n"+rec("c", 3)[:20]))
	f.Add([]byte("null"), []byte("garbage\n"+rec("a", 1)+"\n"))
	f.Add([]byte(`{"a":{"name":"a"}}`), []byte("\n\n"))
	f.Add([]byte(`{"x":`+rec("a", 1)+`}`), []byte(rec("../a", 1)+"\n"))
	f.Fuzz(func(t *testing.T, idx, lg []byte) {
		index, records, err := parseIndex(idx, lg)
		if err != nil {
			if !errors.Is(err, ErrHub) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if max := bytes.Count(lg, []byte{'\n'}); records > max {
			t.Fatalf("%d records applied from %d lines", records, max)
		}
		for key, info := range index {
			if info.SHA256 == "" || key != info.Name || checkRecord(info) != nil {
				t.Fatalf("loaded entry %q = %+v", key, info)
			}
		}
	})
}
