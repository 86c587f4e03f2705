package dlv

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"modelhub/internal/pas"
)

// archiveFiles maps every file of the repository's archive, by its path
// inside the archive, to its bytes.
func archiveFiles(t *testing.T, r *Repo) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(r.pasPath(), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(r.pasPath(), path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// checkHoldsOnlyNamed asserts that the archive holds its manifest and the
// segment files the manifest names, and no other file.
func checkHoldsOnlyNamed(t *testing.T, r *Repo) {
	t.Helper()
	var segs []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(storedManifest(t, r)["segments"], &segs); err != nil {
		t.Fatal(err)
	}
	want := []string{"manifest.json"}
	for _, sf := range segs {
		want = append(want, filepath.Join("segments", sf.Name))
	}
	got := slices.Sorted(maps.Keys(archiveFiles(t, r)))
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("the archive holds %v, its manifest names %v", got, want)
	}
}

// Re-archiving under another algorithm re-plans every version. The
// repository then holds the chunk set a fresh archive under that algorithm
// stores, and no segment file of the old plan.
func TestRearchiveHoldsOnlyTheNewPlansChunks(t *testing.T) {
	ins := synthLineage(83, []int64{0, 1, 2})
	rearchived, fresh := initRepo(t), initRepo(t)
	for _, in := range ins {
		for _, r := range []*Repo{rearchived, fresh} {
			if _, err := r.Commit(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := rearchived.Archive(ArchiveOptions{Algorithm: "pas-mt", Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	old := storedSums(t, rearchived)
	store, err := rearchived.Archive(ArchiveOptions{Algorithm: "spt"})
	if err != nil {
		t.Fatal(err)
	}
	if info := store.Info(); info.Algorithm != "spt" || info.Alpha != 0 {
		t.Fatalf("archive under new settings kept the old plan: %+v", info)
	}
	if _, err := fresh.Archive(ArchiveOptions{Algorithm: "spt"}); err != nil {
		t.Fatal(err)
	}
	got, want := storedSums(t, rearchived), storedSums(t, fresh)
	if slices.Equal(old, want) {
		t.Fatal("pas-mt and spt store the same chunks; the fixture does not tell the plans apart")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the re-archived repository stores %d chunks, a fresh spt archive %d", len(got), len(want))
	}
	checkHoldsOnlyNamed(t, rearchived)
	checkArchived(t, rearchived, ins)
}

// Repack before any archive exists fails typed, not with a panic.
func TestRepackUnarchivedRepo(t *testing.T) {
	r := initRepo(t)
	if _, err := r.Commit(synthLineage(86, []int64{0})[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Repack(); !errors.Is(err, ErrRepo) {
		t.Fatalf("repack on an unarchived repository = %v, want ErrRepo", err)
	}
}

// Re-plans run while goroutines check out through the same Repo (run under
// -race): Repack, and Archive under new settings, write fresh segments and
// unlink the old plan's. A checkout returns the committed weights bit for
// bit, or fails with a typed error when the store it read through lost a
// segment it had not opened yet; it never returns other bytes.
func TestReplanDuringCheckouts(t *testing.T) {
	ins := synthLineage(84, []int64{0, 1, 2})
	r := initRepo(t)
	for _, in := range ins {
		if _, err := r.Commit(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Archive(ArchiveOptions{Algorithm: "pas-mt", Alpha: 1.6}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	var served, refused atomic.Int64
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := i % len(ins)
				got, err := r.Weights(int64(v+1), LatestSnap, 4)
				if errors.Is(err, pas.ErrStore) || errors.Is(err, ErrRepo) {
					refused.Add(1)
					continue
				}
				if err != nil {
					errs[w] = err
					return
				}
				for name, want := range ins[v].Final {
					if !got[name].Equal(want) {
						errs[w] = errors.New("a checkout returned other weights for " + name)
						return
					}
				}
				served.Add(1)
			}
		}()
	}
	var err error
	for _, opts := range []ArchiveOptions{{Algorithm: "spt"}, {Algorithm: "mst"}, {Algorithm: "pas-mt", Alpha: 1.6}} {
		if _, err = r.Archive(opts); err != nil {
			break
		}
		if _, err = r.Repack(); err != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if err = errors.Join(append(errs, err)...); err != nil {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no checkout succeeded while the archive was re-planned")
	}
	t.Logf("%d checkouts served, %d refused typed", served.Load(), refused.Load())
	checkHoldsOnlyNamed(t, r)
	checkArchived(t, r, ins)
}

// Repack reads every archived version back, verifying each chunk against
// its digest, before it writes: over a corrupted segment it fails with
// pas.ErrStore and leaves every file of the archive as it was, instead of
// laundering bad bytes into a fresh plan.
func TestRepackRefusesCorruptedSegment(t *testing.T) {
	ins := synthLineage(85, []int64{0, 1})
	r := initRepo(t)
	for _, in := range ins {
		if _, err := r.Commit(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	for rel, blob := range archiveFiles(t, r) {
		if filepath.Dir(rel) != "segments" {
			continue
		}
		for i := range blob {
			blob[i] ^= 0x01
		}
		if err := os.WriteFile(filepath.Join(r.pasPath(), rel), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := archiveFiles(t, r)
	if _, err := r.Repack(); !errors.Is(err, pas.ErrStore) {
		t.Fatalf("repack over a corrupted segment = %v, want pas.ErrStore", err)
	}
	after := archiveFiles(t, r)
	if len(after) != len(before) {
		t.Fatalf("the refused repack left %d files, want %d", len(after), len(before))
	}
	for rel, blob := range before {
		if !bytes.Equal(after[rel], blob) {
			t.Fatalf("the refused repack changed %s", rel)
		}
	}
}

// archiveHandles counts this process's open descriptors on files under the
// repository's archive, and how many of those files are unlinked, read from
// /proc/self/fd; it skips the test where there is none.
func archiveHandles(t *testing.T, r *Repo) (open, unlinked int) {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to read: %v", err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err != nil || !strings.HasPrefix(target, r.pasPath()+string(filepath.Separator)) {
			continue
		}
		open++
		if strings.HasSuffix(target, " (deleted)") {
			unlinked++
		}
	}
	return open, unlinked
}

// A re-plan closes the store it replaces, so no descriptor stays on a
// segment file the re-plan unlinked, and Close releases the store the
// repository holds. The collector is off: a finalizer would otherwise close
// a leaked handle at its own pace and hide the leak.
func TestReplanClosesTheReplacedStore(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ins := synthLineage(87, []int64{0, 1})
	r := initRepo(t)
	for _, in := range ins {
		if _, err := r.Commit(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"spt", "mst"} {
		if _, err := r.Weights(2, LatestSnap, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Archive(ArchiveOptions{Algorithm: algo}); err != nil {
			t.Fatal(err)
		}
		if _, unlinked := archiveHandles(t, r); unlinked != 0 {
			t.Fatalf("after re-planning under %s, %d descriptors stay on unlinked segment files", algo, unlinked)
		}
	}
	checkArchived(t, r, ins)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if open, _ := archiveHandles(t, r); open != 0 {
		t.Fatalf("Close left %d descriptors on the archive", open)
	}
	checkArchived(t, r, ins) // a read after Close opens the archive again
}
