package dlv

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"testing"

	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// lockWeights is the final-weights payload of the version a writer names
// name: one matrix drawn from a seed derived from the name, so a reader can
// rebuild what any writer committed.
func lockWeights(name string) map[string]*tensor.Matrix {
	seed := int64(0)
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed))
	m := tensor.NewMatrix(6, 5)
	for i := range m.Data() {
		m.Data()[i] = float32(rng.NormFloat64())
	}
	return map[string]*tensor.Matrix{"fc": m}
}

func commitNamed(r *Repo, name string) (int64, error) {
	return r.Commit(CommitInput{Name: name, NetDef: zoo.LeNet("m"), Final: lockWeights(name)})
}

// checkDenseIDs reopens the repository at root and checks that it holds
// versions 1..len(names) under exactly those names, each with the weights
// its writer committed, bit for bit.
func checkDenseIDs(t *testing.T, root string, names []string) {
	t.Helper()
	r, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(names) {
		t.Fatalf("%d versions after %d commits", len(list), len(names))
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for i, v := range list {
		if v.ID != int64(i+1) {
			t.Fatalf("version %d of the list has id %d, want ids 1..%d", i, v.ID, len(names))
		}
		if !want[v.Name] {
			t.Fatalf("version %d is %q: unknown or listed twice", v.ID, v.Name)
		}
		delete(want, v.Name)
		got, err := r.Weights(v.ID, LatestSnap, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !got["fc"].Equal(lockWeights(v.Name)["fc"]) {
			t.Fatalf("version %d (%s) reads back other weights than its writer committed", v.ID, v.Name)
		}
	}
}

// TestTwoHandlesCommitDenseIDs: two handles opened on one repository, as
// two dlv processes would hold, each commit once. The second sees the
// first's version under the writer lock, so the ids are 1 and 2 and both
// versions read back as committed.
func TestTwoHandlesCommitDenseIDs(t *testing.T) {
	a := initRepo(t)
	b, err := Open(a.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		r    *Repo
		name string
		want int64
	}{{a, "from-a", 1}, {b, "from-b", 2}} {
		id, err := commitNamed(c.r, c.name)
		if err != nil {
			t.Fatal(err)
		}
		if id != c.want {
			t.Fatalf("%s committed as %d, want %d", c.name, id, c.want)
		}
	}
	checkDenseIDs(t, a.Root(), []string{"from-a", "from-b"})
}

// TestHandlesCommitConcurrently: 4 goroutines, each with its own handle on
// one repository, commit 3 versions each at once. The handles take turns on
// the flock as processes would, and every commit sees the ones before it.
func TestHandlesCommitConcurrently(t *testing.T) {
	const writers, commits = 4, 3
	root := initRepo(t).Root()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	var names []string
	for w := 0; w < writers; w++ {
		for i := 0; i < commits; i++ {
			names = append(names, fmt.Sprintf("g%d-%d", w, i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Open(root)
			for i := 0; i < commits && err == nil; i++ {
				_, err = commitNamed(r, fmt.Sprintf("g%d-%d", w, i))
			}
			errs[w] = err
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	checkDenseIDs(t, root, names)
}

// TestRepackAfterAnotherHandlesArchiveKeepsItsChunks: handle a archives and
// keeps the store open; handle b commits and archives a third version,
// appending chunks a's store has never seen; then a repacks. Under the
// writer lock a sees the newer catalog and drops its stale store, so the
// re-plan keeps b's version and its chunks.
func TestRepackAfterAnotherHandlesArchiveKeepsItsChunks(t *testing.T) {
	a := initRepo(t)
	names := []string{"v1", "v2", "v3"}
	for _, name := range names[:2] {
		if _, err := commitNamed(a, name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Weights(1, LatestSnap, 4); err != nil { // a's store is open
		t.Fatal(err)
	}
	b, err := Open(a.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := commitNamed(b, names[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Repack(); err != nil {
		t.Fatal(err)
	}
	checkDenseIDs(t, a.Root(), names)
}

// TestWritersAcrossProcesses runs 4 processes (this test binary, re-run)
// that commit 5 versions each into one repository at once. The writer lock
// serializes them, so the ids are 1..20 with none lost.
func TestWritersAcrossProcesses(t *testing.T) {
	const writers, commits = 4, 5
	if root := os.Getenv("DLV_LOCK_TEST_ROOT"); root != "" {
		r, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < commits; i++ {
			if _, err := commitNamed(r, fmt.Sprintf("w%s-%d", os.Getenv("DLV_LOCK_TEST_WRITER"), i)); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	root := initRepo(t).Root()
	var wg sync.WaitGroup
	outs := make([][]byte, writers)
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command(os.Args[0], "-test.run=^TestWritersAcrossProcesses$", "-test.count=1")
			cmd.Env = append(os.Environ(), "DLV_LOCK_TEST_ROOT="+root, "DLV_LOCK_TEST_WRITER="+strconv.Itoa(w))
			outs[w], errs[w] = cmd.CombinedOutput()
		}()
	}
	wg.Wait()
	var names []string
	for w := 0; w < writers; w++ {
		if errs[w] != nil {
			t.Fatalf("writer %d: %v\n%s", w, errs[w], outs[w])
		}
		for i := 0; i < commits; i++ {
			names = append(names, fmt.Sprintf("w%d-%d", w, i))
		}
	}
	checkDenseIDs(t, root, names)
}
