package dlv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// parentAnswers is what the query methods return for each version of a
// repository, in the layout of testdata/parent-answers.json.
type parentAnswers struct {
	List     []*Version
	Version  map[int64]*Version
	ByName   map[string]*Version
	TrainLog map[int64][]dnn.LogEntry
	Lineage  map[int64][]int64
	Describe map[int64]string
}

// answersFor queries r for versions 1..n, as testdata/parent-answers.json
// records them.
func answersFor(t *testing.T, r *Repo, n int) []byte {
	t.Helper()
	a := parentAnswers{Version: map[int64]*Version{}, ByName: map[string]*Version{},
		TrainLog: map[int64][]dnn.LogEntry{}, Lineage: map[int64][]int64{}, Describe: map[int64]string{}}
	list, err := r.List()
	if err != nil || len(list) < n {
		t.Fatalf("List = %d versions, %v; want at least %d", len(list), err, n)
	}
	a.List = list[:n]
	for _, v := range a.List {
		var errs [5]error
		a.Version[v.ID], errs[0] = r.Version(v.ID)
		a.ByName[v.Name], errs[1] = r.VersionByName(v.Name)
		a.TrainLog[v.ID], errs[2] = r.TrainLog(v.ID)
		a.Lineage[v.ID], errs[3] = r.Lineage(v.ID)
		a.Describe[v.ID], errs[4] = r.Describe(v.ID)
		if err := errors.Join(errs[:]...); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// repoWithCatalog returns a repository root whose catalog file holds blob.
func repoWithCatalog(tb testing.TB, blob []byte) string {
	tb.Helper()
	root := tb.TempDir()
	if err := os.MkdirAll(filepath.Join(root, dlvDir), 0o755); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, dlvDir, catalogFile), blob, 0o644); err != nil {
		tb.Fatal(err)
	}
	return root
}

// testdata/parent-catalog.json is the catalog `dlv init; dlv add solver.cfg;
// dlv train` twice (the second a fine-tune of the first) wrote in the
// relational form, rewritten once as records by the last release that read
// both forms; parent-answers.json is what the release that wrote it returned
// for its query methods. The file opens with the same answers, and again
// after a commit has rewritten it.
func TestOpenParentCatalog(t *testing.T) {
	blob, err := os.ReadFile("testdata/parent-catalog.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent-answers.json")
	if err != nil {
		t.Fatal(err)
	}
	root := repoWithCatalog(t, blob)
	r, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := answersFor(t, r, 2); !bytes.Equal(got, want) {
		t.Fatalf("answers from the parent catalog differ:\n%s\nwant:\n%s", got, want)
	}
	v, err := r.Version(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ckpt-000010", "ckpt-000020", LatestSnap}; !slices.Equal(v.Snapshots, want) {
		t.Fatalf("snapshots = %v, want %v", v.Snapshots, want)
	}
	if _, err := r.Copy(2, "lenet-scaffold", "rewrites the catalog"); err != nil {
		t.Fatal(err)
	}
	if r, err = Open(root); err != nil {
		t.Fatal(err)
	}
	if got := answersFor(t, r, 2); !bytes.Equal(got, want) {
		t.Fatalf("answers after the rewrite differ:\n%s\nwant:\n%s", got, want)
	}
}

// hostileCatalogs are catalog files that Open must refuse, one per rule.
func hostileCatalogs(tb testing.TB) map[string]string {
	tb.Helper()
	net, err := json.Marshal(zoo.LeNet("m"))
	if err != nil {
		tb.Fatal(err)
	}
	sha := strings.Repeat("0a", 32)
	docs := map[string]string{
		"not JSON":                  `{nope`,
		"null document":             `null`,
		"array document":            `[]`,
		"empty object":              `{}`,
		"unknown top-level key":     `{"versions":[],"extra":1}`,
		"both forms":                `{"versions":[],"tables":[]}`,
		"data after the document":   `{"versions":[]}{}`,
		"zero id":                   `{"versions":[{"ID":0,"Name":"m","NetDef":NET}]}`,
		"negative id":               `{"versions":[{"ID":-3,"Name":"m","NetDef":NET}]}`,
		"repeated id":               `{"versions":[{"ID":1,"Name":"m","NetDef":NET},{"ID":1,"Name":"n","NetDef":NET}]}`,
		"fractional id":             `{"versions":[{"ID":1.5,"Name":"m","NetDef":NET}]}`,
		"empty name":                `{"versions":[{"ID":1,"Name":"","NetDef":NET}]}`,
		"no netdef":                 `{"versions":[{"ID":1,"Name":"m"}]}`,
		"invalid netdef":            `{"versions":[{"ID":1,"Name":"m","NetDef":{"name":"m","in_c":1,"in_h":8,"in_w":8}}]}`,
		"parent is a later version": `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"ParentID":2},{"ID":2,"Name":"n","NetDef":NET}]}`,
		"parent is itself":          `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"ParentID":1}]}`,
		"parent does not exist":     `{"versions":[{"ID":2,"Name":"m","NetDef":NET,"ParentID":1}]}`,
		"empty snapshot label":      `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"Snapshots":[""]}]}`,
		"repeated snapshot label":   `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"Snapshots":["latest","latest"]}]}`,
		"short file sha":            `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"Files":{"a":"0a0a"}}]}`,
		"upper-case file sha":       `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"Files":{"a":"` + strings.ToUpper(sha) + `"}}]}`,
		"path in file sha":          `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"Files":{"a":"../` + sha[3:] + `"}}]}`,
		"unknown version field":     `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"Rank":3}]}`,
		"relational form":           `{"tables":[{"schema":{"name":"model_version"},"rows":[{"id":1,"name":"m","netdef":NETSTR}]}]}`,
		// Relational documents that also break a rule its reader once
		// checked: the strict decoder refuses each for the form alone.
		"tables row without netdef": `{"tables":[{"schema":{"name":"model_version"},"rows":[{"id":1,"name":"m"}]}]}`,
		"tables fractional id":      `{"tables":[{"schema":{"name":"model_version"},"rows":[{"id":1.5,"name":"m","netdef":NETSTR}]}]}`,
		"tables id past int64":      `{"tables":[{"schema":{"name":"model_version"},"rows":[{"id":9223372036854775808,"name":"m","netdef":NETSTR}]}]}`,
		"tables accuracy overflows": `{"tables":[{"schema":{"name":"model_version"},"rows":[{"id":1,"name":"m","netdef":NETSTR,"accuracy":1e400}]}]}`,
		"tables text in int column": `{"tables":[{"schema":{"name":"snapshot"},"rows":[{"version_id":"1"}]}]}`,
		"tables short file sha":     `{"tables":[{"schema":{"name":"model_version"},"rows":[{"id":1,"name":"m","netdef":NETSTR}]},{"schema":{"name":"file"},"rows":[{"version_id":1,"path":"a","sha":"0a"}]}]}`,
		"tables missing parent":     `{"tables":[{"schema":{"name":"model_version"},"rows":[{"id":1,"name":"m","netdef":NETSTR}]},{"schema":{"name":"parent"},"rows":[{"base":7,"derived":1}]}]}`,
	}
	netStr, err := json.Marshal(string(net))
	if err != nil {
		tb.Fatal(err)
	}
	for name, doc := range docs {
		docs[name] = strings.NewReplacer("NETSTR", string(netStr), "NET", string(net)).Replace(doc)
	}
	return docs
}

// validCatalogs are catalog files that Open must accept, one per feature a
// query reads.
func validCatalogs(tb testing.TB) map[string]string {
	tb.Helper()
	net, err := json.Marshal(zoo.LeNet("m"))
	if err != nil {
		tb.Fatal(err)
	}
	docs := map[string]string{
		"no versions":        `{"versions":[]}`,
		"ids past float64":   `{"versions":[{"ID":9007199254740993,"Name":"a","NetDef":NET},{"ID":9223372036854775807,"Name":"b","NetDef":NET}]}`,
		"lineage chain":      `{"versions":[{"ID":1,"Name":"a","NetDef":NET},{"ID":2,"Name":"b","NetDef":NET,"ParentID":1},{"ID":5,"Name":"c","NetDef":NET,"ParentID":2}]}`,
		"names reused":       `{"versions":[{"ID":1,"Name":"a","NetDef":NET},{"ID":2,"Name":"a","NetDef":NET}]}`,
		"snapshots":          `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"Snapshots":["ckpt-000010","latest"]}]}`,
		"files and hyper":    `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"Files":{"solver.cfg":"` + strings.Repeat("0a", 32) + `"},"Hyper":{"base_lr":"0.1"}}]}`,
		"training log edges": `{"versions":[{"ID":1,"Name":"m","NetDef":NET,"Log":[{"Iter":10,"Loss":1.7976931348623157e308,"Accuracy":5e-324,"LR":0}]}]}`,
	}
	for name, doc := range docs {
		docs[name] = strings.ReplaceAll(doc, "NET", string(net))
	}
	return docs
}

// A catalog arrives inside every pulled repository and every hub publish:
// one that breaks a rule the package relies on fails Open with ErrRepo
// instead of a panic in a later query.
func TestOpenRejectsHostileCatalog(t *testing.T) {
	for name, doc := range hostileCatalogs(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := Open(repoWithCatalog(t, []byte(doc))); !errors.Is(err, ErrRepo) {
				t.Fatalf("Open = %v, want ErrRepo", err)
			}
		})
	}
	for name, doc := range validCatalogs(t) {
		if _, err := Open(repoWithCatalog(t, []byte(doc))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Open(t.TempDir()); !errors.Is(err, ErrRepo) {
		t.Fatalf("Open without a repository = %v, want ErrRepo", err)
	}
}

// FuzzOpenCatalog: whatever the catalog file holds, Open either fails with
// ErrRepo or yields a repository whose queries all answer without a panic,
// with file object ids fit to be cut and joined into paths.
func FuzzOpenCatalog(f *testing.F) {
	for _, doc := range hostileCatalogs(f) {
		f.Add([]byte(doc))
	}
	for _, doc := range validCatalogs(f) {
		f.Add([]byte(doc))
	}
	parent, err := os.ReadFile("testdata/parent-catalog.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Fuzz(func(t *testing.T, blob []byte) {
		recs, err := parseCatalog(blob)
		if err != nil {
			return
		}
		r := &Repo{versions: recs}
		list, err := r.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range list {
			if _, err := r.VersionByName(v.Name); err != nil {
				t.Fatal(err)
			}
			if _, err := r.TrainLog(v.ID); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Lineage(v.ID); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Describe(v.ID); err != nil {
				t.Fatal(err)
			}
			for _, sha := range v.Files {
				if !isSHA256Hex(sha) {
					t.Fatalf("version %d lists object %q", v.ID, sha)
				}
			}
		}
	})
}

// Floats come back from the file with every bit, and non-finite training
// measurements are stored clamped (JSON has no NaN or Inf).
func TestCatalogRoundTripBitExact(t *testing.T) {
	r := initRepo(t)
	acc := math.Nextafter(0.1, 1)
	log := []dnn.LogEntry{
		{Iter: 10, Loss: 1.0 / 3, Accuracy: math.SmallestNonzeroFloat64, LR: 1e-300},
		{Iter: 20, Loss: math.NaN(), Accuracy: math.Inf(1), LR: math.Inf(-1)},
		{Iter: 30, Loss: math.Inf(1), Accuracy: math.Nextafter(1, 0), LR: -0.0},
	}
	want := []dnn.LogEntry{
		log[0],
		{Iter: 20, Loss: math.MaxFloat64, Accuracy: 0, LR: 0},
		{Iter: 30, Loss: math.MaxFloat64, Accuracy: log[2].Accuracy, LR: 0},
	}
	id, err := r.Commit(CommitInput{Name: "m", NetDef: zoo.LeNet("m"), Accuracy: acc, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	check := func(r *Repo) {
		t.Helper()
		v, err := r.Version(id)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v.Accuracy) != math.Float64bits(acc) {
			t.Fatalf("accuracy = %v, want %v", v.Accuracy, acc)
		}
		got, err := r.TrainLog(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("log = %v, want %v", got, want)
		}
		for i := range want {
			g, w := got[i], want[i]
			for _, pair := range [][2]float64{{g.Loss, w.Loss}, {g.Accuracy, w.Accuracy}, {g.LR, w.LR}} {
				if g.Iter != w.Iter || math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("log entry %d = %+v, want %+v", i, g, w)
				}
			}
		}
	}
	check(r)
	r2, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	check(r2)
}

// Ids are int64 throughout: one past float64's 53-bit mantissa and the
// largest int64 come back exact, and no commit wraps past the largest.
func TestCatalogInt64IDsRoundTrip(t *testing.T) {
	net, err := json.Marshal(zoo.LeNet("m"))
	if err != nil {
		t.Fatal(err)
	}
	ids := []int64{1<<53 + 1, math.MaxInt64}
	root := repoWithCatalog(t, []byte(fmt.Sprintf(`{"versions":[{"ID":%d,"Name":"a","NetDef":%s},{"ID":%d,"Name":"b","NetDef":%s}]}`,
		ids[0], net, ids[1], net)))
	r3, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if v, err := r3.Version(id); err != nil || v.ID != id {
			t.Fatalf("version %d after reopening: %+v, %v", id, v, err)
		}
	}
	if _, err := r3.Commit(CommitInput{Name: "c", NetDef: zoo.LeNet("c")}); !errors.Is(err, ErrRepo) {
		t.Fatalf("a commit after id %d = %v, want ErrRepo", ids[1], err)
	}
}

// A commit whose catalog save fails leaves the previous file whole and the
// repository's view unchanged, with no temp file beside it.
func TestSaveFailureKeepsPreviousCatalog(t *testing.T) {
	r := initRepo(t)
	if _, err := r.Commit(CommitInput{Name: "m", NetDef: zoo.LeNet("m")}); err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(r.Root(), dlvDir)
	path := filepath.Join(meta, catalogFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(meta, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(meta, 0o755) })
	if probe, err := os.CreateTemp(meta, "probe-*"); err == nil {
		_ = probe.Close()
		_ = os.Remove(probe.Name())
		t.Skip("directory permissions are not enforced for this user")
	}

	if _, err := r.Commit(CommitInput{Name: "n", NetDef: zoo.LeNet("n")}); !errors.Is(err, ErrRepo) {
		t.Fatalf("Commit into a read-only repository = %v, want ErrRepo", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a failed save changed the catalog file (%v)", err)
	}
	if list, err := r.List(); err != nil || len(list) != 1 {
		t.Fatalf("after a failed commit List = %d versions, %v; want the 1 saved", len(list), err)
	}
	reopened, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	if list, err := reopened.List(); err != nil || len(list) != 1 {
		t.Fatalf("reopened catalog holds %d versions, %v; want the 1 saved", len(list), err)
	}
	if now, err := os.ReadDir(meta); err != nil || len(now) != len(entries) {
		t.Fatalf("%s holds %d entries after a failed save, want %d (%v)", meta, len(now), len(entries), err)
	}
}

// What a query returns is the caller's to change: nothing reaches the
// catalog.
func TestQueriesReturnCopies(t *testing.T) {
	r := initRepo(t)
	id, _, _ := commitToy(t, r, "toy", 5, 0)
	want, err := r.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []func() (*Version, error){
		func() (*Version, error) { return r.Version(id) },
		func() (*Version, error) { return r.VersionByName("toy") },
		func() (*Version, error) { list, err := r.List(); return list[0], err },
	} {
		got, err := v()
		if err != nil {
			t.Fatal(err)
		}
		got.Name = "mutated"
		got.NetDef.Nodes[0].Name = "mutated"
		got.NetDef.Edges[0].To = "mutated"
		got.Hyper["base_lr"] = "mutated"
		got.Files["train.cfg"] = "mutated"
		got.Snapshots[0] = "mutated"
	}
	log, err := r.TrainLog(id)
	if err != nil || len(log) == 0 {
		t.Fatalf("TrainLog = %v, %v", log, err)
	}
	log[0].Loss = -1
	again, err := r.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(again)
	w, _ := json.Marshal(want)
	if !bytes.Equal(a, w) {
		t.Fatalf("a caller's change reached the catalog:\n%s\nwant\n%s", a, w)
	}
	if log, _ := r.TrainLog(id); log[0].Loss == -1 {
		t.Fatal("a caller's change reached the training log")
	}
}

// Commits, queries and an archive's flag update run side by side (run with
// -race): every commit gets its own id, and the catalog on disk ends up
// holding exactly what the repository lists.
func TestConcurrentCommitQueryArchive(t *testing.T) {
	r := initRepo(t)
	rng := rand.New(rand.NewSource(3))
	if _, err := r.Commit(CommitInput{Name: "held", NetDef: zoo.LeNet("held"),
		Final: map[string]*tensor.Matrix{"ip2": tensor.RandNormal(rng, 4, 6, 0.1)}}); err != nil {
		t.Fatal(err)
	}
	const writers, commits = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				if _, err := r.Commit(CommitInput{Name: name, NetDef: zoo.LeNet(name), ParentID: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				list, err := r.List()
				if err == nil {
					_, err = r.Version(list[len(list)-1].ID)
				}
				if err == nil {
					_, err = r.Lineage(list[len(list)-1].ID)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if _, err := r.Archive(ArchiveOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1+writers*commits || !list[0].Archived {
		t.Fatalf("List = %d versions (first archived %v), want %d with the first archived", len(list), list[0].Archived, 1+writers*commits)
	}
	for i, v := range list {
		if v.ID != int64(i+1) {
			t.Fatalf("version %d at position %d: ids are not 1..n", v.ID, i)
		}
	}
	reopened, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	again, err := reopened.List()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(again)
	w, _ := json.Marshal(list)
	if !bytes.Equal(a, w) {
		t.Fatal("the reopened catalog differs from the listed one")
	}
}

// An archive's flag update and commits run side by side while readers
// watch the flags (run with -race): a flag once seen set stays set, no
// commit's save drops one, and every version that had weights ends up
// archived, on disk as in memory.
func TestConcurrentArchiveFlagUpdate(t *testing.T) {
	r := initRepo(t)
	rng := rand.New(rand.NewSource(5))
	const held = 6
	for i := 0; i < held; i++ {
		name := fmt.Sprintf("held%d", i)
		if _, err := r.Commit(CommitInput{Name: name, NetDef: zoo.LeNet(name),
			Final: map[string]*tensor.Matrix{"ip2": tensor.RandNormal(rng, 4, 6, 0.1)}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := r.Archive(ArchiveOptions{}); err != nil {
			t.Error(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("new%d", i)
			if _, err := r.Commit(CommitInput{Name: name, NetDef: zoo.LeNet(name)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen [held + 1]bool
			for i := 0; i < 100; i++ {
				for id := int64(1); id <= held; id++ {
					v, err := r.Version(id)
					if err != nil {
						t.Error(err)
						return
					}
					if seen[id] && !v.Archived {
						t.Errorf("version %d lost its archived flag", id)
						return
					}
					seen[id] = v.Archived
				}
			}
		}()
	}
	wg.Wait()
	reopened, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, repo := range []*Repo{r, reopened} {
		list, err := repo.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != held+8 {
			t.Fatalf("List = %d versions, want %d", len(list), held+8)
		}
		for _, v := range list {
			if want := v.ID <= held; v.Archived != want {
				t.Fatalf("version %d (%s) archived = %v, want %v", v.ID, v.Name, v.Archived, want)
			}
		}
	}
}

// Archive's catalog update sets the archived flag of the versions it
// stored and changes nothing else in any record.
func TestArchiveChangesOnlyFlags(t *testing.T) {
	r := initRepo(t)
	id1, _, _ := commitToy(t, r, "base", 21, 0)
	commitToy(t, r, "ft", 22, id1)
	if _, err := r.Commit(CommitInput{Name: "scaffold", NetDef: zoo.LeNet("scaffold"), ParentID: id1}); err != nil {
		t.Fatal(err)
	}
	before, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, repo := range []*Repo{r, reopened} {
		after, err := repo.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Fatalf("List = %d versions after archive, want %d", len(after), len(before))
		}
		for i, v := range after {
			if want := v.Name != "scaffold"; v.Archived != want {
				t.Fatalf("version %d (%s) archived = %v, want %v", v.ID, v.Name, v.Archived, want)
			}
			v.Archived = false
			a, _ := json.Marshal(v)
			w, _ := json.Marshal(before[i])
			if !bytes.Equal(a, w) {
				t.Fatalf("archive changed version %d beyond its flag:\n%s\nwant\n%s", v.ID, a, w)
			}
		}
	}
}

// List answers in id order, and a name reused by a later commit resolves
// to the newest version that carries it.
func TestListOrderAndNewestByName(t *testing.T) {
	r := initRepo(t)
	for _, name := range []string{"b", "a", "c", "a", "b"} {
		if _, err := r.Commit(CommitInput{Name: name, NetDef: zoo.LeNet(name)}); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, repo := range []*Repo{r, reopened} {
		list, err := repo.List()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for i, v := range list {
			if v.ID != int64(i+1) {
				t.Fatalf("version %d at position %d: List is not in id order", v.ID, i)
			}
			names = append(names, v.Name)
		}
		if want := []string{"b", "a", "c", "a", "b"}; !slices.Equal(names, want) {
			t.Fatalf("List names = %v, want %v", names, want)
		}
		for name, want := range map[string]int64{"a": 4, "b": 5, "c": 3} {
			if v, err := repo.VersionByName(name); err != nil || v.ID != want {
				t.Fatalf("VersionByName(%q) = %+v, %v; want version %d", name, v, err, want)
			}
		}
	}
}

// BenchmarkOpenList times what a pull pays for the catalog: Open, which
// decodes and checks it, and one List. "4" has the shape of the hub
// benchmarks' 4-version alexnet-mini lineage (a base trained 40 iterations,
// then three 20-iteration fine-tunes, checkpoints every 10); "1000" repeats
// the fine-tune 999 times.
func BenchmarkOpenList(b *testing.B) {
	for _, n := range []int{4, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			r, err := Init(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			recs := make([]record, n)
			for i := range recs {
				id := int64(i + 1)
				rec := &recs[i]
				rec.Version = Version{ID: id, Name: fmt.Sprintf("alexnet-mini_v%d", id), Msg: "fine-tune",
					Created: "2026-01-02T03:04:05Z", Accuracy: 0.3125, NetDef: zoo.AlexNetMini(fmt.Sprintf("alexnet-mini_v%d", id)),
					Hyper: map[string]string{"arch": "alexnet-mini", "base_lr": "0.02", "batch": "16", "momentum": "0"},
					Files: map[string]string{}, ParentID: id - 1}
				iters := 20
				if id == 1 {
					iters, rec.Msg, rec.Hyper["base_lr"] = 40, "base", "0.1"
				}
				for it := 10; it <= iters; it += 10 {
					rec.Snapshots = append(rec.Snapshots, fmt.Sprintf("ckpt-%06d", it))
					rec.Log = append(rec.Log, dnn.LogEntry{Iter: it, Loss: 2.25 / float64(it), Accuracy: 0.25, LR: 0.02})
				}
				rec.Snapshots = append(rec.Snapshots, LatestSnap)
			}
			r.mu.Lock()
			err = r.saveCatalog(recs)
			r.mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				o, err := Open(r.Root())
				if err != nil {
					b.Fatal(err)
				}
				if list, err := o.List(); err != nil || len(list) != n {
					b.Fatalf("List = %d versions, %v", len(list), err)
				}
			}
			if info, err := os.Stat(filepath.Join(r.Root(), dlvDir, catalogFile)); err == nil {
				b.ReportMetric(float64(info.Size()), "catalog-bytes")
			}
		})
	}
}
