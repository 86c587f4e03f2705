package dlv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modelhub/internal/data"
	"modelhub/internal/delta"
	"modelhub/internal/dnn"
	"modelhub/internal/floatenc"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

func initRepo(t *testing.T) *Repo {
	t.Helper()
	r, err := Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// trainToy trains a tiny model and returns everything a commit needs.
func trainToy(t *testing.T, seed int64) (*dnn.NetDef, *dnn.TrainResult, []dnn.Example) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	examples := data.Digits(rng, 200, 0.05)
	def := zoo.LeNet("lenet")
	n, err := dnn.Build(def, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dnn.Train(n, examples, dnn.TrainConfig{
		Epochs: 2, BatchSize: 16, LR: 0.1, CheckpointEvery: 10, Seed: seed + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return def, res, examples
}

func commitToy(t *testing.T, r *Repo, name string, seed int64, parent int64) (int64, *dnn.TrainResult, []dnn.Example) {
	t.Helper()
	def, res, examples := trainToy(t, seed)
	id, err := r.Commit(CommitInput{
		Name:        name,
		Msg:         "trained " + name,
		NetDef:      def,
		Hyper:       map[string]string{"base_lr": "0.1", "momentum": "0.0"},
		Log:         res.Log,
		Checkpoints: res.Checkpoints,
		Final:       res.Final,
		Accuracy:    0.9,
		Files:       map[string][]byte{"train.cfg": []byte("lr=0.1\n")},
		ParentID:    parent,
	})
	if err != nil {
		t.Fatal(err)
	}
	return id, res, examples
}

func TestInitOpen(t *testing.T) {
	dir := t.TempDir()
	if _, err := Init(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Init(dir); !errors.Is(err, ErrRepo) {
		t.Fatal("double init must fail")
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(t.TempDir()); !errors.Is(err, ErrRepo) {
		t.Fatal("open of non-repo must fail")
	}
}

func TestCommitAndVersion(t *testing.T) {
	r := initRepo(t)
	id, res, _ := commitToy(t, r, "lenet", 1, 0)
	if id != 1 {
		t.Fatalf("first id = %d", id)
	}
	v, err := r.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "lenet" || v.Accuracy != 0.9 || v.Archived {
		t.Fatalf("version = %+v", v)
	}
	if len(v.Snapshots) != len(res.Checkpoints)+1 {
		t.Fatalf("snapshots = %v", v.Snapshots)
	}
	if v.Snapshots[len(v.Snapshots)-1] != LatestSnap {
		t.Fatal("latest snapshot must sort last")
	}
	if v.Hyper["base_lr"] != "0.1" {
		t.Fatalf("hyper = %v", v.Hyper)
	}
	if len(v.Files) != 1 {
		t.Fatalf("files = %v", v.Files)
	}
}

func TestCommitValidation(t *testing.T) {
	r := initRepo(t)
	if _, err := r.Commit(CommitInput{}); !errors.Is(err, ErrRepo) {
		t.Fatal("empty commit must fail")
	}
	if _, err := r.Commit(CommitInput{Name: "x"}); !errors.Is(err, ErrRepo) {
		t.Fatal("missing netdef must fail")
	}
	def := zoo.LeNet("x")
	if _, err := r.Commit(CommitInput{Name: "x", NetDef: def, ParentID: 99}); !errors.Is(err, ErrRepo) {
		t.Fatal("missing parent must fail")
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	r := initRepo(t)
	id, res, _ := commitToy(t, r, "lenet", 2, 0)
	w, err := r.Weights(id, LatestSnap, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range res.Final {
		if !w[name].Equal(m) {
			t.Fatalf("weights %s differ after round trip", name)
		}
	}
	if _, err := r.Weights(id, LatestSnap, 2); !errors.Is(err, ErrRepo) {
		t.Fatal("partial read of unarchived version must fail")
	}
	if _, err := r.Weights(id, "nope", 4); !errors.Is(err, ErrRepo) {
		t.Fatal("unknown snapshot must fail")
	}
}

func TestObjectStore(t *testing.T) {
	r := initRepo(t)
	id, _, _ := commitToy(t, r, "lenet", 3, 0)
	v, err := r.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	sha := v.Files["train.cfg"]
	content, err := r.GetObject(sha)
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "lr=0.1\n" {
		t.Fatalf("object content = %q", content)
	}
	if _, err := r.GetObject(strings.Repeat("0", 64)); !errors.Is(err, ErrRepo) {
		t.Fatal("missing object must fail")
	}
}

// TestTornObjectIsReplaced: a truncated file at a content's SHA path (a
// crash mid-write) must not dedup a later commit of that content.
func TestTornObjectIsReplaced(t *testing.T) {
	r := initRepo(t)
	content := []byte("lr=0.1\nmomentum=0.9\n")
	sum := sha256.Sum256(content)
	sha := hex.EncodeToString(sum[:])
	if err := os.WriteFile(filepath.Join(r.Root(), dlvDir, objectsDir, sha), content[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	id, err := r.Commit(CommitInput{
		Name: "m", NetDef: zoo.LeNet("m"),
		Files: map[string][]byte{"solver.cfg": content},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Files["solver.cfg"] != sha {
		t.Fatalf("object sha = %s, want %s", v.Files["solver.cfg"], sha)
	}
	got, err := r.GetObject(sha)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("GetObject = %q, %v; want the committed content", got, err)
	}
}

func TestLineageAndChildren(t *testing.T) {
	r := initRepo(t)
	id1, _, _ := commitToy(t, r, "base", 4, 0)
	id2, _, _ := commitToy(t, r, "ft-a", 5, id1)
	id3, _, _ := commitToy(t, r, "ft-b", 6, id2)
	lineage, err := r.Lineage(id3)
	if err != nil {
		t.Fatal(err)
	}
	if len(lineage) != 2 || lineage[0] != id2 || lineage[1] != id1 {
		t.Fatalf("lineage = %v", lineage)
	}
	kids, err := r.Children(id1)
	if err != nil || len(kids) != 1 || kids[0] != id2 {
		t.Fatalf("children = %v, %v", kids, err)
	}
}

func TestCopyScaffold(t *testing.T) {
	r := initRepo(t)
	id1, _, _ := commitToy(t, r, "base", 7, 0)
	id2, err := r.Copy(id1, "variant", "scaffolded")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Version(id2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "variant" || v.ParentID != id1 || len(v.Snapshots) != 0 {
		t.Fatalf("copy = %+v", v)
	}
	if v.NetDef.Name != "variant" {
		t.Fatal("copied netdef must be renamed")
	}
}

func TestListAndByName(t *testing.T) {
	r := initRepo(t)
	commitToy(t, r, "a", 8, 0)
	commitToy(t, r, "b", 9, 0)
	versions, err := r.List()
	if err != nil || len(versions) != 2 {
		t.Fatalf("list = %v, %v", versions, err)
	}
	v, err := r.VersionByName("b")
	if err != nil || v.Name != "b" {
		t.Fatalf("byName = %+v, %v", v, err)
	}
	if _, err := r.VersionByName("zzz"); !errors.Is(err, ErrRepo) {
		t.Fatal("unknown name must fail")
	}
}

func TestDiff(t *testing.T) {
	r := initRepo(t)
	id1, _, _ := commitToy(t, r, "base", 10, 0)
	// A variant with one layer changed and one removed.
	def := zoo.LeNet("variant")
	def.Nodes[0].Out = 16 // conv1 widened
	def.Nodes = def.Nodes[:len(def.Nodes)-1]
	def.Edges = def.Edges[:len(def.Edges)-1]
	id2, err := r.Commit(CommitInput{
		Name: "variant", NetDef: def,
		Hyper:    map[string]string{"base_lr": "0.01"},
		Accuracy: 0.95, ParentID: id1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Diff(id1, id2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OnlyInA) != 1 || rep.OnlyInA[0] != "prob" {
		t.Fatalf("OnlyInA = %v", rep.OnlyInA)
	}
	if len(rep.ChangedLayers) != 1 || rep.ChangedLayers[0] != "conv1" {
		t.Fatalf("Changed = %v", rep.ChangedLayers)
	}
	if rep.HyperChanged["base_lr"] != [2]string{"0.1", "0.01"} {
		t.Fatalf("HyperChanged = %v", rep.HyperChanged)
	}
	if rep.AccuracyDelta <= 0 {
		t.Fatalf("AccuracyDelta = %v", rep.AccuracyDelta)
	}
}

func TestDescribe(t *testing.T) {
	r := initRepo(t)
	id, _, _ := commitToy(t, r, "lenet", 11, 0)
	desc, err := r.Describe(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lenet", "conv1", "base_lr", "latest"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("describe missing %q:\n%s", want, desc)
		}
	}
}

func TestTrainLog(t *testing.T) {
	r := initRepo(t)
	id, res, _ := commitToy(t, r, "lenet", 12, 0)
	log, err := r.TrainLog(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != len(res.Log) {
		t.Fatalf("log rows = %d, want %d", len(log), len(res.Log))
	}
	if log[0].Iter != res.Log[0].Iter || log[0].Loss != res.Log[0].Loss {
		t.Fatal("log content mismatch")
	}
}

func TestArchiveAndRetrieve(t *testing.T) {
	r := initRepo(t)
	id1, res1, _ := commitToy(t, r, "base", 13, 0)
	// Fine-tune: derive from base weights, nudge them, commit as child.
	ft := map[string]*tensor.Matrix{}
	rng := rand.New(rand.NewSource(14))
	for name, m := range res1.Final {
		ft[name] = m.Perturb(rng, 1e-4)
	}
	def := zoo.LeNet("ft")
	id2, err := r.Commit(CommitInput{
		Name: "ft", NetDef: def, Final: ft, Accuracy: 0.91, ParentID: id1,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := r.Archive(ArchiveOptions{Algorithm: "pas-mt", Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !store.Info().Feasible {
		t.Fatal("archive plan should be feasible at α=2")
	}
	// Both versions flagged archived; weights retrievable from PAS.
	for _, id := range []int64{id1, id2} {
		v, err := r.Version(id)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Archived {
			t.Fatalf("version %d not flagged archived", id)
		}
	}
	w, err := r.Weights(id2, LatestSnap, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range ft {
		if !w[name].Equal(m) {
			t.Fatalf("archived weights %s differ", name)
		}
	}
	// Partial retrieval now works.
	if _, err := r.Weights(id1, LatestSnap, 2); err != nil {
		t.Fatal(err)
	}
	// Intervals are retrievable per layer.
	lo, hi, err := r.WeightIntervals(id2, LatestSnap, "ip2", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ft["ip2"].Data() {
		if !(lo.Data()[i] <= v && v <= hi.Data()[i]) {
			t.Fatal("interval does not contain true weight")
		}
	}
	// Archive offers its delta pairs in sorted order, so re-archiving the
	// unchanged repo solves the same graph: same manifest, nothing new stored.
	manifest := filepath.Join(r.pasPath(), "manifest.json")
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Archive(ArchiveOptions{Algorithm: "pas-mt", Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || again.StoredChunks() != store.StoredChunks() {
		t.Fatalf("re-archive changed the plan: manifest equal %v, stored chunks %d -> %d",
			bytes.Equal(before, after), store.StoredChunks(), again.StoredChunks())
	}
}

// snapshotsOf maps a trained commit's snapshot labels to its weights.
func snapshotsOf(res *dnn.TrainResult) map[string]map[string]*tensor.Matrix {
	out := map[string]map[string]*tensor.Matrix{LatestSnap: res.Final}
	for _, ck := range res.Checkpoints {
		out[fmt.Sprintf("ckpt-%06d", ck.Iter)] = ck.Weights
	}
	return out
}

// rawFiles lists what the repository's raw weights directory holds.
func rawFiles(t *testing.T, r *Repo) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(r.Root(), dlvDir, weightsDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// Archive is where raw weights end: archive, commit a child, archive again.
// The second archive takes the parent from the store and the child from its
// raw file; every snapshot of both comes back bit-identical, and no archived
// version keeps a raw file.
func TestArchivePurge(t *testing.T) {
	r := initRepo(t)
	id1, res1, _ := commitToy(t, r, "base", 15, 0)
	if got := rawFiles(t, r); len(got) != 1 || got[0] != filepath.Base(r.rawPath(id1)) {
		t.Fatalf("after one commit the raw weights directory holds %v, want one file", got)
	}
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := rawFiles(t, r); len(got) != 0 {
		t.Fatalf("raw files left after archive: %v", got)
	}
	id2, res2, _ := commitToy(t, r, "ft", 16, id1)
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := rawFiles(t, r); len(got) != 0 {
		t.Fatalf("raw files left after re-archive: %v", got)
	}
	reopened, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	for id, res := range map[int64]*dnn.TrainResult{id1: res1, id2: res2} {
		v, err := reopened.Version(id)
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotsOf(res)
		if !v.Archived || len(v.Snapshots) != len(want) {
			t.Fatalf("v%d: archived %v, snapshots %v", id, v.Archived, v.Snapshots)
		}
		for _, snap := range v.Snapshots {
			got, err := reopened.Weights(id, snap, 4)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range want[snap] {
				if !got[name].Equal(m) {
					t.Fatalf("v%d/%s/%s differs from what was committed", id, snap, name)
				}
			}
		}
	}
}

func TestArchiveEmpty(t *testing.T) {
	r := initRepo(t)
	if _, err := r.Archive(ArchiveOptions{}); !errors.Is(err, ErrRepo) {
		t.Fatal("archiving an empty repo must fail")
	}
}

// Within a version every layer of a snapshot is chained to the previous
// snapshot; a layer the previous snapshot lacks is an error from Create, not
// a silently dropped delta candidate.
func TestArchiveRejectsLayerMissingFromPreviousSnapshot(t *testing.T) {
	r := initRepo(t)
	w := map[string]*tensor.Matrix{"fc": tensor.NewMatrix(2, 3)}
	grown := map[string]*tensor.Matrix{"fc": tensor.NewMatrix(2, 3), "head": tensor.NewMatrix(3, 2)}
	if _, err := r.Commit(CommitInput{
		Name: "grown", NetDef: zoo.LeNet("grown"),
		Checkpoints: []dnn.Checkpoint{{Iter: 1, Weights: w}}, Final: grown,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Archive(ArchiveOptions{}); !errors.Is(err, pas.ErrStore) {
		t.Fatalf("err = %v, want pas.ErrStore", err)
	}
	// A rejected archive moves nothing: the version stays raw and readable.
	reopened, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	v, err := reopened.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Archived {
		t.Fatal("a rejected archive flagged the version archived")
	}
	got, err := reopened.Weights(1, LatestSnap, 4)
	if err != nil {
		t.Fatalf("raw weights unreadable after a rejected archive: %v", err)
	}
	if !got["head"].Equal(grown["head"]) {
		t.Fatal("raw weights changed by a rejected archive")
	}
}

func TestEvalMatchesDirect(t *testing.T) {
	r := initRepo(t)
	def, res, examples := trainToy(t, 16)
	id, err := r.Commit(CommitInput{Name: "m", NetDef: def, Final: res.Final})
	if err != nil {
		t.Fatal(err)
	}
	test := examples[:50]
	got, err := r.Eval(id, LatestSnap, test, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := buildWith(def, res.Final)
	if err != nil {
		t.Fatal(err)
	}
	want := dnn.Evaluate(net, test)
	if got.Accuracy != want {
		t.Fatalf("eval accuracy %v != direct %v", got.Accuracy, want)
	}
}

func TestEvalProgressive(t *testing.T) {
	r := initRepo(t)
	def, res, examples := trainToy(t, 17)
	id, err := r.Commit(CommitInput{Name: "m", NetDef: def, Final: res.Final})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EvalProgressive(id, LatestSnap, examples[:5]); !errors.Is(err, ErrRepo) {
		t.Fatal("progressive eval before archive must fail")
	}
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	test := examples[:30]
	prog, err := r.EvalProgressive(id, LatestSnap, test)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Eval(id, LatestSnap, test, 4)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Accuracy != full.Accuracy {
		t.Fatalf("progressive accuracy %v != full %v", prog.Accuracy, full.Accuracy)
	}
	resolved := 0
	for p := 1; p <= 4; p++ {
		resolved += prog.PrefixHistogram[p]
	}
	if resolved != len(test) {
		t.Fatalf("histogram %v does not cover all queries", prog.PrefixHistogram)
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	r, err := Init(dir)
	if err != nil {
		t.Fatal(err)
	}
	def, res, _ := trainToy(t, 18)
	id, err := r.Commit(CommitInput{Name: "m", NetDef: def, Final: res.Final, Accuracy: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r2.Version(id)
	if err != nil || v.Name != "m" || v.Accuracy != 0.8 {
		t.Fatalf("reopened version = %+v, %v", v, err)
	}
	w, err := r2.Weights(id, LatestSnap, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !w["conv1"].Equal(res.Final["conv1"]) {
		t.Fatal("weights must survive reopen")
	}
}

func TestArchiveUsesCrossVersionDeltas(t *testing.T) {
	// A fine-tuned child whose weights are near-copies of the parent must
	// archive smaller than two unrelated models.
	r1 := initRepo(t)
	_, res, _ := commitToy(t, r1, "base", 19, 0)
	rng := rand.New(rand.NewSource(20))
	ft := map[string]*tensor.Matrix{}
	for name, m := range res.Final {
		ft[name] = m.Perturb(rng, 1e-5)
	}
	v1, err := r1.VersionByName("base")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Commit(CommitInput{Name: "ft", NetDef: zoo.LeNet("ft"), Final: ft, ParentID: v1.ID}); err != nil {
		t.Fatal(err)
	}
	linked, err := r1.Archive(ArchiveOptions{Algorithm: "mst"})
	if err != nil {
		t.Fatal(err)
	}

	r2 := initRepo(t)
	commitToy(t, r2, "base", 21, 0)
	if _, err := r2.Commit(CommitInput{Name: "unrelated", NetDef: zoo.LeNet("u"), Final: trainFinal(t, 22)}); err != nil {
		t.Fatal(err)
	}
	unlinked, err := r2.Archive(ArchiveOptions{Algorithm: "mst"})
	if err != nil {
		t.Fatal(err)
	}
	if linked.TotalChunkBytes(4) >= unlinked.TotalChunkBytes(4) {
		t.Fatalf("fine-tuned archive %d should beat unrelated archive %d",
			linked.TotalChunkBytes(4), unlinked.TotalChunkBytes(4))
	}
	_ = pas.Independent
}

// A fine-tune that records its parent's latest weights as its first
// snapshot repeats them; Archive compresses their planes once, with the
// parent's. On a three-version lineage of 6 distinct weight sets and 5 deltas
// between them, the two repeated snapshots and their zero deltas against the
// parents' latest add at most one plane per matrix — all-zero — to the
// planes compressed.
func TestArchivePricesRepeatedSnapshotOnce(t *testing.T) {
	r := initRepo(t)
	rng := rand.New(rand.NewSource(24))
	latest := map[string]*tensor.Matrix{
		"conv1": tensor.RandNormal(rng, 8, 10, 0.1),
		"ip1":   tensor.RandNormal(rng, 16, 33, 0.1),
	}
	step := func(w map[string]*tensor.Matrix) map[string]*tensor.Matrix {
		out := map[string]*tensor.Matrix{}
		for _, name := range dnn.SortedNames(w) {
			out[name] = w[name].Perturb(rng, 1e-3)
		}
		return out
	}
	var parent int64
	for v := 1; v <= 3; v++ {
		var ckpts []dnn.Checkpoint
		if parent != 0 {
			ckpts = append(ckpts, dnn.Checkpoint{Iter: 0, Weights: latest})
		}
		mid := step(latest)
		ckpts = append(ckpts, dnn.Checkpoint{Iter: 10, Weights: mid})
		latest = step(mid)
		id, err := r.Commit(CommitInput{Name: fmt.Sprintf("ft%d", v), NetDef: zoo.LeNet("ft"),
			Checkpoints: ckpts, Final: latest, ParentID: parent})
		if err != nil {
			t.Fatal(err)
		}
		parent = id
	}
	const matrices, snaps, pairs = 2, 8, 7 // pairs: 5 within versions, 2 parent latest -> child first
	const distinctSnaps, distinctDeltas = 6, 5
	obs.Enable() // counters are no-ops while metrics are disabled
	counters := []*obs.Counter{
		obs.GetCounter("pas.create.planes_deflated"),
		obs.GetCounter("pas.create.planes_stored"),
		obs.GetCounter("pas.create.planes_shared"),
	}
	var before [3]int64
	for i, c := range counters {
		before[i] = c.Value()
	}
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	var n [3]int64
	for i, c := range counters {
		n[i] = c.Value() - before[i]
	}
	compressed := n[0] + n[1]
	if total, want := compressed+n[2], int64((snaps+2*pairs)*matrices*floatenc.NumPlanes); total != want {
		t.Fatalf("%d planes deflated, %d stored, %d shared: %d priced, want %d", n[0], n[1], n[2], total, want)
	}
	if limit := int64((distinctSnaps+distinctDeltas)*matrices*floatenc.NumPlanes + matrices); compressed > limit {
		t.Fatalf("%d planes compressed, want at most %d: a repeated snapshot was priced again", compressed, limit)
	}
}

func trainFinal(t *testing.T, seed int64) map[string]*tensor.Matrix {
	t.Helper()
	_, res, _ := trainToy(t, seed)
	return res.Final
}

func TestArchiveCheckpointScheme(t *testing.T) {
	// Lossy checkpoint archival: checkpoints shrink, latest stays exact.
	buildRepo := func(scheme *floatenc.Scheme) (*Repo, *dnn.TrainResult, int64) {
		r := initRepo(t)
		id, res, _ := commitToy(t, r, "m", 30, 0)
		if _, err := r.Archive(ArchiveOptions{Algorithm: "mst", CheckpointScheme: scheme}); err != nil {
			t.Fatal(err)
		}
		return r, res, id
	}
	lossless, _, _ := buildRepo(nil)
	fixed := &floatenc.Scheme{Kind: floatenc.Fixed, Bits: 8}
	lossy, res, id := buildRepo(fixed)

	losslessStore, err := lossless.openArchive()
	if err != nil {
		t.Fatal(err)
	}
	lossyStore, err := lossy.openArchive()
	if err != nil {
		t.Fatal(err)
	}
	if lossyStore.TotalChunkBytes(4) >= losslessStore.TotalChunkBytes(4) {
		t.Fatalf("fixed-8 checkpoints (%d) should archive smaller than lossless (%d)",
			lossyStore.TotalChunkBytes(4), losslessStore.TotalChunkBytes(4))
	}
	// Latest snapshot is untouched.
	w, err := lossy.Weights(id, LatestSnap, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range res.Final {
		if !w[name].Equal(m) {
			t.Fatalf("latest weights %s must stay lossless", name)
		}
	}
	// Checkpoints are degraded but close (within the fixed-8 step).
	v, err := lossy.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	ckptLabel := v.Snapshots[0]
	got, err := lossy.Weights(id, ckptLabel, 4)
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Checkpoints[0].Weights
	for name, m := range orig {
		if got[name].Equal(m) {
			// At least some matrices must differ (they were quantized)...
			continue
		}
		if !got[name].ApproxEqual(m, m.AbsMax()/64) {
			t.Fatalf("checkpoint %s drifted beyond the quantization step", name)
		}
	}
}

// A checkpoint is degraded once, as it enters the archive; a re-archive
// reads it back from the store as it is. So re-archiving an unchanged
// repository under any -checkpoint-scheme kind writes the same manifest and
// stores nothing new. Degrading twice would not: quant-N is not idempotent.
func TestRearchiveDegradesCheckpointsOnce(t *testing.T) {
	def, res, _ := trainToy(t, 32)
	for _, scheme := range []floatenc.Scheme{
		{Kind: floatenc.Float16}, {Kind: floatenc.BFloat16},
		{Kind: floatenc.Fixed, Bits: 8}, {Kind: floatenc.QuantUniform, Bits: 8},
	} {
		t.Run(scheme.String(), func(t *testing.T) {
			r := initRepo(t)
			if _, err := r.Commit(CommitInput{Name: "m", NetDef: def,
				Checkpoints: res.Checkpoints, Final: res.Final}); err != nil {
				t.Fatal(err)
			}
			opts := ArchiveOptions{Algorithm: "pas-mt", Alpha: 2, CheckpointScheme: &scheme}
			first, err := r.Archive(opts)
			if err != nil {
				t.Fatal(err)
			}
			manifest := filepath.Join(r.pasPath(), "manifest.json")
			before, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			again, err := r.Archive(opts)
			if err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) || again.StoredChunks() != first.StoredChunks() {
				t.Fatalf("re-archive changed the archive: manifest equal %v, stored chunks %d -> %d",
					bytes.Equal(before, after), first.StoredChunks(), again.StoredChunks())
			}
		})
	}
}

func TestEvalProgressiveTopK(t *testing.T) {
	r := initRepo(t)
	def, res, examples := trainToy(t, 31)
	id, err := r.Commit(CommitInput{Name: "m", NetDef: def, Final: res.Final})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	test := examples[:25]
	top1, err := r.EvalProgressiveTopK(id, LatestSnap, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	top5, err := r.EvalProgressiveTopK(id, LatestSnap, test, 5)
	if err != nil {
		t.Fatal(err)
	}
	if top5.Accuracy < top1.Accuracy {
		t.Fatalf("top-5 accuracy %v must be >= top-1 %v", top5.Accuracy, top1.Accuracy)
	}
	// Top-5 determination is harder: at least as many planes consumed.
	planes := func(r *ProgressiveEvalResult) int {
		total := 0
		for p := 1; p <= 4; p++ {
			total += p * r.PrefixHistogram[p]
		}
		return total
	}
	if planes(top5) < planes(top1) {
		t.Fatalf("top-5 should need at least as many byte planes (%d vs %d)", planes(top5), planes(top1))
	}
	if _, err := r.EvalProgressiveTopK(id, LatestSnap, test, 0); !errors.Is(err, ErrRepo) {
		t.Fatal("k=0 must error")
	}
	// dlv eval -progressive -topk 11 on a 10-class model.
	if _, err := r.EvalProgressiveTopK(id, LatestSnap, test, def.Labels+1); !errors.Is(err, ErrRepo) {
		t.Fatalf("k above the logit count: err %v, want ErrRepo", err)
	}
}

// The full lifecycle works on DAG models with skip connections: commit,
// archive, retrieve, evaluate (full and progressive).
func TestDAGModelLifecycle(t *testing.T) {
	r := initRepo(t)
	rng := rand.New(rand.NewSource(33))
	examples := data.Digits(rng, 200, 0.05)
	def := zoo.ResNetSkip("resnet-skip")
	n, err := dnn.Build(def, rand.New(rand.NewSource(34)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dnn.Train(n, examples, dnn.TrainConfig{
		Epochs: 1, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 35,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Commit(CommitInput{Name: "resnet-skip", NetDef: def, Final: res.Final})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	w, err := r.Weights(id, LatestSnap, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range res.Final {
		if !w[name].Equal(m) {
			t.Fatalf("archived DAG weights %s differ", name)
		}
	}
	test := examples[:20]
	full, err := r.Eval(id, LatestSnap, test, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := r.EvalProgressive(id, LatestSnap, test)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Accuracy != full.Accuracy {
		t.Fatalf("DAG progressive %v != full %v", prog.Accuracy, full.Accuracy)
	}
}

func TestDiffWeights(t *testing.T) {
	r := initRepo(t)
	id1, res, _ := commitToy(t, r, "base", 50, 0)
	// A fine-tuned near-copy plus a resized layer and a dropped layer.
	rng := rand.New(rand.NewSource(51))
	ft := map[string]*tensor.Matrix{}
	for name, m := range res.Final {
		ft[name] = m.Perturb(rng, 1e-4)
	}
	resized := delta.ResizeTo(ft["ip1"], ft["ip1"].Rows()+4, ft["ip1"].Cols())
	ft["ip1"] = resized
	delete(ft, "conv1")
	ft["conv_new"] = tensor.RandNormal(rng, 4, 10, 0.1)
	id2, err := r.Commit(CommitInput{Name: "variant", NetDef: zoo.LeNet("variant"), Final: ft})
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := r.DiffWeights(id1, id2, LatestSnap)
	if err != nil {
		t.Fatal(err)
	}
	byLayer := map[string]WeightDiff{}
	for _, d := range diffs {
		byLayer[d.Layer] = d
	}
	// ip2 is a near-copy: tiny mean diff, cosine ~1.
	if d := byLayer["ip2"]; d.MeanAbsDiff > 1e-3 || d.CosineSim < 0.999 {
		t.Fatalf("ip2 diff = %+v", d)
	}
	// ip1 resized: shapes differ, overlap still compared.
	if d := byLayer["ip1"]; d.RowsA == d.RowsB || d.MeanAbsDiff > 1e-3 {
		t.Fatalf("ip1 diff = %+v", d)
	}
	if d := byLayer["conv1"]; d.OnlyIn != "a" {
		t.Fatalf("conv1 diff = %+v", d)
	}
	if d := byLayer["conv_new"]; d.OnlyIn != "b" {
		t.Fatalf("conv_new diff = %+v", d)
	}
	text := FormatWeightDiffs(diffs)
	for _, want := range []string{"ip2", "only in a", "only in b", "COS-SIM"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted diff missing %q:\n%s", want, text)
		}
	}
}

func TestArchivePlaneGranularity(t *testing.T) {
	r := initRepo(t)
	id, res, _ := commitToy(t, r, "m", 60, 0)
	store, err := r.Archive(ArchiveOptions{Algorithm: "pas-mt", Alpha: 1.5, PlaneGranularity: true})
	if err != nil {
		t.Fatal(err)
	}
	if !store.Info().Feasible {
		t.Fatal("granular archive should be feasible")
	}
	w, err := r.Weights(id, LatestSnap, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !w["ip2"].Equal(res.Final["ip2"]) {
		t.Fatal("granular archive must retrieve exactly")
	}
	// Progressive eval still works on the granular archive.
	prog, err := r.EvalProgressive(id, LatestSnap, core_TestSetStub(20))
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Eval(id, LatestSnap, core_TestSetStub(20), 4)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Accuracy != full.Accuracy {
		t.Fatalf("granular progressive %v != full %v", prog.Accuracy, full.Accuracy)
	}
}

// core_TestSetStub avoids importing core (cycle): deterministic digits.
func core_TestSetStub(n int) []dnn.Example {
	return data.Digits(rand.New(rand.NewSource(777)), n, 0.05)
}

func TestEvalHistory(t *testing.T) {
	r := initRepo(t)
	id, res, examples := commitToy(t, r, "m", 70, 0)
	hist, err := r.EvalHistory(id, examples[:40])
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != len(res.Checkpoints)+1 {
		t.Fatalf("history points = %d", len(hist))
	}
	if hist[len(hist)-1].Snapshot != LatestSnap {
		t.Fatal("latest snapshot must be last")
	}
	// Training should improve from the first checkpoint to the final model.
	if hist[len(hist)-1].Accuracy < hist[0].Accuracy {
		t.Fatalf("trajectory should not end below its start: %+v", hist)
	}
	// Versions without snapshots error cleanly.
	id2, err := r.Commit(CommitInput{Name: "empty", NetDef: zoo.LeNet("empty")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EvalHistory(id2, examples[:5]); !errors.Is(err, ErrRepo) {
		t.Fatal("snapshot-less version must error")
	}
}
