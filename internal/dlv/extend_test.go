package dlv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"modelhub/internal/dnn"
	"modelhub/internal/floatenc"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// synthLineage returns the commits of a synthetic fine-tune lineage, one per
// entry of parents (the parent's version id, 0 for a root; ids count from 1
// in commit order). Each version takes checkpoints at iterations 10 and 20
// and a latest snapshot, every one a small step from the one before, the
// first from its parent's latest.
func synthLineage(seed int64, parents []int64) []CommitInput {
	rng := rand.New(rand.NewSource(seed))
	root := map[string]*tensor.Matrix{
		"conv1": tensor.RandNormal(rng, 8, 10, 0.1),
		"ip1":   tensor.RandNormal(rng, 16, 33, 0.1),
		"ip2":   tensor.RandNormal(rng, 10, 16, 0.1),
	}
	step := func(w map[string]*tensor.Matrix) map[string]*tensor.Matrix {
		out := map[string]*tensor.Matrix{}
		for _, name := range slices.Sorted(maps.Keys(w)) {
			out[name] = w[name].Perturb(rng, 1e-3)
		}
		return out
	}
	latest := map[int64]map[string]*tensor.Matrix{}
	var ins []CommitInput
	for i, parent := range parents {
		w := root
		if parent != 0 {
			w = latest[parent]
		}
		c1 := step(w)
		c2 := step(c1)
		fin := step(c2)
		ins = append(ins, CommitInput{Name: fmt.Sprintf("v%d", i+1), NetDef: zoo.LeNet("ft"),
			Checkpoints: []dnn.Checkpoint{{Iter: 10, Weights: c1}, {Iter: 20, Weights: c2}},
			Final:       fin, ParentID: parent})
		latest[int64(i+1)] = fin
	}
	return ins
}

// snapshotsOfInput maps a commit's snapshot labels to its weights.
func snapshotsOfInput(in CommitInput) map[string]map[string]*tensor.Matrix {
	out := map[string]map[string]*tensor.Matrix{LatestSnap: in.Final}
	for _, ck := range in.Checkpoints {
		out[fmt.Sprintf("ckpt-%06d", ck.Iter)] = ck.Weights
	}
	return out
}

// manifestEntries reads the archive's manifest file and returns its bytes
// and its node and snapshot entries, rendered as JSON.
func manifestEntries(t *testing.T, r *Repo) (blob []byte, nodes, snaps []json.RawMessage) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(r.pasPath(), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := pas.ManifestJSON(r.pasPath())
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Nodes     []json.RawMessage `json:"nodes"`
		Snapshots []json.RawMessage `json:"snapshots"`
	}
	if err := json.Unmarshal(rendered, &man); err != nil {
		t.Fatal(err)
	}
	return blob, man.Nodes, man.Snapshots
}

// checkArchived checks every snapshot of the given commits (version i+1 is
// ins[i]) against what was committed: bit-identical at full precision, and
// inside the byte-plane intervals at prefix 2.
func checkArchived(t *testing.T, r *Repo, ins []CommitInput) {
	t.Helper()
	for i, in := range ins {
		id := int64(i + 1)
		for snap, want := range snapshotsOfInput(in) {
			got, err := r.Weights(id, snap, 4)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range want {
				if !got[name].Equal(m) {
					t.Fatalf("v%d/%s/%s is not bit-identical to the commit", id, snap, name)
				}
				lo, hi, err := r.WeightIntervals(id, snap, name, 2)
				if err != nil {
					t.Fatal(err)
				}
				for k, x := range m.Data() {
					if !(lo.Data()[k] <= x && x <= hi.Data()[k]) {
						t.Fatalf("v%d/%s/%s[%d] = %v is outside its prefix-2 interval [%v, %v]",
							id, snap, name, k, x, lo.Data()[k], hi.Data()[k])
					}
				}
			}
		}
	}
}

// An archive after every commit extends the stored plan. Each archive keeps
// the old manifest's node and snapshot entries byte for byte as a prefix of
// the new one, and prices exactly the jobs that touch a new matrix: the new
// matrices, both directions of every pair between two new ones (one body
// for a same-shape pair), and one direction of every pair from an archived
// parent's latest snapshot, which enters pinned. Nothing old is priced
// again. One step commits two versions, so a parent that is itself new is
// linked as a new node. Every snapshot stays exact at full precision and
// inside its bounds at prefix 2.
func TestArchiveExtendsPerCommit(t *testing.T) {
	const layers = 3
	// Versions committed before each archive, by parent id: v5's parent v4
	// is committed in the same step.
	steps := [][]int64{{0}, {1}, {2}, {2, 4}, {3}}
	var parents []int64
	for _, step := range steps {
		parents = append(parents, step...)
	}
	ins := synthLineage(81, parents)
	opts := ArchiveOptions{Algorithm: "pas-mt", Alpha: 1.6}
	obs.Enable() // counters are no-ops while metrics are disabled
	counters := []*obs.Counter{
		obs.GetCounter("pas.create.planes_deflated"),
		obs.GetCounter("pas.create.planes_stored"),
		obs.GetCounter("pas.create.planes_shared"),
	}
	priced := func() int64 {
		var n int64
		for _, c := range counters {
			n += c.Value()
		}
		return n
	}

	r := initRepo(t)
	committed := 0
	var oldNodes, oldSnaps []json.RawMessage
	for si, step := range steps {
		matrices, bothWays, oneWay := 0, 0, 0
		archived := int64(committed) // versions 1..archived are in the archive
		for _, parent := range step {
			in := ins[committed]
			committed++
			if id, err := r.Commit(in); err != nil || id != int64(committed) {
				t.Fatalf("commit %d: id %d, %v", committed, id, err)
			}
			snaps := len(in.Checkpoints) + 1
			matrices += snaps * layers
			bothWays += (snaps - 1) * layers // adjacent snapshots of the version
			switch {
			case parent == 0:
			case parent > archived:
				bothWays += layers // the parent is new in this step
			default:
				oneWay += layers // the parent's latest is archived: pinned
			}
		}
		before := priced()
		if _, err := r.Archive(opts); err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		got, want := priced()-before, int64((matrices+2*bothWays+oneWay)*floatenc.NumPlanes)
		if got != want {
			t.Errorf("step %d priced %d planes, want %d (%d new matrices, %d new-new pairs, %d pinned pairs)",
				si, got, want, matrices, bothWays, oneWay)
		}
		_, nodes, snaps := manifestEntries(t, r)
		if len(nodes) < len(oldNodes) || len(snaps) != len(oldSnaps)+3*len(step) {
			t.Fatalf("step %d: manifest has %d nodes and %d snapshots after %d and %d",
				si, len(nodes), len(snaps), len(oldNodes), len(oldSnaps))
		}
		for i := range oldNodes {
			if !bytes.Equal(nodes[i], oldNodes[i]) {
				t.Fatalf("step %d: node entry %d changed:\n%s\n%s", si, i, oldNodes[i], nodes[i])
			}
		}
		for i := range oldSnaps {
			if !bytes.Equal(snaps[i], oldSnaps[i]) {
				t.Fatalf("step %d: snapshot entry %d changed:\n%s\n%s", si, i, oldSnaps[i], snaps[i])
			}
		}
		oldNodes, oldSnaps = nodes, snaps
		if left := rawFiles(t, r); len(left) != 0 {
			t.Fatalf("step %d left raw files %v", si, left)
		}
		checkArchived(t, r, ins[:committed])
	}
}

// Repacking a repository archived after every commit yields the archive a
// single archive of the same commits writes: the same plan, node for node,
// and the same live payloads, with nothing else stored. Repack right after
// that single archive changes no manifest byte.
func TestRepackReplansLikeOneArchive(t *testing.T) {
	ins := synthLineage(82, []int64{0, 1, 2, 2, 4})
	opts := ArchiveOptions{Algorithm: "pas-mt", Alpha: 1.6}
	perCommit, once := initRepo(t), initRepo(t)
	for _, in := range ins {
		if _, err := perCommit.Commit(in); err != nil {
			t.Fatal(err)
		}
		if _, err := perCommit.Archive(opts); err != nil {
			t.Fatal(err)
		}
		if _, err := once.Commit(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := once.Archive(opts); err != nil {
		t.Fatal(err)
	}
	extended, want := planOf(t, perCommit), planOf(t, once)
	if bytes.Equal(extended, want) {
		t.Fatal("extending per commit planned what one archive plans; the fixture does not tell the two paths apart")
	}
	if _, err := perCommit.Repack(); err != nil {
		t.Fatal(err)
	}
	if got := planOf(t, perCommit); !bytes.Equal(got, want) {
		t.Fatal("repack did not re-plan to the plan one archive writes")
	}
	if a, b := storedSums(t, perCommit), storedSums(t, once); !slices.Equal(a, b) {
		t.Fatalf("repacked archive stores %d payloads, one archive %d", len(a), len(b))
	}
	manifest, _, _ := manifestEntries(t, once)
	if _, err := once.Repack(); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := manifestEntries(t, once); !bytes.Equal(got, manifest) {
		t.Fatal("repack right after a full archive changed the manifest")
	}
	checkArchived(t, perCommit, ins)
}

// storedSums lists the payload digests the archive's chunk table holds.
func storedSums(t *testing.T, r *Repo) []string {
	t.Helper()
	var sums []string
	for _, c := range storedChunks(t, storedManifest(t, r)) {
		sums = append(sums, c.Sum)
	}
	slices.Sort(sums)
	return sums
}

// storedManifest decodes the archive's manifest, rendered as JSON, one
// field deep.
func storedManifest(t *testing.T, r *Repo) map[string]json.RawMessage {
	t.Helper()
	blob, err := pas.ManifestJSON(r.pasPath())
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]json.RawMessage
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// storedChunks decodes a manifest's chunk table as far as its digests.
func storedChunks(t *testing.T, man map[string]json.RawMessage) (chunks []struct {
	Sum string `json:"sha256"`
}) {
	t.Helper()
	if err := json.Unmarshal(man["chunks"], &chunks); err != nil {
		t.Fatal(err)
	}
	return chunks
}

// planOf is the archive's manifest without where the chunks live — no
// segment list, next segment number or chunk table, and each node naming its
// planes' payload digests instead of chunk table positions — so two archives
// of the same plan agree on it whatever their segment files.
func planOf(t *testing.T, r *Repo) []byte {
	t.Helper()
	man := storedManifest(t, r)
	chunks := storedChunks(t, man)
	var nodes []map[string]json.RawMessage
	if err := json.Unmarshal(man["nodes"], &nodes); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		var at []int
		if err := json.Unmarshal(n["chunks"], &at); err != nil {
			t.Fatal(err)
		}
		sums := make([]string, len(at))
		for i, c := range at {
			sums[i] = chunks[c].Sum
		}
		n["chunks"], _ = json.Marshal(sums)
	}
	man["nodes"], _ = json.Marshal(nodes)
	delete(man, "next_seg")
	delete(man, "segments")
	delete(man, "chunks")
	blob, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// An extension the archive rejects moves nothing: the manifest stays byte
// for byte, and the new version stays raw, readable and unflagged. The
// archived versions are untouched.
func TestArchiveFailedExtendLeavesVersionRaw(t *testing.T) {
	r := initRepo(t)
	ins := synthLineage(83, []int64{0})
	if _, err := r.Commit(ins[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Archive(ArchiveOptions{}); err != nil {
		t.Fatal(err)
	}
	before, _, _ := manifestEntries(t, r)
	// A checkpoint lacking a layer its latest has: the in-version pair names
	// a matrix nobody archives.
	head := tensor.RandNormal(rand.New(rand.NewSource(84)), 3, 4, 0.1)
	grown := map[string]*tensor.Matrix{"head": head}
	for name, m := range ins[0].Final {
		grown[name] = m
	}
	id, err := r.Commit(CommitInput{Name: "grown", NetDef: zoo.LeNet("grown"), ParentID: 1,
		Checkpoints: []dnn.Checkpoint{{Iter: 1, Weights: ins[0].Final}}, Final: grown})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Archive(ArchiveOptions{}); !errors.Is(err, pas.ErrStore) {
		t.Fatalf("extension naming an unknown matrix = %v, want pas.ErrStore", err)
	}
	if after, _, _ := manifestEntries(t, r); !bytes.Equal(before, after) {
		t.Fatal("a failed extension changed the manifest")
	}
	reopened, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	v, err := reopened.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Archived {
		t.Fatal("a failed extension flagged the version archived")
	}
	got, err := reopened.Weights(id, LatestSnap, 4)
	if err != nil {
		t.Fatalf("raw weights unreadable after a failed extension: %v", err)
	}
	if !got["head"].Equal(head) {
		t.Fatal("raw weights changed by a failed extension")
	}
	checkArchived(t, reopened, ins)
}
