package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// archiveOpts is the archival every fixture uses: PAS-MT with budgets at
// 1.6x the shortest-path-tree recreation cost. Raw weights stay in the repo,
// as they do after a plain `dlv archive`.
var archiveOpts = ArchiveOptions{Algorithm: "pas-mt", Alpha: 1.6}

// snapRef names one snapshot of one version.
type snapRef struct {
	version int64
	snap    string
}

func (r snapRef) pasID() string { return fmt.Sprintf("v%06d/%s", r.version, r.snap) }

// lineage is a repository holding a base model and a chain of fine-tunes,
// each the child of the one before, with a checkpoint every 10 iterations.
// truth keeps the weights exactly as the publisher committed them; every
// full-precision checkout is compared against it bit for bit.
type lineage struct {
	dir      string
	hub      *Hub
	snaps    []snapRef // iteration order within a version, versions in id order
	latest   []int64   // version ids, oldest first
	truth    map[snapRef]Weights
	rawBytes int64 // float32 bytes of all snapshots
}

// baseSeed trains every lineage's base model. The base plays the part of a
// pre-trained zoo model that everyone fine-tunes: it is the same on every
// run, and the run's seed drives the fine-tunes (their data, order and
// noise) and the held-out examples. Seeding the base too makes the work per
// cycle (archive size, PAS plan, progressive-evaluation depth) swing by more
// from seed to seed than the box's timing noise does.
const baseSeed = 20170419

// buildLineage trains and commits the lineage through core.TrainAndCommit
// (what `dlv train` calls).
func buildLineage(ctx context.Context, dir, arch, prefix string, versions int, seed int64) (*lineage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mh, err := initRepo(dir)
	if err != nil {
		return nil, err
	}
	var parent int64
	for i := 1; i <= versions; i++ {
		opts := TrainOptions{Arch: arch, Epochs: 1, LR: 0.02, CheckpointEvery: 10,
			Seed: seed*1000 + int64(i), ParentID: parent, Msg: "fine-tune"}
		if i == 1 {
			opts.Epochs, opts.LR, opts.Seed, opts.Msg = 2, 0.1, baseSeed, "base"
		}
		if parent, err = mh.TrainAndCommit(fmt.Sprintf("%s_v%d", prefix, i), opts); err != nil {
			return nil, err
		}
	}
	l := &lineage{dir: dir, hub: mh, truth: map[snapRef]Weights{}}
	return l, l.recordTruth(ctx, 1)
}

// recordTruth reads back the raw committed weights of versions >= from.
func (l *lineage) recordTruth(ctx context.Context, from int64) error {
	versions, err := l.hub.Repo.List()
	if err != nil {
		return err
	}
	for _, v := range versions {
		if v.ID < from {
			continue
		}
		if v.Archived {
			return fmt.Errorf("version %d is already archived; its committed weights are gone", v.ID)
		}
		l.latest = append(l.latest, v.ID)
		for _, snap := range v.Snapshots {
			w, err := l.hub.Repo.WeightsCtx(ctx, v.ID, snap, 4)
			if err != nil {
				return err
			}
			ref := snapRef{v.ID, snap}
			l.snaps = append(l.snaps, ref)
			l.truth[ref] = w
			l.rawBytes += weightBytes(w)
		}
	}
	return nil
}

func weightBytes(w Weights) int64 {
	var n int64
	for _, m := range w {
		n += int64(4 * m.Len())
	}
	return n
}

func layerNames(w Weights) []string {
	names := make([]string, 0, len(w))
	for name := range w {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// bitIdentical reports the first layer of got that differs from want in any
// bit, or "" when the snapshots are the same.
func bitIdentical(got, want Weights) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d layers, want %d", len(got), len(want))
	}
	for _, name := range layerNames(want) {
		g, w := got[name], want[name]
		if g == nil || !g.SameShape(w) {
			return name + ": missing or reshaped"
		}
		gd, wd := g.Data(), w.Data()
		for i := range wd {
			if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
				return fmt.Sprintf("%s[%d]: %x != %x", name, i, math.Float32bits(gd[i]), math.Float32bits(wd[i]))
			}
		}
	}
	return ""
}

// withinBounds checks a partial-precision checkout against the interval the
// store promises for that prefix: both the partial value and the committed
// value must lie inside [lo, hi] for every weight.
func withinBounds(partial, want Weights, bounds func(layer string) (lo, hi *Matrix, err error)) string {
	for _, name := range layerNames(want) {
		lo, hi, err := bounds(name)
		if err != nil {
			return name + ": " + err.Error()
		}
		p, w, l, h := partial[name].Data(), want[name].Data(), lo.Data(), hi.Data()
		for i := range w {
			if !(l[i] <= w[i] && w[i] <= h[i] && l[i] <= p[i] && p[i] <= h[i]) {
				return fmt.Sprintf("%s[%d]: bounds [%g, %g] miss committed %g or partial %g", name, i, l[i], h[i], w[i], p[i])
			}
		}
	}
	return ""
}

// copyTree copies a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// diskBytes sums the sizes of the regular files under dirs.
func diskBytes(dirs ...string) int64 {
	var n int64
	for _, dir := range dirs {
		_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil // a file unlinked mid-walk is not on disk any more
			}
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
			return nil
		})
	}
	return n
}

func repoBytes(root string) int64 { return diskBytes(filepath.Join(root, ".dlv")) }
func pasBytes(root string) int64  { return diskBytes(filepath.Join(root, ".dlv", "pas")) }
