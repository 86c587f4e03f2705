package dlv

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"modelhub/internal/catalog"
	"modelhub/internal/dnn"
	"modelhub/internal/floatenc"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/tensor"
)

// pasSnapID is the PAS snapshot identifier of a DLV snapshot.
func pasSnapID(versionID int64, snap string) string {
	return fmt.Sprintf("v%06d/%s", versionID, snap)
}

// ArchiveOptions configure dlv archive.
type ArchiveOptions struct {
	// Algorithm, Scheme, Alpha mirror pas.Options.
	Algorithm string
	Scheme    pas.Scheme
	Alpha     float64
	// LatestBudget and CheckpointBudget set per-snapshot budgets directly
	// (used when Alpha == 0): latest snapshots are hot (paper Sec. IV-A,
	// unbalanced access frequencies), checkpoints are cold.
	LatestBudget     float64
	CheckpointBudget float64
	// CheckpointScheme, when non-nil, degrades checkpoint (non-latest)
	// snapshots through a lossy float representation before archival —
	// the paper's alternative to deleting snapshots under resource
	// pressure (Sec. IV-B: "most useful for snapshots whose weights are
	// primarily used for fine-tuning or initialization"). Latest snapshots
	// always stay lossless.
	CheckpointScheme *floatenc.Scheme
	// PlaneGranularity lets the plan optimizer choose storage per byte
	// segment rather than per matrix (pas.Options.PlaneGranularity).
	PlaneGranularity bool
	// Purge removes the raw weight files after a successful archive.
	Purge bool
}

// Archive consolidates every snapshot of every version into a PAS archive
// (dlv archive). Within a version, consecutive snapshots become delta
// candidates; across versions, the parent relation links the parent's
// latest snapshot to the child's snapshots (the fine-tuning pattern the
// paper exploits).
func (r *Repo) Archive(opts ArchiveOptions) (*pas.Store, error) {
	versions, err := r.List()
	if err != nil {
		return nil, err
	}
	var snaps []pas.SnapshotIn
	var extra [][2]pas.MatrixRef
	// link offers a delta from one snapshot to another for every layer name
	// of the target (sharedOnly: that the source has too; otherwise a name the
	// source lacks fails Create), in sorted order: pair order is edge
	// insertion order, which must not replay map iteration order.
	link := func(from, to pas.SnapshotIn, sharedOnly bool) {
		for _, name := range dnn.SortedNames(to.Matrices) {
			if _, ok := from.Matrices[name]; ok || !sharedOnly {
				extra = append(extra, [2]pas.MatrixRef{
					{Snapshot: from.ID, Name: name},
					{Snapshot: to.ID, Name: name},
				})
			}
		}
	}
	firstOf := map[int64]pas.SnapshotIn{}
	latestOf := map[int64]pas.SnapshotIn{}
	for _, v := range versions {
		for i, snap := range v.Snapshots {
			w, err := r.readRawSnapshot(v.ID, snap)
			if err != nil {
				return nil, err
			}
			if opts.CheckpointScheme != nil && snap != LatestSnap {
				if w, err = degradeSnapshot(w, *opts.CheckpointScheme); err != nil {
					return nil, err
				}
			}
			in := pas.SnapshotIn{ID: pasSnapID(v.ID, snap), Matrices: w, Budget: opts.CheckpointBudget}
			if snap == LatestSnap {
				in.Budget = opts.LatestBudget
				latestOf[v.ID] = in
			}
			if i == 0 {
				firstOf[v.ID] = in
			} else {
				link(snaps[len(snaps)-1], in, false) // in-version chain: adjacent snapshots share layer names
			}
			snaps = append(snaps, in)
		}
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: nothing to archive", ErrRepo)
	}
	// Cross-version candidates along lineage: parent's latest snapshot vs
	// the child's first snapshot.
	for _, v := range versions {
		parentLatest, okP := latestOf[v.ParentID]
		childFirst, okC := firstOf[v.ID]
		if v.ParentID != 0 && okP && okC {
			link(parentLatest, childFirst, true)
		}
	}
	store, err := pas.Create(r.pasPath(), snaps, pas.Options{
		Algorithm:        opts.Algorithm,
		Scheme:           opts.Scheme,
		Alpha:            opts.Alpha,
		ExtraPairs:       extra,
		NoDefaultPairs:   true,
		PlaneGranularity: opts.PlaneGranularity,
	})
	if err != nil {
		return nil, err
	}
	for _, v := range versions {
		if len(v.Snapshots) == 0 {
			continue
		}
		if _, err := r.db.Update("model_version",
			[]catalog.Cond{{Col: "id", Op: catalog.Eq, Val: v.ID}},
			catalog.Row{"archived": true}); err != nil {
			return nil, err
		}
		if opts.Purge {
			if err := os.RemoveAll(filepath.Join(r.root, dlvDir, weightsDir, fmt.Sprintf("v%06d", v.ID))); err != nil {
				return nil, fmt.Errorf("%w: purging raw weights: %v", ErrRepo, err)
			}
		}
	}
	if err := r.db.Save(); err != nil {
		return nil, err
	}
	r.setArchive(store)
	return store, nil
}

// degradeSnapshot round-trips every matrix through a lossy float scheme,
// collapsing low-order entropy so the archived chunks compress much better.
func degradeSnapshot(w map[string]*tensor.Matrix, scheme floatenc.Scheme) (map[string]*tensor.Matrix, error) {
	out := make(map[string]*tensor.Matrix, len(w))
	for name, m := range w {
		enc, err := floatenc.Encode(scheme, m)
		if err != nil {
			return nil, err
		}
		dec, err := floatenc.Decode(enc)
		if err != nil {
			return nil, err
		}
		out[name] = dec
	}
	return out, nil
}

func (r *Repo) pasPath() string { return filepath.Join(r.root, dlvDir, pasDir) }

// openArchive returns the PAS store if the repo has been archived. The store
// is memoized on the Repo so the retrieval engine's decoded-plane LRU
// persists across Weights/WeightIntervals calls.
func (r *Repo) openArchive() (*pas.Store, error) {
	r.pasMu.Lock()
	defer r.pasMu.Unlock()
	if r.pasStore != nil {
		return r.pasStore, nil
	}
	store, err := pas.Open(r.pasPath())
	if err != nil {
		return nil, err
	}
	r.pasStore = store
	return store, nil
}

// setArchive replaces the memoized store after a re-archive, dropping any
// caches keyed against the old plan.
func (r *Repo) setArchive(store *pas.Store) {
	r.pasMu.Lock()
	r.pasStore = store
	r.pasMu.Unlock()
}

// Weights loads a snapshot's weight matrices via the concurrent retrieval
// engine (checkout is the hot path PAS is read-optimized for). prefix
// selects the byte-plane resolution (4 = exact); raw (unarchived) snapshots
// only support prefix 4.
func (r *Repo) Weights(versionID int64, snap string, prefix int) (map[string]*tensor.Matrix, error) {
	return r.WeightsCtx(context.Background(), versionID, snap, prefix)
}

// WeightsCtx is Weights under a caller-supplied context, so the checkout
// span joins the caller's trace instead of rooting its own.
func (r *Repo) WeightsCtx(ctx context.Context, versionID int64, snap string, prefix int) (out map[string]*tensor.Matrix, err error) {
	ctx, span := obs.Start(ctx, "dlv.checkout")
	span.SetAttrInt("dlv.version", versionID)
	span.SetAttrInt("dlv.prefix", int64(prefix))
	defer func() {
		if err != nil {
			span.SetError()
		}
		span.End()
	}()
	v, err := r.Version(versionID)
	if err != nil {
		return nil, err
	}
	if v.Archived {
		store, err := r.openArchive()
		if err != nil {
			return nil, err
		}
		return store.GetSnapshotCtx(ctx, pasSnapID(versionID, snap), prefix, pas.Concurrent)
	}
	if prefix != 4 {
		return nil, fmt.Errorf("%w: version %d is not archived; only full-precision weights available", ErrRepo, versionID)
	}
	return r.readRawSnapshot(versionID, snap)
}

// WeightIntervals returns lo/hi bounds of one layer's weights at a given
// byte-plane prefix, serving progressive evaluation over archived models.
// Reads go through the store's (node, prefix) plane LRU, which pays off
// exactly here: progressive evaluation revisits the same chains at
// escalating prefixes.
func (r *Repo) WeightIntervals(versionID int64, snap, layer string, prefix int) (lo, hi *tensor.Matrix, err error) {
	store, err := r.openArchive()
	if err != nil {
		return nil, nil, err
	}
	return store.GetIntervals(pas.MatrixRef{Snapshot: pasSnapID(versionID, snap), Name: layer}, prefix)
}
