package dlv

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"

	"modelhub/internal/atomicfile"
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
	// PlaneGranularity lets the plan optimizer choose storage per byte
	// segment rather than per matrix (pas.Options.PlaneGranularity).
	PlaneGranularity bool
}

// Archive moves every version's snapshots into the PAS archive (dlv
// archive). Within a version, consecutive snapshots become delta candidates;
// across versions, the parent relation links the parent's latest snapshot to
// the child's first (the fine-tuning pattern the paper exploits).
//
// When an archive exists and was planned with opts' algorithm, scheme, α and
// plane granularity, Archive extends it (pas.Store.Extend): only versions it
// does not hold yet are priced and planned, and an archived parent's latest
// snapshot enters the plan pinned at the cost its stored chain has. With
// nothing new it returns the open store and writes nothing. Otherwise — the
// first archive, or other settings — it plans every version globally,
// reading archived ones back from the store (bit-exact at full precision),
// and pas.Create writes that plan into fresh segments and unlinks the old
// plan's. Repack runs the global plan with the recorded settings.
//
// A version's weights live in one place: its raw file until its first
// archive, the archive after. The new manifest and then the catalog's
// archived flags are made durable before any raw file is removed, so a crash
// leaves either a raw version with its file or an archived version whose
// leftover file nothing reads and the next archive removes.
func (r *Repo) Archive(opts ArchiveOptions) (*pas.Store, error) {
	unlock, err := r.lockWriter()
	if err != nil {
		return nil, err
	}
	defer unlock()
	held, err := r.heldVersions()
	if err != nil {
		return nil, err
	}
	if len(held) == 0 {
		return nil, fmt.Errorf("%w: nothing to archive", ErrRepo)
	}
	var cur *pas.Store // the archive as it stands, once a version is flagged archived
	for _, v := range held {
		if v.Archived {
			if cur, err = r.openArchive(); err != nil {
				return nil, err
			}
			break
		}
	}
	next := cur
	if cur != nil && plannedWith(cur.Info(), opts) {
		inStore := archivedIn(cur)
		var fresh []*Version
		for _, v := range held {
			if !inStore(v) {
				fresh = append(fresh, v)
			}
		}
		if len(fresh) > 0 {
			snaps, pairs, err := r.lineage(fresh, cur)
			if err != nil {
				return nil, err
			}
			if next, err = cur.Extend(snaps, pasOptions(opts, pairs)); err != nil {
				return nil, err
			}
		}
	} else if next, err = r.replan(held, cur, opts); err != nil {
		return nil, err
	}
	if err := r.setArchived(held, next != cur); err != nil {
		if next != cur {
			err = errors.Join(err, next.Close())
		}
		return nil, err
	}
	if err := r.setArchive(next); err != nil {
		return nil, fmt.Errorf("%w: archive committed, but closing the store it replaced failed: %v", ErrRepo, err)
	}
	for _, v := range held {
		if err := r.removeRaw(v.ID); err != nil {
			return nil, fmt.Errorf("%w: archive committed, but removing the raw weights of version %d failed (the next archive retries): %v",
				ErrRepo, v.ID, err)
		}
	}
	return next, nil
}

// Repack re-plans the repository's PAS archive globally (dlv repack): every
// archived version goes through one plan — the paper's optimizer over the
// whole lineage, where dlv archive only extends the stored plan — with the
// algorithm, scheme, α and plane granularity the archive records, and is
// written into fresh, packed segments. Right after a full archive the plan
// comes out unchanged, and so does every file of the archive. A checkout
// still reading through the store Repack replaced can fail typed.
func (r *Repo) Repack() (*pas.Store, error) {
	defer obs.StartRoot("dlv.repack").End()
	unlock, err := r.lockWriter()
	if err != nil {
		return nil, err
	}
	defer unlock()
	cur, err := r.openArchive()
	if err != nil {
		return nil, fmt.Errorf("%w: repack: %v", ErrRepo, err)
	}
	held, err := r.heldVersions()
	if err != nil {
		return nil, err
	}
	inStore := archivedIn(cur)
	var archived []*Version
	for _, v := range held {
		if inStore(v) {
			archived = append(archived, v)
		}
	}
	info := cur.Info()
	next, err := r.replan(archived, cur, ArchiveOptions{
		Algorithm: info.Algorithm, Scheme: info.Scheme, Alpha: info.Alpha, PlaneGranularity: info.PlaneGranularity,
	})
	if err != nil {
		return nil, err
	}
	if err := r.setArchive(next); err != nil {
		return nil, fmt.Errorf("%w: repack committed, but closing the store it replaced failed: %v", ErrRepo, err)
	}
	return next, r.touchCatalog()
}

// setArchived flags vs archived in the catalog and saves it, unless every
// one already is and the archive was not rewritten.
func (r *Repo) setArchived(vs []*Version, rewritten bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := slices.Clone(r.versions)
	changed := rewritten
	for _, v := range vs {
		if i, ok := slices.BinarySearchFunc(next, v.ID, byID); ok && !next[i].Archived {
			next[i].Archived, changed = true, true
		}
	}
	if !changed {
		return nil
	}
	return r.saveCatalog(next)
}

// heldVersions lists the versions that have weights, in id order.
func (r *Repo) heldVersions() ([]*Version, error) {
	versions, err := r.List()
	if err != nil {
		return nil, err
	}
	var held []*Version
	for _, v := range versions {
		if len(v.Snapshots) > 0 {
			held = append(held, v)
		}
	}
	return held, nil
}

// archivedIn reports which versions store holds, by their snapshot ids: the
// manifest is the commit point, so a version whose archived flag a crash
// kept from the catalog still counts. A nil store holds nothing.
func archivedIn(store *pas.Store) func(*Version) bool {
	ids := map[string]bool{}
	if store != nil {
		for _, id := range store.Snapshots() {
			ids[id] = true
		}
	}
	return func(v *Version) bool {
		for _, snap := range v.Snapshots {
			if !ids[pasSnapID(v.ID, snap)] {
				return false
			}
		}
		return len(v.Snapshots) > 0
	}
}

// plannedWith reports whether an archive was planned with opts' settings,
// after pas's defaults.
func plannedWith(info pas.PlanInfo, opts ArchiveOptions) bool {
	algo, alpha := opts.Algorithm, opts.Alpha
	if algo == "" {
		algo = "pas-mt"
	}
	if !(alpha > 0) {
		alpha = 0
	}
	return info.Algorithm == algo && info.Scheme == opts.Scheme && info.Alpha == alpha &&
		info.PlaneGranularity == opts.PlaneGranularity
}

func pasOptions(opts ArchiveOptions, pairs [][2]pas.MatrixRef) pas.Options {
	return pas.Options{
		Algorithm:        opts.Algorithm,
		Scheme:           opts.Scheme,
		Alpha:            opts.Alpha,
		ExtraPairs:       pairs,
		NoDefaultPairs:   true,
		PlaneGranularity: opts.PlaneGranularity,
	}
}

// replan archives vs under one global plan, replacing whatever manifest the
// archive had; versions cur holds are read back from it.
func (r *Repo) replan(vs []*Version, cur *pas.Store, opts ArchiveOptions) (*pas.Store, error) {
	snaps, pairs, err := r.lineage(vs, cur)
	if err != nil {
		return nil, err
	}
	return pas.Create(r.pasPath(), snaps, pasOptions(opts, pairs))
}

// lineage returns vs's snapshots as they enter the archive, in order, and
// their delta candidates: adjacent snapshots within a version, then each
// parent's latest snapshot against its child's first. A version cur holds is
// read back from it; the others are read raw. A parent outside vs is linked when cur holds its latest
// snapshot, which Extend then pins.
func (r *Repo) lineage(vs []*Version, cur *pas.Store) ([]pas.SnapshotIn, [][2]pas.MatrixRef, error) {
	inStore := archivedIn(cur)
	var snaps []pas.SnapshotIn
	var pairs [][2]pas.MatrixRef
	// link offers a delta from snapshot from to each layer of to that has
	// admits, in sorted order: pair order is edge insertion order, which must
	// not replay map iteration order.
	link := func(from string, has func(string) bool, to pas.SnapshotIn) {
		for _, name := range slices.Sorted(maps.Keys(to.Matrices)) {
			if has(name) {
				pairs = append(pairs, [2]pas.MatrixRef{{Snapshot: from, Name: name}, {Snapshot: to.ID, Name: name}})
			}
		}
	}
	firstOf := map[int64]pas.SnapshotIn{}
	latestOf := map[int64]pas.SnapshotIn{}
	for _, v := range vs {
		src := cur
		if !inStore(v) {
			src = nil
		}
		weights, err := r.archiveInput(v, src)
		if err != nil {
			return nil, nil, err
		}
		for i, snap := range v.Snapshots {
			in := pas.SnapshotIn{ID: pasSnapID(v.ID, snap), Matrices: weights[i]}
			if snap == LatestSnap {
				latestOf[v.ID] = in
			}
			if i == 0 {
				firstOf[v.ID] = in
			} else {
				// Adjacent snapshots of a version share layer names: one the
				// previous snapshot lacks fails the plan.
				link(snaps[len(snaps)-1].ID, func(string) bool { return true }, in)
			}
			snaps = append(snaps, in)
		}
	}
	for _, v := range vs {
		child, ok := firstOf[v.ID]
		if v.ParentID == 0 || !ok {
			continue
		}
		if parent, ok := latestOf[v.ParentID]; ok {
			link(parent.ID, func(name string) bool { _, ok := parent.Matrices[name]; return ok }, child)
		} else if cur != nil {
			id := pasSnapID(v.ParentID, LatestSnap)
			if names, err := cur.MatrixNames(id); err == nil {
				link(id, func(name string) bool { return slices.Contains(names, name) }, child)
			}
		}
	}
	return snaps, pairs, nil
}

// archiveInput returns a version's snapshots in v.Snapshots order as they
// enter the archive: read back from store when it is set (the version is
// archived there), else read raw.
func (r *Repo) archiveInput(v *Version, store *pas.Store) ([]map[string]*tensor.Matrix, error) {
	out := make([]map[string]*tensor.Matrix, len(v.Snapshots))
	if store != nil {
		for i, snap := range v.Snapshots {
			var err error
			if out[i], err = store.GetSnapshot(pasSnapID(v.ID, snap), 4, pas.Concurrent); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	raw, err := r.readRaw(v.ID, "")
	if err != nil {
		return nil, err
	}
	for i, snap := range v.Snapshots {
		w, ok := raw[snap]
		if !ok {
			return nil, fmt.Errorf("%w: snapshot v%d/%s is missing from its raw weights file", ErrRepo, v.ID, snap)
		}
		out[i] = w
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
// caches keyed against the old plan, and closes the store it replaces. A
// checkout still reading through that store gets the bytes it already
// holds, or fails typed.
func (r *Repo) setArchive(store *pas.Store) error {
	r.pasMu.Lock()
	old := r.pasStore
	r.pasStore = store
	r.pasMu.Unlock()
	if old == nil || old == store {
		return nil
	}
	return old.Close()
}

// Close releases the archive the repository holds open, the segment files
// of its memoized store. A later read opens the archive again.
func (r *Repo) Close() error {
	return r.setArchive(nil)
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
	raw, err := r.readRaw(versionID, snap)
	if err != nil {
		return nil, err
	}
	w, ok := raw[snap]
	if !ok {
		return nil, fmt.Errorf("%w: version %d has no snapshot %q", ErrRepo, versionID, snap)
	}
	return w, nil
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

// A version's raw weights are one file, .dlv/weights/vNNNNNN.bin, holding
// every snapshot it committed. Commit writes it once; the version's first
// Archive moves its snapshots into PAS and unlinks it.
//
//	file:   rawMagic | record*
//	record: snap string | layer string | rows uint32 | cols uint32 | rows·cols float32
//	string: len uint32 | bytes
//
// Integers and float32 bit patterns are little-endian. Records run in
// commit order: checkpoints by iteration, then latest, layers sorted.
const rawMagic = "DLVRAW1\n"

// rawSnapshot is one snapshot headed into a raw weights file.
type rawSnapshot struct {
	label   string
	weights map[string]*tensor.Matrix
}

func (r *Repo) rawPath(versionID int64) string {
	return filepath.Join(r.root, dlvDir, weightsDir, fmt.Sprintf("v%06d.bin", versionID))
}

// writeRaw writes a version's raw weights file durably (atomicfile).
func (r *Repo) writeRaw(versionID int64, snaps []rawSnapshot) error {
	dir := filepath.Join(r.root, dlvDir, weightsDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%w: %v", ErrRepo, err)
	}
	blob := []byte(rawMagic)
	appendString := func(s string) {
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(s)))
		blob = append(blob, s...)
	}
	for _, s := range snaps {
		for _, name := range slices.Sorted(maps.Keys(s.weights)) {
			m := s.weights[name]
			appendString(s.label)
			appendString(name)
			blob = binary.LittleEndian.AppendUint32(blob, uint32(m.Rows()))
			blob = binary.LittleEndian.AppendUint32(blob, uint32(m.Cols()))
			for _, x := range m.Data() {
				blob = binary.LittleEndian.AppendUint32(blob, math.Float32bits(x))
			}
		}
	}
	if err := atomicfile.WriteFile(r.rawPath(versionID), blob); err != nil {
		return fmt.Errorf("%w: %v", ErrRepo, err)
	}
	return nil
}

// readRaw reads a version's raw weights file: every snapshot, or only the
// one labelled only when it is not empty.
func (r *Repo) readRaw(versionID int64, only string) (map[string]map[string]*tensor.Matrix, error) {
	blob, err := os.ReadFile(r.rawPath(versionID))
	if err != nil {
		return nil, fmt.Errorf("%w: raw weights of version %d: %v", ErrRepo, versionID, err)
	}
	out, err := parseRaw(blob, only)
	if err != nil {
		return nil, fmt.Errorf("%w: raw weights of version %d: %v", ErrRepo, versionID, err)
	}
	return out, nil
}

// parseRaw decodes a raw weights file. The file travels inside pulled
// repositories, so every length is checked against the bytes that remain
// before anything is allocated for it.
func parseRaw(blob []byte, only string) (map[string]map[string]*tensor.Matrix, error) {
	b, ok := bytes.CutPrefix(blob, []byte(rawMagic))
	if !ok {
		return nil, errors.New("bad magic")
	}
	// u32 and str consume one field each, reporting false when the bytes left
	// cannot hold it.
	u32 := func() (uint32, bool) {
		if len(b) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v, true
	}
	str := func() (string, bool) {
		n, ok := u32()
		if !ok || uint64(n) > uint64(len(b)) {
			return "", false
		}
		s := string(b[:n])
		b = b[n:]
		return s, true
	}
	out := map[string]map[string]*tensor.Matrix{}
	for len(b) > 0 {
		snap, ok1 := str()
		name, ok2 := str()
		rows, ok3 := u32()
		cols, ok4 := u32()
		if !(ok1 && ok2 && ok3 && ok4) {
			return nil, errors.New("truncated record")
		}
		if uint64(rows)*uint64(cols) > uint64(len(b))/4 {
			return nil, fmt.Errorf("record %s/%s declares %d x %d float32, more than the %d bytes left", snap, name, rows, cols, len(b))
		}
		body := b[:4*int(rows)*int(cols)]
		b = b[len(body):]
		if only != "" && snap != only {
			continue
		}
		m, err := tensor.FromBytes(int(rows), int(cols), body)
		if err != nil {
			return nil, err
		}
		if out[snap] == nil {
			out[snap] = map[string]*tensor.Matrix{}
		}
		if _, dup := out[snap][name]; dup {
			return nil, fmt.Errorf("layer %s/%s recorded twice", snap, name)
		}
		out[snap][name] = m
	}
	return out, nil
}

// removeRaw unlinks an archived version's raw weights file. An absent file
// is not an error: it is already gone.
func (r *Repo) removeRaw(versionID int64) error {
	if err := os.Remove(r.rawPath(versionID)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
