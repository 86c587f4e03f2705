package dlv

// Archive maintenance: dlv gc and dlv repack. Archiving never overwrites
// segment payloads in place — content-addressed dedup makes displaced
// payloads garbage instead — so a long-lived repository wants a GC that
// reclaims them, and a repack that re-plans the archive globally and then
// coalesces fragmented segment files. GC is safe under concurrent checkouts
// of the same in-process store (pas commit order: write new segments → write
// the manifest with the new layout → unlink old). Repack swaps in a new store first, so a checkout
// still reading through the old one can fail typed and is retried.

import (
	"fmt"

	"modelhub/internal/obs"
	"modelhub/internal/pas"
)

// GC compacts the repository's PAS archive: segment files holding payloads
// no archived snapshot references are rewritten to live-only segments, and
// the reclaimed bytes are returned. The repository must have been archived
// (dlv archive).
func (r *Repo) GC() (pas.GCStats, error) {
	defer obs.StartRoot("dlv.gc").End()
	unlock, err := r.lockWriter()
	if err != nil {
		return pas.GCStats{}, err
	}
	defer unlock()
	store, err := r.openArchive()
	if err != nil {
		return pas.GCStats{}, fmt.Errorf("%w: gc: %v", ErrRepo, err)
	}
	stats, err := store.GC()
	if err != nil {
		return stats, err
	}
	return stats, r.touchCatalog()
}

// Repack re-plans the repository's PAS archive globally and compacts it.
// Every archived version goes through one plan — the paper's optimizer over
// the whole lineage, where dlv archive only extends the stored plan — with
// the algorithm, scheme, α and plane granularity the archive records; then
// every segment file is rewritten into freshly packed segments, which is GC
// plus defragmentation. Right after a full archive the plan, and so the
// manifest, comes out unchanged.
func (r *Repo) Repack() (pas.GCStats, error) {
	defer obs.StartRoot("dlv.repack").End()
	unlock, err := r.lockWriter()
	if err != nil {
		return pas.GCStats{}, err
	}
	defer unlock()
	cur, err := r.openArchive()
	if err != nil {
		return pas.GCStats{}, fmt.Errorf("%w: repack: %v", ErrRepo, err)
	}
	held, err := r.heldVersions()
	if err != nil {
		return pas.GCStats{}, err
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
		return pas.GCStats{}, err
	}
	r.setArchive(next)
	stats, err := next.Repack()
	if err != nil {
		return stats, err
	}
	return stats, r.touchCatalog()
}
