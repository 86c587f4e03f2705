package dlv

// Archive maintenance: dlv gc and dlv repack. Re-archiving never overwrites
// segment payloads in place — content-addressed dedup makes displaced
// payloads garbage instead — so a long-lived repository wants a GC that
// reclaims them, and a repack that additionally coalesces fragmented
// segment files. Both are safe under concurrent checkouts of the same
// in-process store (pas commit order: write new segments → flip index →
// unlink old).

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
	store, err := r.openArchive()
	if err != nil {
		return pas.GCStats{}, fmt.Errorf("%w: gc: %v", ErrRepo, err)
	}
	return store.GC()
}

// Repack rewrites every segment file of the repository's PAS archive into
// freshly packed segments — GC plus defragmentation after many incremental
// re-archives.
func (r *Repo) Repack() (pas.GCStats, error) {
	defer obs.StartRoot("dlv.repack").End()
	store, err := r.openArchive()
	if err != nil {
		return pas.GCStats{}, fmt.Errorf("%w: repack: %v", ErrRepo, err)
	}
	return store.Repack()
}
