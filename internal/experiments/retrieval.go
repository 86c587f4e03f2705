package experiments

import (
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"slices"
	"time"

	"modelhub/internal/pas"
	"modelhub/internal/tensor"
)

// Retrieval-scheme comparison (beyond the paper's Table V, which covers only
// independent vs parallel): measures snapshot recreation wall-clock under
// all four retrieval schemes on one archive of drifting multi-matrix
// checkpoints, and checks every scheme at every prefix against the source
// matrices the archive was built from.

// RetrievalRow is one (query, scheme) cell: average time to recreate a
// snapshot, cold caches vs warm (second sweep over the same snapshots).
type RetrievalRow struct {
	Scheme string
	Prefix int
	Cold   time.Duration
	Warm   time.Duration
}

// RetrievalConfig sizes the workload.
type RetrievalConfig struct {
	Snapshots int // checkpoint chain length
	Matrices  int // matrices per snapshot
	Rows      int // per-matrix shape
	Cols      int
	Seed      int64
}

func (c RetrievalConfig) withDefaults() RetrievalConfig {
	if c.Snapshots == 0 {
		c.Snapshots = 8
	}
	if c.Matrices == 0 {
		c.Matrices = 8
	}
	if c.Rows == 0 {
		c.Rows = 48
	}
	if c.Cols == 0 {
		c.Cols = 160
	}
	return c
}

// RunRetrieval archives a drifting checkpoint chain and times GetSnapshot
// under every scheme at full / 2-byte / 1-byte resolution. Every scheme's
// result is verified against the source matrices (bit-identical at prefix 4,
// their byte-plane truncation below) before its timing is reported; a
// mismatch fails the experiment.
func RunRetrieval(cfg RetrievalConfig) ([]RetrievalRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	base := map[string]*tensor.Matrix{}
	for m := 0; m < cfg.Matrices; m++ {
		base[fmt.Sprintf("layer%02d", m)] = tensor.RandNormal(rng, cfg.Rows, cfg.Cols, 0.1)
	}
	var snaps []pas.SnapshotIn
	cur := base
	for i := 0; i < cfg.Snapshots; i++ {
		snap := pas.SnapshotIn{ID: fmt.Sprintf("s%02d", i), Matrices: map[string]*tensor.Matrix{}}
		for _, name := range slices.Sorted(maps.Keys(cur)) { // map order would vary the draws
			snap.Matrices[name] = cur[name].Perturb(rng, 1e-3)
		}
		snaps = append(snaps, snap)
		cur = snap.Matrices
	}
	dir, err := os.MkdirTemp("", "mh-retrieval-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := pas.Create(dir, snaps, pas.Options{Algorithm: "mst"})
	if err != nil {
		return nil, err
	}
	if err := store.Close(); err != nil {
		return nil, err
	}

	schemes := []pas.Scheme{pas.Independent, pas.Parallel, pas.Reusable, pas.Concurrent}
	var rows []RetrievalRow
	for _, prefix := range []int{4, 2, 1} {
		truth := map[string]map[string]*tensor.Matrix{}
		for _, s := range snaps {
			if truth[s.ID], err = sourceAt(s.Matrices, prefix); err != nil {
				return nil, err
			}
		}
		for _, scheme := range schemes {
			// Fresh store per scheme so every cold sweep really is cold
			// (Concurrent keeps a per-store cache).
			st, err := pas.Open(dir)
			if err != nil {
				return nil, err
			}
			cold, err := timeSweep(st, snaps, prefix, scheme, truth)
			if err != nil {
				return nil, fmt.Errorf("scheme %v prefix %d: %w", scheme, prefix, err)
			}
			warm, err := timeSweep(st, snaps, prefix, scheme, truth)
			if err != nil {
				return nil, fmt.Errorf("scheme %v prefix %d (warm): %w", scheme, prefix, err)
			}
			if err := st.Close(); err != nil {
				return nil, err
			}
			rows = append(rows, RetrievalRow{Scheme: scheme.String(), Prefix: prefix, Cold: cold, Warm: warm})
		}
	}
	return rows, nil
}

// timeSweep retrieves every snapshot once under the scheme, checking each
// result against the source truth, and returns the average per-snapshot wall
// clock.
func timeSweep(st *pas.Store, snaps []pas.SnapshotIn, prefix int, scheme pas.Scheme, truth map[string]map[string]*tensor.Matrix) (time.Duration, error) {
	start := time.Now()
	for _, s := range snaps {
		got, err := st.GetSnapshot(s.ID, prefix, scheme)
		if err != nil {
			return 0, err
		}
		if err := sameWeights(got, truth[s.ID]); err != nil {
			return 0, fmt.Errorf("snapshot %s: %w", s.ID, err)
		}
	}
	return time.Since(start) / time.Duration(len(snaps)), nil
}

// PrintRetrieval renders the scheme comparison.
func PrintRetrieval(w io.Writer, rows []RetrievalRow) {
	fprintf(w, "Retrieval schemes: avg per-snapshot recreation (verified against the source matrices)\n")
	fprintf(w, "%-12s %-7s %14s %14s\n", "SCHEME", "PREFIX", "COLD", "WARM")
	for _, r := range rows {
		fprintf(w, "%-12s %-7d %14s %14s\n", r.Scheme, r.Prefix,
			r.Cold.Round(time.Microsecond), r.Warm.Round(time.Microsecond))
	}
}
