package experiments

import (
	"fmt"
	"io"
	"time"

	"modelhub/internal/dlv"
	"modelhub/internal/pas"
	"modelhub/internal/synth"
	"modelhub/internal/tensor"
)

// Tab5Row is one row of Table V: average wall-clock time to recreate a
// snapshot under a storage plan, a query resolution (full / 2-byte /
// 1-byte), and a retrieval scheme.
type Tab5Row struct {
	Plan        string // "materialization" (SPT), "min-storage" (MST), "pas"
	Query       string // "full", "2 bytes", "1 byte"
	Independent time.Duration
	Parallel    time.Duration
	Reusable    time.Duration
	Concurrent  time.Duration
}

// Tab5Config sizes the experiment.
type Tab5Config struct {
	Versions            int
	SnapshotsPerVersion int
	Alpha               float64
	Seed                int64
}

func (c Tab5Config) withDefaults() Tab5Config {
	if c.Versions == 0 {
		c.Versions = 4
	}
	if c.SnapshotsPerVersion == 0 {
		c.SnapshotsPerVersion = 3
	}
	if c.Alpha == 0 {
		c.Alpha = 1.6
	}
	return c
}

// RunTable5 builds an SD repository, archives it under the three plans the
// paper compares, and measures snapshot recreation times. Every retrieval is
// verified against the raw weights the repository held before archiving.
func RunTable5(dir string, cfg Tab5Config) ([]Tab5Row, error) {
	cfg = cfg.withDefaults()
	repo, err := synth.GenerateSD(dir, synth.SDConfig{
		Versions:            cfg.Versions,
		SnapshotsPerVersion: cfg.SnapshotsPerVersion,
		ItersPerSnapshot:    6,
		TrainExamples:       240,
		Seed:                cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	versions, err := repo.List()
	if err != nil {
		return nil, err
	}

	// Raw weights in archive order (version, then snapshot), read while the
	// versions are still unarchived.
	var source []map[string]*tensor.Matrix
	for _, v := range versions {
		for _, snap := range v.Snapshots {
			w, err := repo.Weights(v.ID, snap, 4)
			if err != nil {
				return nil, err
			}
			source = append(source, w)
		}
	}

	plans := []struct {
		label string
		algo  string
		alpha float64
	}{
		{"materialization", "spt", 0},
		{"min-storage", "mst", 0},
		{fmt.Sprintf("pas (a=%.1f)", cfg.Alpha), "pas-mt", cfg.Alpha},
	}
	queries := []struct {
		label  string
		prefix int
	}{
		{"full", 4},
		{"2 bytes", 2},
		{"1 byte", 1},
	}

	var rows []Tab5Row
	for _, p := range plans {
		// Re-plan in place: from the first archive on, the archive is the
		// only copy of the weights, and it holds only this plan's chunks.
		store, err := repo.Archive(dlv.ArchiveOptions{
			Algorithm: p.algo, Scheme: pas.Independent, Alpha: p.alpha,
		})
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			truth := make([]map[string]*tensor.Matrix, len(source))
			for i, w := range source {
				if truth[i], err = sourceAt(w, q.prefix); err != nil {
					return nil, err
				}
			}
			row := Tab5Row{Plan: p.label, Query: q.label}
			for _, col := range []struct {
				scheme pas.Scheme
				avg    *time.Duration
			}{
				{pas.Independent, &row.Independent},
				{pas.Parallel, &row.Parallel},
				{pas.Reusable, &row.Reusable},
				{pas.Concurrent, &row.Concurrent},
			} {
				if *col.avg, err = timeRetrieval(store, truth, q.prefix, col.scheme); err != nil {
					return nil, fmt.Errorf("%s, %s, %v: %w", p.label, q.label, col.scheme, err)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// timeRetrieval measures the average time to retrieve every snapshot in the
// archive; truth holds the expected result per snapshot, in archive order,
// and is compared outside the timed section.
func timeRetrieval(store *pas.Store, truth []map[string]*tensor.Matrix, prefix int, scheme pas.Scheme) (time.Duration, error) {
	snaps := store.Snapshots()
	if len(snaps) != len(truth) {
		return 0, fmt.Errorf("archive holds %d snapshots, source has %d", len(snaps), len(truth))
	}
	var total time.Duration
	for i, snap := range snaps {
		start := time.Now()
		got, err := store.GetSnapshot(snap, prefix, scheme)
		total += time.Since(start)
		if err != nil {
			return 0, err
		}
		if err := sameWeights(got, truth[i]); err != nil {
			return 0, fmt.Errorf("snapshot %s: %w", snap, err)
		}
	}
	return total / time.Duration(len(snaps)), nil
}

// PrintTable5 renders the recreation-performance comparison.
func PrintTable5(w io.Writer, rows []Tab5Row) {
	fprintf(w, "Table V: recreation performance comparison of storage plans (avg per snapshot)\n")
	fprintf(w, "%-18s %-10s %14s %14s %14s %14s\n",
		"STORAGE PLAN", "QUERY", "INDEPENDENT", "PARALLEL", "REUSABLE", "CONCURRENT")
	for _, r := range rows {
		fprintf(w, "%-18s %-10s %14s %14s %14s %14s\n", r.Plan, r.Query,
			r.Independent.Round(time.Microsecond), r.Parallel.Round(time.Microsecond),
			r.Reusable.Round(time.Microsecond), r.Concurrent.Round(time.Microsecond))
	}
}
