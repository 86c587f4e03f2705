package experiments

import (
	"fmt"
	"io"

	"modelhub/internal/dlv"
	"modelhub/internal/pas"
	"modelhub/internal/synth"
)

// RunFig6cSD runs the Fig 6(c) α sweep on a *real* SD repository: the
// automated modeler trains a fine-tuning lineage, every snapshot's deltas
// are measured (actual compressed byte counts), and the plan optimizers
// compete on that graph — the paper's primary Fig 6(c) setting (RD is the
// scaling companion).
func RunFig6cSD(dir string, cfg synth.SDConfig, alphas []float64) ([]Fig6cRow, Fig6cBounds, error) {
	var bounds Fig6cBounds
	if len(alphas) == 0 {
		alphas = []float64{1.2, 1.6, 2.0, 3.0}
	}
	repo, err := synth.GenerateSD(dir, cfg)
	if err != nil {
		return nil, bounds, err
	}
	versions, err := repo.List()
	if err != nil {
		return nil, bounds, err
	}
	// Collect all snapshots with the same candidate set dlv archive uses:
	// in-version chains plus cross-version lineage links.
	var snaps []pas.SnapshotIn
	var extra [][2]pas.MatrixRef
	latestOf := map[int64]string{}
	for _, v := range versions {
		for i, snap := range v.Snapshots {
			w, err := repo.Weights(v.ID, snap, 4)
			if err != nil {
				return nil, bounds, err
			}
			id := fmt.Sprintf("v%d/%s", v.ID, snap)
			snaps = append(snaps, pas.SnapshotIn{ID: id, Matrices: w})
			if i > 0 {
				prev := fmt.Sprintf("v%d/%s", v.ID, v.Snapshots[i-1])
				for name := range w {
					extra = append(extra, [2]pas.MatrixRef{
						{Snapshot: prev, Name: name}, {Snapshot: id, Name: name},
					})
				}
			}
			if snap == dlv.LatestSnap {
				latestOf[v.ID] = id
			}
		}
	}
	for _, v := range versions {
		if v.ParentID == 0 || len(v.Snapshots) == 0 {
			continue
		}
		parentLatest, ok := latestOf[v.ParentID]
		if !ok {
			continue
		}
		childFirst := fmt.Sprintf("v%d/%s", v.ID, v.Snapshots[0])
		w, err := repo.Weights(v.ID, v.Snapshots[0], 4)
		if err != nil {
			return nil, bounds, err
		}
		pw, err := repo.Weights(v.ParentID, dlv.LatestSnap, 4)
		if err != nil {
			return nil, bounds, err
		}
		for name := range w {
			if _, ok := pw[name]; ok {
				extra = append(extra, [2]pas.MatrixRef{
					{Snapshot: parentLatest, Name: name}, {Snapshot: childFirst, Name: name},
				})
			}
		}
	}

	g, err := pas.BuildGraph(snaps, pas.Options{ExtraPairs: extra, NoDefaultPairs: true})
	if err != nil {
		return nil, bounds, err
	}
	return sweepAlphas(g, alphas)
}

// PrintFig6cSD renders the SD variant.
func PrintFig6cSD(w io.Writer, rows []Fig6cRow, bounds Fig6cBounds) {
	fprintf(w, "Fig 6(c) on SD: real measured delta costs (bytes) from a trained fine-tuning lineage\n")
	fprintf(w, "bounds: MST %.0fB (best), SPT %.0fB (materialized), SPT avg recreation %.0fB\n",
		bounds.MSTStorage, bounds.SPTStorage, bounds.SPTRecreation)
	fprintf(w, "%-8s %-8s %14s %14s %10s\n", "ALPHA", "ALGO", "STORAGE(B)", "RECREATION", "FEASIBLE")
	for _, r := range rows {
		fprintf(w, "%-8.1f %-8s %14.0f %14.0f %10v\n", r.Alpha, r.Algorithm, r.Storage, r.Recreation, r.Feasible)
	}
}
