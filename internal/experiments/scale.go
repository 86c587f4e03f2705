package experiments

import (
	"io"
	"time"

	"modelhub/internal/pas"
	"modelhub/internal/synth"
)

// ScaleRow measures one optimizer at one workload size — the paper's claim
// that the techniques "scale well on synthetic models".
type ScaleRow struct {
	Snapshots int
	Nodes     int
	Edges     int
	Algorithm string
	Wall      time.Duration
	// StorageOverMST is the plan's storage relative to the MST bound.
	StorageOverMST float64
	Feasible       bool
}

// RunScale sweeps the RD workload size at a fixed α and measures plan
// optimization wall time and quality.
func RunScale(seed int64, sizes []int, alpha float64) ([]ScaleRow, error) {
	if len(sizes) == 0 {
		sizes = []int{25, 50, 100, 200}
	}
	if alpha == 0 {
		alpha = 1.6
	}
	var rows []ScaleRow
	for _, size := range sizes {
		g := synth.GenerateRD(synth.RDConfig{Snapshots: size, MatricesPerSnapshot: 4, Seed: seed})
		mst, err := pas.MST(g)
		if err != nil {
			return nil, err
		}
		if _, err := pas.SetBudgetsAlphaSPT(g, pas.Independent, alpha); err != nil {
			return nil, err
		}
		for _, algo := range sweepAlgorithms {
			start := time.Now()
			plan, feasible, err := pas.Solve(g, algo, pas.Independent, alpha)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ScaleRow{
				Snapshots:      size,
				Nodes:          g.NumNodes,
				Edges:          len(g.Edges),
				Algorithm:      algo,
				Wall:           time.Since(start),
				StorageOverMST: plan.StorageCost() / mst.StorageCost(),
				Feasible:       feasible,
			})
		}
	}
	return rows, nil
}

// PrintScale renders the sweep.
func PrintScale(w io.Writer, rows []ScaleRow) {
	fprintf(w, "Scalability: plan optimization wall time and quality vs workload size (α=1.6)\n")
	fprintf(w, "%-10s %-8s %-8s %-8s %12s %10s %10s\n",
		"SNAPSHOTS", "NODES", "EDGES", "ALGO", "WALL", "x MST", "FEASIBLE")
	for _, r := range rows {
		fprintf(w, "%-10d %-8d %-8d %-8s %12s %10.2f %10v\n",
			r.Snapshots, r.Nodes, r.Edges, r.Algorithm,
			r.Wall.Round(time.Millisecond), r.StorageOverMST, r.Feasible)
	}
}
