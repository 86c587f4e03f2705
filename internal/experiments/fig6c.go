package experiments

import (
	"fmt"
	"io"

	"modelhub/internal/pas"
	"modelhub/internal/synth"
)

// Fig6cRow is one point of Fig 6(c): an algorithm's storage and average
// snapshot recreation cost at a recreation-budget scalar α.
type Fig6cRow struct {
	Algorithm  string
	Alpha      float64
	Storage    float64
	Recreation float64 // average snapshot recreation cost (independent scheme)
	Feasible   bool
}

// Fig6cBounds carries the MST / SPT reference costs of the storage graph.
type Fig6cBounds struct {
	MSTStorage float64
	SPTStorage float64
	// SPTRecreation is the per-snapshot average under the SPT (the best
	// possible recreation).
	SPTRecreation float64
}

// Fig6cConfig sizes the experiment.
type Fig6cConfig struct {
	Snapshots           int
	MatricesPerSnapshot int
	DeltaRatio          float64
	Alphas              []float64
	Seed                int64
}

func (c Fig6cConfig) withDefaults() Fig6cConfig {
	if c.Snapshots == 0 {
		c.Snapshots = 30
	}
	if c.MatricesPerSnapshot == 0 {
		c.MatricesPerSnapshot = 4
	}
	if c.DeltaRatio == 0 {
		c.DeltaRatio = 0.2
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []float64{1.2, 1.4, 1.6, 2.0, 2.5, 3.0, 4.0}
	}
	return c
}

// RunFig6c sweeps α over the RD storage graph for LAST, PAS-MT and PAS-PT.
func RunFig6c(cfg Fig6cConfig) ([]Fig6cRow, Fig6cBounds, error) {
	cfg = cfg.withDefaults()
	return sweepAlphas(synth.GenerateRD(synth.RDConfig{
		Snapshots:           cfg.Snapshots,
		MatricesPerSnapshot: cfg.MatricesPerSnapshot,
		DeltaRatio:          cfg.DeltaRatio,
		Seed:                cfg.Seed,
	}), cfg.Alphas)
}

// sweepAlgorithms are the optimizers Fig 6(c) and the scale sweep compare.
var sweepAlgorithms = []string{"last", "pas-mt", "pas-pt"}

// sweepAlphas reports g's MST and SPT bounds, then solves g with each of
// sweepAlgorithms at every α, under budgets α·Cr(SPT, s_i) and the
// independent scheme. Setting budgets is the only change a solve sees, so
// one graph serves every point.
func sweepAlphas(g *pas.Graph, alphas []float64) ([]Fig6cRow, Fig6cBounds, error) {
	var bounds Fig6cBounds
	mst, err := pas.MST(g)
	if err != nil {
		return nil, bounds, err
	}
	spt, err := pas.SPT(g)
	if err != nil {
		return nil, bounds, err
	}
	bounds.MSTStorage = mst.StorageCost()
	bounds.SPTStorage = spt.StorageCost()
	bounds.SPTRecreation = avgSnapshotCost(spt)

	var rows []Fig6cRow
	for _, alpha := range alphas {
		if _, err := pas.SetBudgetsAlphaSPT(g, pas.Independent, alpha); err != nil {
			return nil, bounds, err
		}
		for _, algo := range sweepAlgorithms {
			plan, feasible, err := pas.Solve(g, algo, pas.Independent, alpha)
			if err != nil {
				return nil, bounds, err
			}
			rows = append(rows, Fig6cRow{
				Algorithm:  algo,
				Alpha:      alpha,
				Storage:    plan.StorageCost(),
				Recreation: avgSnapshotCost(plan),
				Feasible:   feasible,
			})
		}
	}
	return rows, bounds, nil
}

func avgSnapshotCost(p *pas.Plan) float64 {
	g := p.Graph()
	if len(g.Snapshots) == 0 {
		return 0
	}
	total := 0.0
	for si := range g.Snapshots {
		total += p.SnapshotCost(si, pas.Independent)
	}
	return total / float64(len(g.Snapshots))
}

// PrintFig6c renders the α sweep with the MST/SPT bounds.
func PrintFig6c(w io.Writer, rows []Fig6cRow, bounds Fig6cBounds) {
	fprintf(w, "Fig 6(c): PAS archival algorithms vs LAST under group recreation budgets\n")
	fprintf(w, "bounds: MST storage %.0f (best possible), SPT storage %.0f (materialized), SPT avg recreation %.1f\n",
		bounds.MSTStorage, bounds.SPTStorage, bounds.SPTRecreation)
	fprintf(w, "%-8s %-8s %12s %12s %10s\n", "ALPHA", "ALGO", "STORAGE", "RECREATION", "FEASIBLE")
	for _, r := range rows {
		fprintf(w, "%-8s %-8s %12.0f %12.1f %10v\n",
			fmt.Sprintf("%.1f", r.Alpha), r.Algorithm, r.Storage, r.Recreation, r.Feasible)
	}
}
