package experiments

import (
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"time"

	"modelhub/internal/floatenc"
	"modelhub/internal/pas"
	"modelhub/internal/synth"
	"modelhub/internal/tensor"
)

// AblationBudgetRow compares the paper's group (co-usage) constraints with
// the naive alternative of subdividing a snapshot's budget equally among
// its matrices (Sec. IV-C's argument for the new problem formulation).
type AblationBudgetRow struct {
	Alpha        float64
	GroupStorage float64 // PAS-MT with per-snapshot budgets
	SplitStorage float64 // PAS-MT with per-matrix singleton budgets
	MSTStorage   float64
}

// RunAblationBudgetSplit sweeps α and reports both formulations' storage.
func RunAblationBudgetSplit(seed int64, alphas []float64) ([]AblationBudgetRow, error) {
	if len(alphas) == 0 {
		alphas = []float64{1.2, 1.6, 2.0, 3.0}
	}
	var rows []AblationBudgetRow
	for _, alpha := range alphas {
		group := synth.GenerateRD(synth.RDConfig{Snapshots: 25, MatricesPerSnapshot: 4, Seed: seed})
		if _, err := pas.SetBudgetsAlphaSPT(group, pas.Independent, alpha); err != nil {
			return nil, err
		}
		gPlan, _, err := pas.PASMT(group, pas.Independent)
		if err != nil {
			return nil, err
		}
		mst, err := pas.MST(group)
		if err != nil {
			return nil, err
		}

		// Split formulation: each matrix becomes its own singleton group
		// with an equal share of the snapshot budget.
		split := synth.GenerateRD(synth.RDConfig{Snapshots: 25, MatricesPerSnapshot: 4, Seed: seed})
		spt, err := pas.SPT(split)
		if err != nil {
			return nil, err
		}
		sptCosts := spt.NodeRecreationCosts()
		groups := split.Snapshots
		split.Snapshots = nil
		for _, s := range groups {
			// Budget share proportional to each matrix's own SPT cost (the
			// fairest static split).
			var total float64
			for _, v := range s.Nodes {
				total += sptCosts[v]
			}
			for _, v := range s.Nodes {
				share := alpha * total * (sptCosts[v] / total)
				split.AddSnapshot(s.Name+"-split", []pas.NodeID{v}, share)
			}
		}
		sPlan, _, err := pas.PASMT(split, pas.Independent)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationBudgetRow{
			Alpha:        alpha,
			GroupStorage: gPlan.StorageCost(),
			SplitStorage: sPlan.StorageCost(),
			MSTStorage:   mst.StorageCost(),
		})
	}
	return rows, nil
}

// PrintAblationBudget renders the comparison.
func PrintAblationBudget(w io.Writer, rows []AblationBudgetRow) {
	fprintf(w, "Ablation: group (co-usage) budgets vs per-matrix subdivided budgets\n")
	fprintf(w, "%-8s %14s %14s %14s\n", "ALPHA", "GROUP", "SUBDIVIDED", "MST BOUND")
	for _, r := range rows {
		fprintf(w, "%-8.1f %14.0f %14.0f %14.0f\n", r.Alpha, r.GroupStorage, r.SplitStorage, r.MSTStorage)
	}
}

// AblationZlibRow measures byte-plane compression at different zlib levels.
type AblationZlibRow struct {
	Level      int
	Bytes      int
	Wall       time.Duration
	RatioOfRaw float64
}

// RunAblationZlibLevel compresses a realistic weight matrix's byte planes
// at zlib levels 1, 6 and 9.
func RunAblationZlibLevel(seed int64) ([]AblationZlibRow, error) {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.RandNormal(rng, 256, 256, 0.05)
	seg := floatenc.Segment(m)
	raw := 4 * m.Len()
	var rows []AblationZlibRow
	for _, level := range []int{1, 6, 9} {
		start := time.Now()
		total := 0
		for p := 0; p < floatenc.NumPlanes; p++ {
			z, err := floatenc.Deflate(seg.Planes[p], level)
			if err != nil {
				return nil, err
			}
			total += len(z)
		}
		rows = append(rows, AblationZlibRow{
			Level: level, Bytes: total, Wall: time.Since(start),
			RatioOfRaw: float64(total) / float64(raw),
		})
	}
	return rows, nil
}

// PrintAblationZlib renders the zlib-level sweep.
func PrintAblationZlib(w io.Writer, rows []AblationZlibRow) {
	fprintf(w, "Ablation: zlib level on byte-plane compression (256x256 gaussian weights)\n")
	fprintf(w, "%-8s %12s %10s %12s\n", "LEVEL", "BYTES", "RATIO", "WALL")
	for _, r := range rows {
		fprintf(w, "%-8d %12d %9.1f%% %12s\n", r.Level, r.Bytes, 100*r.RatioOfRaw, r.Wall.Round(time.Microsecond))
	}
}

// AblationGranularityRow compares matrix-granular and plane-granular plans
// on real measured costs (paper Sec. IV-C's segment-level generalization).
type AblationGranularityRow struct {
	Alpha            float64
	MatrixStorage    float64
	PlaneStorage     float64
	MatrixChunkBytes int64
	PlaneChunkBytes  int64
}

// RunAblationGranularity archives the same drifting snapshots both ways.
func RunAblationGranularity(dir string, seed int64, alphas []float64) ([]AblationGranularityRow, error) {
	if len(alphas) == 0 {
		alphas = []float64{1.2, 1.6, 2.5}
	}
	rng := rand.New(rand.NewSource(seed))
	base := map[string]*tensor.Matrix{
		"conv1": tensor.RandNormal(rng, 16, 40, 0.1),
		"ip1":   tensor.RandNormal(rng, 48, 200, 0.1),
	}
	var snaps []pas.SnapshotIn
	cur := base
	for i := 0; i < 6; i++ {
		snap := pas.SnapshotIn{ID: string(rune('a' + i)), Matrices: map[string]*tensor.Matrix{}}
		// Sorted names: map order would draw the perturbations, and so build
		// the snapshots and every plan, differently on every run.
		for _, name := range slices.Sorted(maps.Keys(cur)) {
			snap.Matrices[name] = cur[name].Perturb(rng, 1e-3)
		}
		snaps = append(snaps, snap)
		cur = snap.Matrices
	}
	var rows []AblationGranularityRow
	for i, alpha := range alphas {
		mDir := fmt.Sprintf("%s/m%d", dir, i)
		pDir := fmt.Sprintf("%s/p%d", dir, i)
		whole, err := pas.Create(mDir, snaps, pas.Options{Algorithm: "pas-mt", Alpha: alpha})
		if err != nil {
			return nil, err
		}
		granular, err := pas.Create(pDir, snaps, pas.Options{
			Algorithm: "pas-mt", Alpha: alpha, PlaneGranularity: true,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationGranularityRow{
			Alpha:            alpha,
			MatrixStorage:    whole.Info().StorageCost,
			PlaneStorage:     granular.Info().StorageCost,
			MatrixChunkBytes: whole.TotalChunkBytes(4),
			PlaneChunkBytes:  granular.TotalChunkBytes(4),
		})
	}
	return rows, nil
}

// PrintAblationGranularity renders the comparison.
func PrintAblationGranularity(w io.Writer, rows []AblationGranularityRow) {
	fprintf(w, "Ablation: matrix-granular vs plane-granular storage plans (checkpoint chain, real bytes)\n")
	fprintf(w, "%-8s %16s %16s %16s %16s\n", "ALPHA", "MATRIX PLAN", "PLANE PLAN", "MATRIX BYTES", "PLANE BYTES")
	for _, r := range rows {
		fprintf(w, "%-8.1f %16.0f %16.0f %16d %16d\n",
			r.Alpha, r.MatrixStorage, r.PlaneStorage, r.MatrixChunkBytes, r.PlaneChunkBytes)
	}
}
