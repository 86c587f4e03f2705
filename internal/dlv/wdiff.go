package dlv

import (
	"fmt"
	"math"
	"sort"
)

// WeightDiff compares one layer's learned parameters across two versions
// (paper Sec. I: "differences among both the metadata about the model ...
// as well as the actual learned parameters, are of interest").
type WeightDiff struct {
	Layer string
	// RowsA x ColsA and RowsB x ColsB are the two shapes (they can differ
	// when an architecture change resized the layer).
	RowsA, ColsA, RowsB, ColsB int
	// MeanAbsDiff is the mean absolute elementwise difference over the
	// overlapping region.
	MeanAbsDiff float64
	// CosineSim is the cosine similarity of the overlapping region
	// (1 = identical direction, 0 = orthogonal).
	CosineSim float64
	// L2A, L2B are the Frobenius norms of the full matrices.
	L2A, L2B float64
	// OnlyIn is "a" or "b" when the layer exists in just one version.
	OnlyIn string
}

// DiffWeights compares the latest-snapshot parameters of two versions layer
// by layer (dlv diff -weights). Shape-mismatched layers are compared over
// their overlapping region.
func (r *Repo) DiffWeights(aID, bID int64, snap string) ([]WeightDiff, error) {
	if snap == "" {
		snap = LatestSnap
	}
	wa, err := r.Weights(aID, snap, 4)
	if err != nil {
		return nil, err
	}
	wb, err := r.Weights(bID, snap, 4)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for n := range wa {
		names[n] = true
	}
	for n := range wb {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var out []WeightDiff
	for _, name := range sorted {
		ma, okA := wa[name]
		mb, okB := wb[name]
		d := WeightDiff{Layer: name}
		switch {
		case okA && !okB:
			d.OnlyIn = "a"
			d.RowsA, d.ColsA = ma.Rows(), ma.Cols()
			d.L2A = ma.ComputeStats().L2
		case !okA && okB:
			d.OnlyIn = "b"
			d.RowsB, d.ColsB = mb.Rows(), mb.Cols()
			d.L2B = mb.ComputeStats().L2
		default:
			d.RowsA, d.ColsA = ma.Rows(), ma.Cols()
			d.RowsB, d.ColsB = mb.Rows(), mb.Cols()
			d.L2A = ma.ComputeStats().L2
			d.L2B = mb.ComputeStats().L2
			rows := min(ma.Rows(), mb.Rows())
			cols := min(ma.Cols(), mb.Cols())
			var sumAbs, dot, na, nb float64
			n := 0
			for i := 0; i < rows; i++ {
				ra, rb := ma.Row(i)[:cols], mb.Row(i)[:cols]
				for j := range ra {
					va, vb := float64(ra[j]), float64(rb[j])
					diff := va - vb
					if diff < 0 {
						diff = -diff
					}
					sumAbs += diff
					dot += va * vb
					na += va * va
					nb += vb * vb
					n++
				}
			}
			if n > 0 {
				d.MeanAbsDiff = sumAbs / float64(n)
			}
			if na > 0 && nb > 0 {
				d.CosineSim = dot / math.Sqrt(na*nb)
			}
		}
		out = append(out, d)
	}
	return out, nil
}

// FormatWeightDiffs renders the comparison as a table.
func FormatWeightDiffs(diffs []WeightDiff) string {
	out := fmt.Sprintf("%-12s %-14s %-14s %12s %10s\n", "LAYER", "SHAPE A", "SHAPE B", "MEAN|Δ|", "COS-SIM")
	for _, d := range diffs {
		shapeA, shapeB := "-", "-"
		if d.OnlyIn != "b" {
			shapeA = fmt.Sprintf("%dx%d", d.RowsA, d.ColsA)
		}
		if d.OnlyIn != "a" {
			shapeB = fmt.Sprintf("%dx%d", d.RowsB, d.ColsB)
		}
		if d.OnlyIn != "" {
			out += fmt.Sprintf("%-12s %-14s %-14s %12s %10s\n", d.Layer, shapeA, shapeB, "-", "only in "+d.OnlyIn)
			continue
		}
		out += fmt.Sprintf("%-12s %-14s %-14s %12.6f %10.4f\n", d.Layer, shapeA, shapeB, d.MeanAbsDiff, d.CosineSim)
	}
	return out
}
