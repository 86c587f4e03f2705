package experiments

import (
	"io"

	"modelhub/internal/delta"
	"modelhub/internal/tensor"
)

// Fig6bRow is one bar of Fig 6(b): a (scenario, delta scheme) pair's
// compressed footprint as a percentage of the raw float32 bytes.
type Fig6bRow struct {
	Scenario string
	Op       delta.Op
	Percent  float64 // compressed bytes / raw bytes * 100 (lower = better)
}

// Fig6b scenarios:
//   - "similar":   two independently trained models of the same architecture
//     (the paper's CNN-S/M/F family) — deltas should NOT win.
//   - "finetuned": a model and its fine-tuned descendant — deltas win.
//   - "snapshots": adjacent training checkpoints — deltas win the most.
func RunFig6b(seed int64) ([]Fig6bRow, error) {
	base, err := TrainFixture("lenet", 400, 3, seed)
	if err != nil {
		return nil, err
	}
	retrained, err := TrainFixture("lenet", 400, 3, seed+100)
	if err != nil {
		return nil, err
	}
	ft, err := FineTune(base, 10, seed+200)
	if err != nil {
		return nil, err
	}
	// Adjacent checkpoints: same deterministic fine-tuning run, three more
	// SGD steps — so ft and ckpt2 are checkpoints 3 iterations apart.
	ckpt2, err := FineTune(base, 13, seed+200)
	if err != nil {
		return nil, err
	}

	scenarios := []struct {
		name         string
		base, target map[string]*tensor.Matrix
	}{
		{"similar", base.Net.Snapshot(), retrained.Net.Snapshot()},
		{"finetuned", base.Net.Snapshot(), ft},
		{"snapshots", ft, ckpt2},
	}
	ops := []delta.Op{delta.None, delta.Sub, delta.IntSub, delta.XOR}
	var rows []Fig6bRow
	for _, sc := range scenarios {
		for _, op := range ops {
			var raw, comp int
			for name, target := range sc.target {
				baseM := sc.base[name]
				fp, err := delta.MeasureDelta(op, baseM, target, false)
				if err != nil {
					return nil, err
				}
				raw += fp.RawBytes
				comp += fp.CompressedBytes
			}
			rows = append(rows, Fig6bRow{
				Scenario: sc.name,
				Op:       op,
				Percent:  100 * float64(comp) / float64(raw),
			})
		}
	}
	return rows, nil
}

// PrintFig6b renders the grouped bars.
func PrintFig6b(w io.Writer, rows []Fig6bRow) {
	fprintf(w, "Fig 6(b): compression performance for delta schemes (%% of raw; lower is better)\n")
	fprintf(w, "%-12s %-14s %9s\n", "SCENARIO", "SCHEME", "SIZE")
	for _, r := range rows {
		fprintf(w, "%-12s %-14s %9.2f%%\n", r.Scenario, r.Op, r.Percent)
	}
}
