package perturb

import (
	"fmt"

	"modelhub/internal/floatenc"
	"modelhub/internal/tensor"
)

// SourceFunc adapts a plain function to IntervalSource; used to wire a
// pas.Store snapshot in without a package dependency cycle.
type SourceFunc func(layer string, prefix int) (lo, hi *tensor.Matrix, err error)

// WeightIntervals implements IntervalSource.
func (f SourceFunc) WeightIntervals(layer string, prefix int) (*tensor.Matrix, *tensor.Matrix, error) {
	return f(layer, prefix)
}

// SegmentedSource serves weight intervals from in-memory segmented matrices
// (the non-archived case: a snapshot already split into byte planes).
type SegmentedSource map[string]*floatenc.Segmented

// NewSegmentedSource segments a full-precision snapshot.
func NewSegmentedSource(weights map[string]*tensor.Matrix) SegmentedSource {
	out := make(SegmentedSource, len(weights))
	for name, m := range weights {
		out[name] = floatenc.Segment(m)
	}
	return out
}

// WeightIntervals implements IntervalSource.
func (s SegmentedSource) WeightIntervals(layer string, prefix int) (*tensor.Matrix, *tensor.Matrix, error) {
	seg, ok := s[layer]
	if !ok {
		return nil, nil, fmt.Errorf("perturb: no segmented weights for layer %q", layer)
	}
	return seg.Intervals(prefix)
}
