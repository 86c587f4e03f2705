package delta

import (
	"modelhub/internal/floatenc"
	"modelhub/internal/tensor"
)

// Footprint measures how well an encoding choice archives a matrix; it is
// the metric behind Fig 6(b) and Table IV.
type Footprint struct {
	RawBytes        int
	CompressedBytes int
}

// MeasureMatrix returns the zlib level-6 footprint of the raw float bytes.
func MeasureMatrix(m *tensor.Matrix) (Footprint, error) {
	raw := m.Bytes()
	c, err := floatenc.CompressedSize(raw)
	if err != nil {
		return Footprint{}, err
	}
	return Footprint{RawBytes: len(raw), CompressedBytes: c}, nil
}

// MeasureMatrixBytewise returns the footprint when the matrix is segmented
// into byte planes and each plane is compressed independently (the paper's
// "bytewise" rows in Table IV).
func MeasureMatrixBytewise(m *tensor.Matrix) (Footprint, error) {
	s := floatenc.Segment(m)
	total := 0
	raw := 0
	for p := 0; p < floatenc.NumPlanes; p++ {
		c, err := floatenc.CompressedSize(s.Planes[p])
		if err != nil {
			return Footprint{}, err
		}
		total += c
		raw += len(s.Planes[p])
	}
	return Footprint{RawBytes: raw, CompressedBytes: total}, nil
}

// MeasureDelta computes the delta of target against base under op and
// returns its compressed footprint. bytewise selects per-plane compression.
func MeasureDelta(op Op, base, target *tensor.Matrix, bytewise bool) (Footprint, error) {
	d, err := Compute(op, base, target)
	if err != nil {
		return Footprint{}, err
	}
	if bytewise {
		return MeasureMatrixBytewise(d.Body)
	}
	return MeasureMatrix(d.Body)
}
