package floatenc

import (
	"math"

	"modelhub/internal/tensor"
)

// Normalization (paper Table IV): add a sufficiently large constant to all
// floats so that signs and radix points align — every shifted value then
// shares the sign bit and exponent, making the high bytes nearly constant
// and aligning mantissas for delta encoding. The shift itself is lossy
// (low-order mantissa bits of small values fall off), which is exactly the
// trade-off the paper measures.

// NormalizeOffset returns the offset used to normalize values whose largest
// magnitude is absMax: C = 1.5 * 2^k with 2^(k-1) >= absMax, so every
// shifted value lands in the single binade [2^k, 2^(k+1)).
func NormalizeOffset(absMax float32) float32 {
	if absMax <= 0 || math.IsInf(float64(absMax), 0) || math.IsNaN(float64(absMax)) {
		return 3 // 1.5 * 2^1, a harmless default binade
	}
	k := math.Ceil(math.Log2(float64(absMax))) + 1
	return float32(3 * math.Pow(2, k-1))
}

// Normalize returns a copy of m with NormalizeOffset(AbsMax) added to every
// element, plus the offset used. NaNs are mapped to the bare offset.
func Normalize(m *tensor.Matrix) (*tensor.Matrix, float32) {
	off := NormalizeOffset(m.AbsMax())
	out := tensor.NewMatrix(m.Rows(), m.Cols())
	src, dst := m.Data(), out.Data()
	for i, v := range src {
		if math.IsNaN(float64(v)) {
			dst[i] = off
			continue
		}
		dst[i] = v + off
	}
	return out, off
}
