// Package floatenc implements the float representation schemes and the
// bytewise segmentation that the Parameter Archival Store uses to trade
// storage for accuracy (paper Sec. IV-B).
//
// Schemes:
//   - Float32: lossless IEEE 754 single precision.
//   - Float16: IEEE 754 half precision (lossy).
//   - BFloat16: truncated single precision, the "tensorflow truncated
//     16 bits" the paper mentions (lossy).
//   - Fixed-point: one global exponent per matrix, k-bit signed mantissas.
//   - Quantization: k <= 8 bits per value with a coding table, either
//     uniform binning or random codebook sampling.
//
// Independently of the value scheme, a float32 matrix can be *segmented*
// bytewise into four one-byte planes (high-order first). High-order planes
// have low entropy and compress well; low-order planes can be kept remote or
// skipped entirely, in which case each value is only known to lie in an
// interval (see Segmented.Intervals and package perturb).
package floatenc

import (
	"errors"
	"fmt"

	"modelhub/internal/tensor"
)

// Kind identifies a float representation scheme.
type Kind uint8

const (
	// Float32 stores full IEEE 754 single-precision bits (lossless).
	Float32 Kind = iota
	// Float16 stores IEEE 754 half-precision values.
	Float16
	// BFloat16 stores the high 16 bits of the float32 pattern.
	BFloat16
	// Fixed stores k-bit signed fixed-point mantissas with a global
	// per-matrix exponent.
	Fixed
	// QuantUniform stores k-bit codes into a uniformly spaced code table.
	QuantUniform
	// QuantRandom stores k-bit codes into a randomly sampled code table.
	QuantRandom
)

// String returns the scheme name used in experiment reports.
func (k Kind) String() string {
	switch k {
	case Float32:
		return "float32"
	case Float16:
		return "float16"
	case BFloat16:
		return "bfloat16"
	case Fixed:
		return "fixed"
	case QuantUniform:
		return "quant-uniform"
	case QuantRandom:
		return "quant-random"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Scheme is a concrete encoding configuration. Bits is the per-value bit
// width for Fixed and the code width for the quantization kinds; it is
// ignored by the full- and half-precision kinds.
type Scheme struct {
	Kind Kind
	Bits int
}

// ErrScheme reports an invalid scheme configuration.
var ErrScheme = errors.New("floatenc: invalid scheme")

// Validate checks that the scheme configuration is usable.
func (s Scheme) Validate() error {
	switch s.Kind {
	case Float32, Float16, BFloat16:
		return nil
	case Fixed:
		if s.Bits < 2 || s.Bits > 32 {
			return fmt.Errorf("%w: fixed-point bits %d outside [2,32]", ErrScheme, s.Bits)
		}
		return nil
	case QuantUniform, QuantRandom:
		if s.Bits < 1 || s.Bits > 8 {
			return fmt.Errorf("%w: quantization bits %d outside [1,8]", ErrScheme, s.Bits)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrScheme, s.Kind)
	}
}

// String renders e.g. "fixed-8" or "float16".
func (s Scheme) String() string {
	switch s.Kind {
	case Fixed, QuantUniform, QuantRandom:
		return fmt.Sprintf("%s-%d", s.Kind, s.Bits)
	default:
		return s.Kind.String()
	}
}

// Encoded is a matrix encoded under some Scheme. Payload layout depends on
// the scheme; Table holds the quantization code table, Exp the fixed-point
// global exponent.
type Encoded struct {
	Scheme     Scheme
	Rows, Cols int
	Payload    []byte
	Table      []float32
	Exp        int32
}

// Encode encodes m under scheme s.
func Encode(s Scheme, m *tensor.Matrix) (*Encoded, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := &Encoded{Scheme: s, Rows: m.Rows(), Cols: m.Cols()}
	switch s.Kind {
	case Float32:
		e.Payload = m.Bytes()
	case Float16:
		e.Payload = encodeHalf(m.Data(), float32ToHalf)
	case BFloat16:
		e.Payload = encodeHalf(m.Data(), float32ToBFloat16)
	case Fixed:
		e.Payload, e.Exp = encodeFixed(m.Data(), s.Bits)
	case QuantUniform:
		e.Payload, e.Table = encodeQuantUniform(m.Data(), s.Bits)
	case QuantRandom:
		e.Payload, e.Table = encodeQuantRandom(m.Data(), s.Bits)
	}
	return e, nil
}

// Decode reconstructs the (possibly lossy) matrix from e.
func Decode(e *Encoded) (*tensor.Matrix, error) {
	if err := e.Scheme.Validate(); err != nil {
		return nil, err
	}
	n := e.Rows * e.Cols
	switch e.Scheme.Kind {
	case Float32:
		return tensor.FromBytes(e.Rows, e.Cols, e.Payload)
	case Float16:
		vals, err := decodeHalf(e.Payload, n, halfToFloat32)
		if err != nil {
			return nil, err
		}
		return tensor.FromSlice(e.Rows, e.Cols, vals)
	case BFloat16:
		vals, err := decodeHalf(e.Payload, n, bfloat16ToFloat32)
		if err != nil {
			return nil, err
		}
		return tensor.FromSlice(e.Rows, e.Cols, vals)
	case Fixed:
		vals, err := decodeFixed(e.Payload, n, e.Scheme.Bits, e.Exp)
		if err != nil {
			return nil, err
		}
		return tensor.FromSlice(e.Rows, e.Cols, vals)
	case QuantUniform, QuantRandom:
		vals, err := decodeQuant(e.Payload, n, e.Scheme.Bits, e.Table)
		if err != nil {
			return nil, err
		}
		return tensor.FromSlice(e.Rows, e.Cols, vals)
	default:
		return nil, ErrScheme
	}
}
