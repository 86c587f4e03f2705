// Package delta implements the delta (difference) encodings PAS uses to
// archive related parameter matrices (paper Sec. IV-B): checkpoint snapshots
// of one model, and fine-tuned descendants across model versions, have
// similar parameters, so storing one matrix plus a compressible difference
// beats storing both outright.
//
// Three operators are provided:
//
//   - XOR: bitwise exclusive-or of bit patterns. Exactly invertible, and
//     the only operator that composes per byte plane, so it is PAS's one
//     delta operator (partial-precision retrieval and plane-granular plans
//     rely on it).
//   - Sub: IEEE float arithmetic subtraction, the paper's "arithmetic
//     subtraction". Applying it back (base + d) can be off by one ULP for
//     adversarial operands, so it is unfit for lossless archival.
//   - IntSub: two's-complement subtraction of the raw float32 bit patterns.
//     Because nearby floats have nearby bit patterns, deltas of similar
//     matrices are small integers with long runs of 0x00/0xff high bytes,
//     which zlib removes. Exactly invertible.
//
// Sub and IntSub serve only the operator comparisons of Fig 6(b) and
// Table IV.
//
// Matrices with different shapes are handled by first resizing the base to
// the target shape (crop and/or zero-pad), per the paper's footnote 3.
package delta

import (
	"errors"
	"fmt"
	"math"

	"modelhub/internal/tensor"
)

// Op identifies a delta operator.
type Op uint8

const (
	// None means the matrix is materialized directly (delta vs the empty
	// matrix ν0).
	None Op = iota
	// Sub is IEEE float arithmetic subtraction.
	Sub
	// IntSub is two's-complement subtraction of float bit patterns.
	IntSub
	// XOR is bitwise exclusive-or of float bit patterns.
	XOR
)

// String names the operator as reported in experiments.
func (o Op) String() string {
	switch o {
	case None:
		return "materialize"
	case Sub:
		return "delta-sub"
	case IntSub:
		return "delta-intsub"
	case XOR:
		return "delta-xor"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// ErrOp reports an unknown delta operator.
var ErrOp = errors.New("delta: unknown operator")

// Exact reports whether applying the operator inverts Compute bit-exactly.
func (o Op) Exact() bool { return o != Sub }

// Delta is the stored difference that recreates a target matrix from a base
// matrix. Rows/Cols record the target shape (the base may differ).
type Delta struct {
	Op         Op
	Rows, Cols int
	Body       *tensor.Matrix
}

// Compute returns the delta that recreates target from base under op.
// With op == None the base is ignored and the delta materializes the target.
func Compute(op Op, base, target *tensor.Matrix) (*Delta, error) {
	d := &Delta{Op: op, Rows: target.Rows(), Cols: target.Cols()}
	switch op {
	case None:
		d.Body = target.Clone()
		return d, nil
	case Sub, IntSub, XOR:
		rb := ResizeTo(base, target.Rows(), target.Cols())
		body := tensor.NewMatrix(target.Rows(), target.Cols())
		bd, td, dd := rb.Data(), target.Data(), body.Data()
		switch op {
		case Sub:
			for i := range dd {
				dd[i] = td[i] - bd[i]
			}
		case IntSub:
			for i := range dd {
				dd[i] = math.Float32frombits(math.Float32bits(td[i]) - math.Float32bits(bd[i]))
			}
		case XOR:
			for i := range dd {
				dd[i] = math.Float32frombits(math.Float32bits(td[i]) ^ math.Float32bits(bd[i]))
			}
		}
		d.Body = body
		return d, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrOp, op)
	}
}

// Apply recreates the target matrix from base.
func (d *Delta) Apply(base *tensor.Matrix) (*tensor.Matrix, error) {
	if d.Body == nil || d.Body.Rows() != d.Rows || d.Body.Cols() != d.Cols {
		return nil, fmt.Errorf("delta: body shape %v does not match declared %dx%d", d.Body, d.Rows, d.Cols)
	}
	switch d.Op {
	case None:
		return d.Body.Clone(), nil
	case Sub, IntSub, XOR:
		rb := ResizeTo(base, d.Rows, d.Cols)
		out := tensor.NewMatrix(d.Rows, d.Cols)
		bd, dd, od := rb.Data(), d.Body.Data(), out.Data()
		switch d.Op {
		case Sub:
			for i := range od {
				od[i] = bd[i] + dd[i]
			}
		case IntSub:
			for i := range od {
				od[i] = math.Float32frombits(math.Float32bits(bd[i]) + math.Float32bits(dd[i]))
			}
		case XOR:
			for i := range od {
				od[i] = math.Float32frombits(math.Float32bits(bd[i]) ^ math.Float32bits(dd[i]))
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrOp, d.Op)
	}
}

// ResizeTo returns m cropped and/or zero-padded to rows x cols. It copies;
// the result never aliases m.
func ResizeTo(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil {
		return tensor.NewMatrix(rows, cols)
	}
	if m.Rows() == rows && m.Cols() == cols {
		return m.Clone()
	}
	out := tensor.NewMatrix(rows, cols)
	cr := min(rows, m.Rows())
	cc := min(cols, m.Cols())
	for i := 0; i < cr; i++ {
		copy(out.Row(i)[:cc], m.Row(i)[:cc])
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
