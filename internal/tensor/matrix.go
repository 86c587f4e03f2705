// Package tensor provides the dense float32 matrix and tensor types that
// underlie every other ModelHub component. Learned DNN parameters are viewed
// throughout the system as collections of float matrices (paper Sec. IV-A),
// so Matrix is the first-class data type of the parameter archival store.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major float32 matrix. The zero value is an empty
// 0x0 matrix ready to use.
type Matrix struct {
	rows, cols int
	data       []float32
}

// ErrShape is returned when matrix dimensions are incompatible with the
// requested operation.
var ErrShape = errors.New("tensor: shape mismatch")

// NewMatrix returns a zeroed rows x cols matrix. It panics if either
// dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a rows x cols matrix without copying. The slice
// length must equal rows*cols.
func FromSlice(rows, cols int, data []float32) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("tensor: data length %d != %d*%d: %w", len(data), rows, cols, ErrShape)
	}
	return &Matrix{rows: rows, cols: cols, data: data}, nil
}

// MustFromSlice is FromSlice but panics on shape mismatch. Intended for
// tests and literals.
func MustFromSlice(rows, cols int, data []float32) *Matrix {
	m, err := FromSlice(rows, cols, data)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Len returns the total number of elements.
func (m *Matrix) Len() int { return len(m.data) }

// Data returns the underlying row-major storage. Mutating it mutates the
// matrix.
func (m *Matrix) Data() []float32 { return m.data }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.data[i*m.cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float32 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool {
	return m.rows == o.rows && m.cols == o.cols
}

// Equal reports whether m and o have identical shape and bit-identical
// elements (NaNs compare equal to themselves bit-wise).
func (m *Matrix) Equal(o *Matrix) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.data {
		if math.Float32bits(v) != math.Float32bits(o.data[i]) {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether m and o have identical shape and all elements
// within tol of each other.
func (m *Matrix) ApproxEqual(o *Matrix, tol float32) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.data {
		d := v - o.data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, eliding large matrices.
func (m *Matrix) String() string {
	if len(m.data) <= 16 {
		return fmt.Sprintf("Matrix(%dx%d)%v", m.rows, m.cols, m.data)
	}
	return fmt.Sprintf("Matrix(%dx%d, %d elems)", m.rows, m.cols, len(m.data))
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float32) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// MatMulRef is the reference triple-loop product kept for cross-checking the
// blocked kernel. The inner loop is branch-free: skipping zero multiplicands
// pessimizes dense weights via branch misprediction, so any sparse shortcut
// belongs in the caller.
func (m *Matrix) MatMulRef(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("tensor: matmul %dx%d by %dx%d: %w", m.rows, m.cols, o.rows, o.cols, ErrShape)
	}
	out := NewMatrix(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			orow := o.data[k*o.cols : (k+1)*o.cols]
			dst := out.data[i*o.cols : (i+1)*o.cols]
			for j, b := range orow {
				dst[j] += a * b
			}
		}
	}
	return out, nil
}

// transposeTile is the square tile edge for blocked transposes: 32x32
// float32 tiles (4KB in + 4KB out) keep both the read rows and the written
// columns cache-resident.
const transposeTile = 32

// transposeBlocked writes the transpose of the rows×cols matrix src (row
// stride lds) into dst (row stride ldd, shape cols×rows), walking square
// tiles so both sides stay cache-friendly. Within a tile it moves four
// source rows at a time: each destination row takes a four-wide slice, so
// the inner loop has one bounds check per four stores and none per load
// (the four source rows are sliced to one length up front).
func transposeBlocked(rows, cols int, src []float32, lds int, dst []float32, ldd int) {
	for ib := 0; ib < rows; ib += transposeTile {
		iEnd := min(ib+transposeTile, rows)
		for jb := 0; jb < cols; jb += transposeTile {
			jEnd := min(jb+transposeTile, cols)
			i := ib
			for ; i+4 <= iEnd; i += 4 {
				r0 := src[i*lds+jb : i*lds+jEnd]
				r1 := src[(i+1)*lds+jb:][:len(r0)]
				r2 := src[(i+2)*lds+jb:][:len(r0)]
				r3 := src[(i+3)*lds+jb:][:len(r0)]
				o := jb*ldd + i
				for j, v := range r0 {
					d := dst[o : o+4 : o+4]
					d[0], d[1], d[2], d[3] = v, r1[j], r2[j], r3[j]
					o += ldd
				}
			}
			for ; i < iEnd; i++ {
				o := jb*ldd + i
				for _, v := range src[i*lds+jb : i*lds+jEnd] {
					dst[o] = v
					o += ldd
				}
			}
		}
	}
}
