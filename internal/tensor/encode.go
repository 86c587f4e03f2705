package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Bytes returns the raw little-endian float32 bytes of m (no header). The
// byte-segmentation code in floatenc operates on this representation.
func (m *Matrix) Bytes() []byte {
	buf := make([]byte, 4*len(m.data))
	for i, v := range m.data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

// FromBytes reconstructs a rows x cols matrix from raw little-endian float32
// bytes produced by Bytes.
func FromBytes(rows, cols int, raw []byte) (*Matrix, error) {
	if len(raw) != 4*rows*cols {
		return nil, fmt.Errorf("tensor: raw length %d != 4*%d*%d: %w", len(raw), rows, cols, ErrShape)
	}
	m := NewMatrix(rows, cols)
	for i := range m.data {
		m.data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return m, nil
}
