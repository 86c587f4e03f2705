package floatenc

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"math"
	"testing"

	"modelhub/internal/tensor"
)

// FuzzDeflateInflate compresses arbitrary bytes at every level zlib accepts:
// the output decodes to the input through Inflate and the standard library,
// and is never longer than the input's stored form.
func FuzzDeflateInflate(f *testing.F) {
	f.Add([]byte{}, uint8(8))
	f.Add([]byte{0x5a}, uint8(0))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3}, 100), uint8(3))
	f.Add([]byte("\x8f\x13\xd2\x07\xe1\x5c\x9b\x44\xa0\x3e\x71\xfd\x26\xc8\x58\xbb"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, level uint8) {
		lvl := zlib.HuffmanOnly + int(level)%(zlib.BestCompression-zlib.HuffmanOnly+1)
		z, err := Deflate(data, lvl)
		if err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		checkDeflated(t, z, data)
	})
}

// FuzzSegmentRoundTrip feeds arbitrary byte patterns (reinterpreted as
// float32 matrices) through the bytewise segmentation codec and checks its
// two contracts: Reconstruct is bit-exact, and every plane-prefix interval
// brackets the true value.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x3f, 0x80, 0x00, 0x00, 0xbf, 0x80, 0x00, 0x00}) // 1.0, -1.0
	f.Add([]byte{0x7f, 0x80, 0x00, 0x00})                         // +Inf
	f.Add([]byte{0x7f, 0xc0, 0x00, 0x01})                         // NaN
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x80, 0x00, 0x00, 0x01}) // subnormals
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 4
		if n == 0 {
			return
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.BigEndian.Uint32(data[4*i:]))
		}
		m, err := tensor.FromSlice(1, n, vals)
		if err != nil {
			t.Fatalf("FromSlice: %v", err)
		}
		s := Segment(m)
		got, err := s.Reconstruct()
		if err != nil {
			t.Fatalf("Reconstruct: %v", err)
		}
		for i, v := range vals {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("element %d: reconstructed bits %08x, want %08x",
					i, math.Float32bits(got.Data()[i]), math.Float32bits(v))
			}
		}
		for prefix := 1; prefix <= NumPlanes; prefix++ {
			lo, hi, err := s.Intervals(prefix)
			if err != nil {
				t.Fatalf("Intervals(%d): %v", prefix, err)
			}
			for i, v := range vals {
				if math.IsNaN(float64(v)) {
					// NaN compares false against everything; the interval
					// guarantee is stated for ordered values only.
					continue
				}
				l, h := lo.Data()[i], hi.Data()[i]
				if !(l <= v && v <= h) {
					t.Fatalf("prefix %d element %d: value %v outside interval [%v, %v]",
						prefix, i, v, l, h)
				}
			}
		}
		// With all four planes the truncation is lossless for every ordered
		// value (NaN patterns are widened to infinities by design).
		full, err := s.Truncated(NumPlanes)
		if err != nil {
			t.Fatalf("Truncated(%d): %v", NumPlanes, err)
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) {
				continue
			}
			if math.Float32bits(full.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("element %d: Truncated(4) bits %08x, want %08x",
					i, math.Float32bits(full.Data()[i]), math.Float32bits(v))
			}
		}
	})
}
