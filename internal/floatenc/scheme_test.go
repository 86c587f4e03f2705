package floatenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelhub/internal/tensor"
)

func randMat(seed int64, rows, cols int) *tensor.Matrix {
	return tensor.RandNormal(rand.New(rand.NewSource(seed)), rows, cols, 0.1)
}

func TestSchemeValidate(t *testing.T) {
	valid := []Scheme{
		{Kind: Float32}, {Kind: Float16}, {Kind: BFloat16},
		{Kind: Fixed, Bits: 8}, {Kind: Fixed, Bits: 2}, {Kind: Fixed, Bits: 32},
		{Kind: QuantUniform, Bits: 1}, {Kind: QuantUniform, Bits: 8},
		{Kind: QuantRandom, Bits: 4},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("scheme %v should be valid: %v", s, err)
		}
	}
	invalid := []Scheme{
		{Kind: Fixed, Bits: 1}, {Kind: Fixed, Bits: 33},
		{Kind: QuantUniform, Bits: 0}, {Kind: QuantUniform, Bits: 9},
		{Kind: Kind(99)},
	}
	for _, s := range invalid {
		if err := s.Validate(); !errors.Is(err, ErrScheme) {
			t.Errorf("scheme %v should be invalid, got %v", s, err)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if got := (Scheme{Kind: Fixed, Bits: 8}).String(); got != "fixed-8" {
		t.Fatalf("String = %q", got)
	}
	if got := (Scheme{Kind: Float16}).String(); got != "float16" {
		t.Fatalf("String = %q", got)
	}
	if got := (Scheme{Kind: QuantRandom, Bits: 4}).String(); got != "quant-random-4" {
		t.Fatalf("String = %q", got)
	}
}

func TestFloat32Lossless(t *testing.T) {
	m := randMat(1, 13, 7)
	e, err := Encode(Scheme{Kind: Float32}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("float32 scheme must be lossless")
	}
}

func TestHalfSchemesBoundedError(t *testing.T) {
	m := randMat(2, 10, 10)
	for _, s := range []Scheme{{Kind: Float16}, {Kind: BFloat16}} {
		e, err := Encode(s, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		maxRel := 0.0
		for i, v := range m.Data() {
			if v == 0 {
				continue
			}
			rel := math.Abs(float64(got.Data()[i]-v)) / math.Abs(float64(v))
			if rel > maxRel {
				maxRel = rel
			}
		}
		limit := 1.0 / 1024
		if s.Kind == BFloat16 {
			limit = 1.0 / 128
		}
		if maxRel > limit {
			t.Errorf("%v: max relative error %v > %v", s, maxRel, limit)
		}
	}
}

func TestFixedPointQuantizationError(t *testing.T) {
	m := randMat(3, 20, 20)
	absMax := float64(m.AbsMax())
	for _, bits := range []int{8, 12, 16} {
		s := Scheme{Kind: Fixed, Bits: bits}
		e, err := Encode(s, m)
		if err != nil {
			t.Fatal(err)
		}
		if e.Exp == 0 && absMax < 0.5 {
			t.Errorf("fixed-%d: exponent not adapted to data", bits)
		}
		got, err := Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		// Quantization step is 2^exp; error bounded by half a step.
		step := math.Pow(2, float64(e.Exp))
		for i, v := range m.Data() {
			if d := math.Abs(float64(got.Data()[i] - v)); d > step/2+1e-12 {
				t.Fatalf("fixed-%d: elem %d error %v > step/2 %v", bits, i, d, step/2)
			}
		}
	}
}

func TestFixedPointDistinctValues(t *testing.T) {
	m := randMat(4, 30, 30)
	e, err := Encode(Scheme{Kind: Fixed, Bits: 4}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float32]bool{}
	for _, v := range got.Data() {
		distinct[v] = true
	}
	if len(distinct) > 16 {
		t.Fatalf("fixed-4 produced %d distinct values, max 16", len(distinct))
	}
}

func TestQuantSchemes(t *testing.T) {
	m := randMat(5, 25, 25)
	for _, s := range []Scheme{{Kind: QuantUniform, Bits: 4}, {Kind: QuantRandom, Bits: 4}, {Kind: QuantUniform, Bits: 8}} {
		e, err := Encode(s, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Table) != 1<<uint(s.Bits) {
			t.Fatalf("%v: table size %d", s, len(e.Table))
		}
		got, err := Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		// Every decoded value must be a table entry.
		inTable := map[float32]bool{}
		for _, v := range e.Table {
			inTable[v] = true
		}
		for i, v := range got.Data() {
			if !inTable[v] {
				t.Fatalf("%v: decoded elem %d (%v) not in code table", s, i, v)
			}
		}
		stats := m.ComputeStats()
		span := float64(stats.Max - stats.Min)
		for i, v := range m.Data() {
			if d := math.Abs(float64(got.Data()[i] - v)); d > span {
				t.Fatalf("%v: elem %d error %v exceeds full span %v", s, i, d, span)
			}
		}
	}
}

func TestQuantUniformErrorBound(t *testing.T) {
	m := randMat(6, 40, 40)
	e, err := Encode(Scheme{Kind: QuantUniform, Bits: 8}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	stats := m.ComputeStats()
	halfBin := (float64(stats.Max) - float64(stats.Min)) / 256 / 2
	for i, v := range m.Data() {
		if d := math.Abs(float64(got.Data()[i] - v)); d > halfBin+1e-9 {
			t.Fatalf("elem %d error %v > half bin %v", i, d, halfBin)
		}
	}
}

func TestQuantConstantMatrix(t *testing.T) {
	m := tensor.MustFromSlice(2, 2, []float32{3, 3, 3, 3})
	for _, s := range []Scheme{{Kind: QuantUniform, Bits: 2}, {Kind: QuantRandom, Bits: 2}} {
		e, err := Encode(s, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(m) {
			t.Fatalf("%v: constant matrix should survive quantization, got %v", s, got)
		}
	}
}

func TestEncodeRejectsInvalidScheme(t *testing.T) {
	if _, err := Encode(Scheme{Kind: Fixed, Bits: 0}, randMat(7, 2, 2)); !errors.Is(err, ErrScheme) {
		t.Fatal("want ErrScheme")
	}
}

func TestEncodedMarshalRoundTrip(t *testing.T) {
	m := randMat(8, 9, 9)
	for _, s := range []Scheme{
		{Kind: Float32}, {Kind: Float16}, {Kind: BFloat16},
		{Kind: Fixed, Bits: 10}, {Kind: QuantUniform, Bits: 5}, {Kind: QuantRandom, Bits: 3},
	} {
		e, err := Encode(s, m)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		e2, err := unmarshalEncoded(blob)
		if err != nil {
			t.Fatalf("%v: unmarshal: %v", s, err)
		}
		d1, err := Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Decode(e2)
		if err != nil {
			t.Fatal(err)
		}
		if !d1.Equal(d2) {
			t.Fatalf("%v: decode after marshal differs", s)
		}
	}
}

func TestBitPackRoundTripProperty(t *testing.T) {
	f := func(seed int64, width8 uint8) bool {
		width := int(width8%16) + 1
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(64)
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = rng.Uint32() & (1<<uint(width) - 1)
		}
		w := &bitWriter{}
		for _, c := range codes {
			w.writeBits(c, width)
		}
		r := &bitReader{buf: w.buf}
		for i, c := range codes {
			got, err := r.readBits(width)
			if err != nil || got != c {
				_ = i
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := &bitReader{buf: []byte{0xff}}
	if _, err := r.readBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.readBits(1); err == nil {
		t.Fatal("want exhaustion error")
	}
}

func TestFixedHandlesNaNInf(t *testing.T) {
	m := tensor.MustFromSlice(1, 4, []float32{1, float32(math.NaN()), float32(math.Inf(1)), -2})
	e, err := Encode(Scheme{Kind: Fixed, Bits: 8}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("fixed decode produced non-finite %v", v)
		}
	}
}

// unmarshalEncoded reads back what Encoded.MarshalBinary writes.
func unmarshalEncoded(data []byte) (*Encoded, error) {
	e := &Encoded{}
	if len(data) < 28 {
		return nil, fmt.Errorf("floatenc: encoded blob too short (%d bytes)", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data[0:]); magic != encodedMagic {
		return nil, fmt.Errorf("floatenc: bad encoded magic %#x", magic)
	}
	e.Scheme = Scheme{Kind: Kind(data[4]), Bits: int(data[5])}
	e.Rows = int(binary.LittleEndian.Uint32(data[8:]))
	e.Cols = int(binary.LittleEndian.Uint32(data[12:]))
	e.Exp = int32(binary.LittleEndian.Uint32(data[16:]))
	tableN := int(binary.LittleEndian.Uint32(data[20:]))
	pos := 24
	if tableN < 0 || tableN > 1<<16 || len(data) < pos+4*tableN+4 {
		return nil, fmt.Errorf("floatenc: encoded blob truncated in table (n=%d)", tableN)
	}
	e.Table = make([]float32, tableN)
	for i := range e.Table {
		e.Table[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
	}
	plen := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	if plen < 0 || len(data) != pos+plen {
		return nil, fmt.Errorf("floatenc: encoded blob payload length %d does not match %d remaining bytes", plen, len(data)-pos)
	}
	e.Payload = append([]byte(nil), data[pos:]...)
	return e, e.Scheme.Validate()
}
