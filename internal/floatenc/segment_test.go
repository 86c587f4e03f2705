package floatenc

import (
	"bytes"
	"compress/zlib"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelhub/internal/tensor"
)

func TestSegmentReconstructExact(t *testing.T) {
	m := randMat(20, 17, 13)
	s := Segment(m)
	got, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("segmentation round trip must be exact")
	}
}

func TestSegmentPlaneSizes(t *testing.T) {
	m := randMat(21, 4, 6)
	s := Segment(m)
	for p := 0; p < NumPlanes; p++ {
		if len(s.Planes[p]) != 24 {
			t.Fatalf("plane %d has %d bytes", p, len(s.Planes[p]))
		}
	}
	s.Planes[2] = s.Planes[2][:5]
	if err := s.Validate(); err == nil {
		t.Fatal("Validate must reject inconsistent plane sizes")
	}
}

// The central soundness invariant for progressive evaluation: the true value
// always lies inside the interval derived from any plane prefix.
func TestIntervalSoundnessProperty(t *testing.T) {
	f := func(seed int64, prefix8 uint8) bool {
		prefix := int(prefix8%4) + 1
		rng := rand.New(rand.NewSource(seed))
		m := tensor.RandNormal(rng, 1+rng.Intn(5), 1+rng.Intn(5), math.Pow(10, float64(rng.Intn(5))-2))
		s := Segment(m)
		lo, hi, err := s.Intervals(prefix)
		if err != nil {
			return false
		}
		for i, v := range m.Data() {
			if !(lo.Data()[i] <= v && v <= hi.Data()[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalFullPrefixIsExact(t *testing.T) {
	m := randMat(22, 8, 8)
	s := Segment(m)
	lo, hi, err := s.Intervals(4)
	if err != nil {
		t.Fatal(err)
	}
	if !lo.Equal(m) || !hi.Equal(m) {
		t.Fatal("prefix=4 intervals must collapse to the exact value")
	}
}

func TestIntervalWidthShrinksWithPrefix(t *testing.T) {
	m := randMat(23, 10, 10)
	s := Segment(m)
	prevWidth := math.Inf(1)
	for prefix := 1; prefix <= 4; prefix++ {
		lo, hi, err := s.Intervals(prefix)
		if err != nil {
			t.Fatal(err)
		}
		var width float64
		for i := range lo.Data() {
			width += float64(hi.Data()[i]) - float64(lo.Data()[i])
		}
		if width > prevWidth {
			t.Fatalf("prefix %d interval width %v wider than previous %v", prefix, width, prevWidth)
		}
		prevWidth = width
	}
}

func TestIntervalNegativeValues(t *testing.T) {
	m := tensor.MustFromSlice(1, 2, []float32{-1.5, -1e-20})
	s := Segment(m)
	lo, hi, err := s.Intervals(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Data() {
		if !(lo.Data()[i] <= v && v <= hi.Data()[i]) {
			t.Fatalf("elem %d (%v) outside [%v, %v]", i, v, lo.Data()[i], hi.Data()[i])
		}
	}
	if hi.Data()[0] > 0 {
		t.Fatalf("negative value with known high byte should stay negative, hi = %v", hi.Data()[0])
	}
}

func TestIntervalInfNaNWidening(t *testing.T) {
	m := tensor.MustFromSlice(1, 2, []float32{float32(math.Inf(1)), float32(math.NaN())})
	s := Segment(m)
	lo, hi, err := s.Intervals(1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(hi.Data()[0]), 1) {
		t.Fatal("interval containing +Inf pattern must widen hi to +Inf")
	}
	_ = lo
}

func TestIntervalsBadPrefix(t *testing.T) {
	s := Segment(randMat(24, 2, 2))
	if _, _, err := s.Intervals(0); err == nil {
		t.Fatal("prefix 0 must error")
	}
	if _, _, err := s.Intervals(5); err == nil {
		t.Fatal("prefix 5 must error")
	}
}

func TestTruncatedMatchesIntervalLo(t *testing.T) {
	m := randMat(25, 6, 6)
	s := Segment(m)
	tr, err := s.Truncated(2)
	if err != nil {
		t.Fatal(err)
	}
	lo, _, err := s.Intervals(2)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(lo) {
		t.Fatal("Truncated must equal the interval lower reconstruction")
	}
}

// High-order planes must have lower entropy than low-order planes for
// realistic (clustered) weight distributions — the premise of segmentation.
func TestPlaneEntropyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := tensor.RandNormal(rng, 100, 100, 0.05)
	s := Segment(m)
	e0 := s.PlaneEntropy(0)
	e3 := s.PlaneEntropy(3)
	if e0 >= e3 {
		t.Fatalf("high plane entropy %v should be below low plane entropy %v", e0, e3)
	}
	if e3 < 7.5 {
		t.Fatalf("low-order plane of gaussian weights should be near-random, got %v", e3)
	}
}

func TestHighPlanesCompressBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	m := tensor.RandNormal(rng, 128, 128, 0.02)
	s := Segment(m)
	c0, err := CompressedSize(s.Planes[0])
	if err != nil {
		t.Fatal(err)
	}
	c3, err := CompressedSize(s.Planes[3])
	if err != nil {
		t.Fatal(err)
	}
	if c0 >= c3 {
		t.Fatalf("high plane compressed %d should beat low plane %d", c0, c3)
	}
}

func TestDeflateInflateRoundTrip(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i % 7)
	}
	for _, level := range []int{1, 6, 9} {
		z, err := Deflate(data, level)
		if err != nil {
			t.Fatal(err)
		}
		if len(z) >= len(data) {
			t.Fatalf("level %d: repetitive data should compress (%d >= %d)", level, len(z), len(data))
		}
		back, err := Inflate(z, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if string(back) != string(data) {
			t.Fatal("inflate mismatch")
		}
	}
}

func TestInflateGarbage(t *testing.T) {
	if _, err := Inflate([]byte{1, 2, 3}, 3); err == nil {
		t.Fatal("want error for garbage zlib data")
	}
}

// Deflate reuses pooled writers; at every level zlib accepts, whichever
// writer a call draws must produce the bytes of a freshly built one, and a
// level outside that range is an error, not an index into the pool.
func TestDeflatePooledMatchesFreshWriter(t *testing.T) {
	seg := Segment(randMat(27, 40, 40))
	for level := zlib.HuffmanOnly; level <= zlib.BestCompression; level++ {
		for round := 0; round < 3; round++ { // later rounds draw writers earlier ones returned
			for p, plane := range seg.Planes {
				got, err := Deflate(plane, level)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, freshDeflate(t, plane, level)) {
					t.Fatalf("level %d round %d plane %d: pooled writer output differs from a fresh writer's", level, round, p)
				}
			}
		}
	}
	for _, level := range []int{zlib.HuffmanOnly - 1, zlib.BestCompression + 1, math.MinInt, math.MaxInt} {
		if _, err := Deflate(seg.Planes[0], level); err == nil {
			t.Fatalf("level %d: want an error", level)
		}
	}
}

// Inflate yields exactly the declared size or an error: a stream that is
// longer, shorter or fails its checksum is rejected, and the pooled reader
// stays usable afterwards.
func TestInflateExactSize(t *testing.T) {
	plane := Segment(randMat(28, 30, 30)).Planes[1]
	z, err := Deflate(plane, DefaultZlibLevel)
	if err != nil {
		t.Fatal(err)
	}
	badSum := append([]byte(nil), z...)
	badSum[len(badSum)-1] ^= 1
	for name, c := range map[string]struct {
		data []byte
		size int
	}{
		"runs past":    {z, len(plane) - 1},
		"ends short":   {z, len(plane) + 1},
		"empty target": {z, 0},
		"bad checksum": {badSum, len(plane)},
		"truncated":    {z[:len(z)/2], len(plane)},
	} {
		if _, err := Inflate(c.data, c.size); err == nil {
			t.Errorf("%s: want an error", name)
		}
		back, err := Inflate(z, len(plane))
		if err != nil || !bytes.Equal(back, plane) {
			t.Fatalf("after %q: exact-size inflate failed: %v", name, err)
		}
	}
}

func TestNormalizeAlignsExponents(t *testing.T) {
	m := randMat(26, 30, 30)
	norm, off := Normalize(m)
	if off <= 0 {
		t.Fatalf("offset = %v", off)
	}
	// All normalized values must share sign and exponent bits.
	first := math.Float32bits(norm.Data()[0]) >> 23
	for i, v := range norm.Data() {
		if math.Float32bits(v)>>23 != first {
			t.Fatalf("elem %d: exponent/sign %x differs from %x", i, math.Float32bits(v)>>23, first)
		}
	}
	back := norm.Clone()
	for i := range back.Data() {
		back.Data()[i] -= off
	}
	if !back.ApproxEqual(m, off*1e-6) {
		t.Fatal("denormalize should approximately invert")
	}
}

func TestNormalizeHelpsCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	m := tensor.RandNormal(rng, 100, 100, 0.3)
	raw, err := CompressedSize(m.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	norm, _ := Normalize(m)
	nc, err := CompressedSize(norm.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if nc >= raw {
		t.Fatalf("normalized %d should compress better than raw %d", nc, raw)
	}
}

func TestNormalizeOffsetDegenerate(t *testing.T) {
	if off := NormalizeOffset(0); off <= 0 {
		t.Fatalf("offset for 0 absmax = %v", off)
	}
	if off := NormalizeOffset(float32(math.Inf(1))); off <= 0 || math.IsInf(float64(off), 0) {
		t.Fatalf("offset for Inf absmax = %v", off)
	}
}

func TestNormalizeNaN(t *testing.T) {
	m := tensor.MustFromSlice(1, 2, []float32{1, float32(math.NaN())})
	norm, off := Normalize(m)
	if math.IsNaN(float64(norm.Data()[1])) {
		t.Fatal("NaN should be replaced during normalization")
	}
	_ = off
}
