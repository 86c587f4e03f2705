package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.Len() != 12 {
		t.Fatalf("bad dims: %dx%d len %d", m.Rows(), m.Cols(), m.Len())
	}
	for i, v := range m.Data() {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	NewMatrix(-1, 2)
}

func TestFromSlice(t *testing.T) {
	m, err := FromSlice(2, 2, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := FromSlice(2, 2, []float32{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestSetAtRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row(1)[2] = %v", row[2])
	}
	row[0] = 1 // views alias storage
	if m.At(1, 0) != 1 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := MustFromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias original storage")
	}
}

func TestEqualBitwise(t *testing.T) {
	nan := float32(math.NaN())
	a := MustFromSlice(1, 2, []float32{nan, 1})
	b := MustFromSlice(1, 2, []float32{nan, 1})
	if !a.Equal(b) {
		t.Fatal("bit-identical NaNs should compare equal")
	}
	c := MustFromSlice(2, 1, []float32{nan, 1})
	if a.Equal(c) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestApproxEqual(t *testing.T) {
	a := MustFromSlice(1, 2, []float32{1, 2})
	b := MustFromSlice(1, 2, []float32{1.0005, 2})
	if !a.ApproxEqual(b, 1e-3) {
		t.Fatal("should be approx equal at 1e-3")
	}
	if a.ApproxEqual(b, 1e-5) {
		t.Fatal("should differ at 1e-5")
	}
}

// Matrices add and subtract through AddScaled on their data (alpha ±1) and
// scale in place through Scale.
func TestAddSubScale(t *testing.T) {
	a := MustFromSlice(1, 3, []float32{1, 2, 3})
	b := MustFromSlice(1, 3, []float32{4, 5, 6})
	sum := b.Clone()
	AddScaled(sum.Data(), a.Data(), 1)
	if !sum.Equal(MustFromSlice(1, 3, []float32{5, 7, 9})) {
		t.Fatalf("sum = %v", sum)
	}
	diff := b.Clone()
	AddScaled(diff.Data(), a.Data(), -1)
	if !diff.Equal(MustFromSlice(1, 3, []float32{3, 3, 3})) {
		t.Fatalf("diff = %v", diff)
	}
	if a.Scale(2) != a || !a.Equal(MustFromSlice(1, 3, []float32{2, 4, 6})) {
		t.Fatalf("scaled = %v", a)
	}
}

// A product with a one-column right operand runs Gemm's n == 1 path.
func TestMatVec(t *testing.T) {
	m := MustFromSlice(2, 3, []float32{1, 0, 2, 0, 1, -1})
	y := NewMatrix(2, 1)
	if err := Gemm(y, m, MustFromSlice(3, 1, []float32{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if y.At(0, 0) != 7 || y.At(1, 0) != -1 {
		t.Fatalf("y = %v", y)
	}
	if err := Gemm(y, m, MustFromSlice(1, 1, []float32{1})); !errors.Is(err, ErrShape) {
		t.Fatal("want shape error")
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandMatrix(rng, 4, 5, 1)
	b := RandMatrix(rng, 5, 3, 1)
	got, err := a.MatMulRef(b)
	if err != nil {
		t.Fatal(err)
	}
	want := NewMatrix(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			var s float32
			for k := 0; k < 5; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !got.ApproxEqual(want, 1e-5) {
		t.Fatal("MatMulRef disagrees with naive triple loop")
	}
	if _, err := a.MatMulRef(a); !errors.Is(err, ErrShape) {
		t.Fatal("want shape error for incompatible matmul")
	}
}

func TestTranspose(t *testing.T) {
	m := MustFromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose = %v", tr)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := RandMatrix(rng, 1+rng.Intn(8), 1+rng.Intn(8), 10)
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	m := MustFromSlice(1, 5, []float32{-2, 0, 2, float32(math.NaN()), float32(math.Inf(1))})
	s := m.ComputeStats()
	if s.Min != -2 || s.Max != 2 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.NaNs != 1 || s.Infs != 1 || s.NonZero != 2 {
		t.Fatalf("counts = %+v", s)
	}
	if math.Abs(s.Mean) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(8.0/3.0)) > 1e-9 {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := NewMatrix(0, 0).ComputeStats()
	if s.Min != 0 || s.Max != 0 || s.Mean != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestAbsMax(t *testing.T) {
	m := MustFromSlice(1, 3, []float32{-5, 3, float32(math.NaN())})
	if m.AbsMax() != 5 {
		t.Fatalf("AbsMax = %v", m.AbsMax())
	}
}

func TestMeanAbsDiff(t *testing.T) {
	a := MustFromSlice(1, 2, []float32{1, 2})
	b := MustFromSlice(1, 2, []float32{2, 4})
	d, err := a.MeanAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1.5 {
		t.Fatalf("MeanAbsDiff = %v", d)
	}
	if _, err := a.MeanAbsDiff(NewMatrix(2, 2)); !errors.Is(err, ErrShape) {
		t.Fatal("want shape error")
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := XavierInit(rng, 10, 10, 100, 100)
	limit := float32(math.Sqrt(6.0 / 200.0))
	for _, v := range m.Data() {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside xavier bound %v", v, limit)
		}
	}
}

func TestPerturbChangesCopyOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := RandMatrix(rng, 4, 4, 1)
	orig := m.Clone()
	p := m.Perturb(rng, 0.1)
	if !m.Equal(orig) {
		t.Fatal("Perturb must not mutate the receiver")
	}
	if p.Equal(m) {
		t.Fatal("Perturb should change values")
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := RandNormal(rng, 1+rng.Intn(6), 1+rng.Intn(6), 2)
		got, err := FromBytes(m.Rows(), m.Cols(), m.Bytes())
		return err == nil && got.Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromBytesBadLength(t *testing.T) {
	if _, err := FromBytes(2, 2, make([]byte, 7)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestRandMatrixDeterministic(t *testing.T) {
	a := RandMatrix(rand.New(rand.NewSource(42)), 3, 3, 1)
	b := RandMatrix(rand.New(rand.NewSource(42)), 3, 3, 1)
	if !a.Equal(b) {
		t.Fatal("same seed must produce identical matrices")
	}
}

// Transpose returns mᵀ (cache-blocked tiles), for building references.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	transposeBlocked(m.rows, m.cols, m.data, m.cols, out.data, m.rows)
	return out
}

// transposeBlocked agrees with an element-by-element transpose on shapes
// that fill whole tiles and four-row groups, and on shapes that leave every
// kind of remainder, with strides wider than the data; it writes nothing
// outside the destination's cols×rows window.
func TestTransposeBlockedMatchesNaive(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {4, 4}, {8, 9}, {12, 72}, {72, 12}, {33, 65}, {64, 32}, {37, 3}} {
		rows, cols := sh[0], sh[1]
		lds, ldd := cols+3, rows+2
		src := make([]float32, rows*lds)
		for i := range src {
			src[i] = float32(i)
		}
		const pad = -1
		dst := make([]float32, cols*ldd)
		for i := range dst {
			dst[i] = pad
		}
		transposeBlocked(rows, cols, src, lds, dst, ldd)
		for j := 0; j < cols; j++ {
			for i := 0; i < ldd; i++ {
				want := float32(pad)
				if i < rows {
					want = src[i*lds+j]
				}
				if got := dst[j*ldd+i]; got != want {
					t.Fatalf("%dx%d: dst[%d][%d] = %v, want %v", rows, cols, j, i, got, want)
				}
			}
		}
	}
}
