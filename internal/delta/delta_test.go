package delta

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelhub/internal/tensor"
)

func pair(seed int64, rows, cols int, drift float64) (base, target *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	base = tensor.RandNormal(rng, rows, cols, 0.1)
	target = base.Perturb(rng, drift)
	return base, target
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{None: "materialize", Sub: "delta-sub", IntSub: "delta-intsub", XOR: "delta-xor"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), s)
		}
	}
}

func TestExactOpsInvertBitExactly(t *testing.T) {
	base, target := pair(1, 16, 16, 0.01)
	for _, op := range []Op{IntSub, XOR, None} {
		d, err := Compute(op, base, target)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Apply(base)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(target) {
			t.Fatalf("%v: apply(compute) must be bit-exact", op)
		}
	}
}

func TestExactInvertProperty(t *testing.T) {
	f := func(seed int64, pickXOR bool) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		base := tensor.RandNormal(rng, rows, cols, 1)
		target := tensor.RandNormal(rng, rows, cols, 1) // unrelated matrices too
		op := IntSub
		if pickXOR {
			op = XOR
		}
		d, err := Compute(op, base, target)
		if err != nil {
			return false
		}
		got, err := d.Apply(base)
		return err == nil && got.Equal(target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSubApproximatelyInverts(t *testing.T) {
	base, target := pair(2, 16, 16, 0.01)
	d, err := Compute(Sub, base, target)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(target, 1e-6) {
		t.Fatal("float sub should invert to within rounding")
	}
}

func TestComputeUnknownOp(t *testing.T) {
	base, target := pair(3, 2, 2, 0.1)
	if _, err := Compute(Op(77), base, target); !errors.Is(err, ErrOp) {
		t.Fatalf("want ErrOp, got %v", err)
	}
}

func TestApplyUnknownOp(t *testing.T) {
	d := &Delta{Op: Op(77), Rows: 1, Cols: 1, Body: tensor.NewMatrix(1, 1)}
	if _, err := d.Apply(tensor.NewMatrix(1, 1)); !errors.Is(err, ErrOp) {
		t.Fatalf("want ErrOp, got %v", err)
	}
}

func TestApplyShapeMismatchBody(t *testing.T) {
	d := &Delta{Op: XOR, Rows: 2, Cols: 2, Body: tensor.NewMatrix(1, 1)}
	if _, err := d.Apply(tensor.NewMatrix(2, 2)); err == nil {
		t.Fatal("want error for inconsistent body shape")
	}
}

func TestDifferentShapesCropAndPad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := tensor.RandNormal(rng, 3, 5, 1)
	target := tensor.RandNormal(rng, 4, 2, 1)
	for _, op := range []Op{IntSub, XOR} {
		d, err := Compute(op, base, target)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Apply(base)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(target) {
			t.Fatalf("%v: shape-mismatched delta must still invert", op)
		}
	}
}

func TestResizeTo(t *testing.T) {
	m := tensor.MustFromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	r := ResizeTo(m, 3, 2)
	want := tensor.MustFromSlice(3, 2, []float32{1, 2, 4, 5, 0, 0})
	if !r.Equal(want) {
		t.Fatalf("ResizeTo = %v", r)
	}
	same := ResizeTo(m, 2, 3)
	if !same.Equal(m) {
		t.Fatal("same-shape resize must copy values")
	}
	same.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("ResizeTo must not alias input")
	}
	if z := ResizeTo(nil, 2, 2); z.Rows() != 2 || z.Cols() != 2 {
		t.Fatal("nil input should produce zero matrix")
	}
}

func TestNoneIgnoresBase(t *testing.T) {
	_, target := pair(5, 3, 3, 0.1)
	d, err := Compute(None, nil, target)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(target) {
		t.Fatal("materialize delta must reproduce target with no base")
	}
}

// Checkpoint-like drift must make the delta far more compressible than the
// materialized matrix — the premise of delta archival (Fig 6(b)).
func TestDeltaCompressesBetterForSimilarMatrices(t *testing.T) {
	base, target := pair(6, 64, 64, 1e-4)
	mat, err := MeasureDelta(None, nil, target, false)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := MeasureDelta(IntSub, base, target, false)
	if err != nil {
		t.Fatal(err)
	}
	if ds.CompressedBytes >= mat.CompressedBytes {
		t.Fatalf("intsub delta (%d) should beat materialize (%d) for near-identical matrices",
			ds.CompressedBytes, mat.CompressedBytes)
	}
}

// For unrelated matrices the delta should NOT win (the paper's "Similar
// architectures" finding).
func TestDeltaLosesForUnrelatedMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := tensor.RandNormal(rng, 64, 64, 0.1)
	target := tensor.RandNormal(rng, 64, 64, 0.1)
	mat, err := MeasureDelta(None, nil, target, false)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := MeasureDelta(IntSub, base, target, false)
	if err != nil {
		t.Fatal(err)
	}
	// Unrelated gaussian deltas have at least as much entropy as the data.
	if float64(ds.CompressedBytes) < 0.95*float64(mat.CompressedBytes) {
		t.Fatalf("delta (%d) should not significantly beat materialize (%d) for unrelated matrices",
			ds.CompressedBytes, mat.CompressedBytes)
	}
}

func TestMeasureMatrixBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := tensor.RandNormal(rng, 64, 64, 0.05)
	plain, err := MeasureMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := MeasureMatrixBytewise(m)
	if err != nil {
		t.Fatal(err)
	}
	if bw.RawBytes != plain.RawBytes {
		t.Fatalf("raw sizes differ: %d vs %d", bw.RawBytes, plain.RawBytes)
	}
	// Gaussian weights: separating low-entropy high bytes should not hurt
	// much and typically helps.
	if float64(bw.CompressedBytes) > 1.1*float64(plain.CompressedBytes) {
		t.Fatalf("bytewise %d much worse than plain %d", bw.CompressedBytes, plain.CompressedBytes)
	}
}

func TestXORWithSelfIsZero(t *testing.T) {
	_, target := pair(11, 4, 4, 0)
	d, err := Compute(XOR, target, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d.Body.Data() {
		if math.Float32bits(v) != 0 {
			t.Fatal("xor of identical matrices must be all zero bits")
		}
	}
}
