package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"modelhub/internal/obs"
)

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.data {
		m.data[i] = float32(rng.NormFloat64())
	}
	return m
}

// TestGemmMatchesRef: the blocked kernel must be bit-identical to the
// reference triple loop across random shapes — the determinism contract says
// blocking and tiling may not change any element's summation order.
func TestGemmMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		m, k, n := 1+rng.Intn(70), 1+rng.Intn(300), 1+rng.Intn(70)
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		want, err := a.MatMulRef(b)
		if err != nil {
			t.Fatal(err)
		}
		got := NewMatrix(m, n)
		if err := Gemm(got, a, b); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d (%dx%dx%d): Gemm differs from reference", trial, m, k, n)
		}
	}
}

// gemmProcs are the GOMAXPROCS points the dispatcher is checked at: GEMM
// width follows GOMAXPROCS and nothing else (make test-scaling and the CI
// compute-scaling job sweep the same variable from outside).
var gemmProcs = []int{1, 2, 3, 4, 8}

// restoreProcs puts GOMAXPROCS back when the test ends.
func restoreProcs(t testing.TB) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestGemmWorkerInvariance: results must not depend on the worker count.
func TestGemmWorkerInvariance(t *testing.T) {
	restoreProcs(t)
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 120, 90), randMat(rng, 90, 110)
	want, err := a.MatMulRef(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range gemmProcs {
		runtime.GOMAXPROCS(procs)
		got := NewMatrix(120, 110)
		if err := Gemm(got, a, b); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("GOMAXPROCS=%d differs from reference", procs)
		}
	}
}

// TestGemmAcc: the accumulate form (acc = true) adds on top of the
// destination.
func TestGemmAcc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randMat(rng, 5, 7), randMat(rng, 7, 4)
	dst := randMat(rng, 5, 4)
	init := dst.Clone()
	GemmStrided(5, 4, 7, a.data, 7, b.data, 4, dst.data, 4, true)
	// Reference: per-term accumulation on top of the initial contents (the
	// same order the kernel guarantees — NOT init + full product, which
	// rounds differently).
	want := init.Clone()
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.cols; j++ {
				want.data[i*want.cols+j] += av * b.At(k, j)
			}
		}
	}
	if !dst.Equal(want) {
		t.Fatal("accumulating GemmStrided differs from per-term reference")
	}
	if err := Gemm(NewMatrix(5, 5), a, b); err == nil {
		t.Fatal("want shape error for bad dst")
	}
	if err := Gemm(NewMatrix(5, 4), b, a); err == nil {
		t.Fatal("want shape error for incompatible inner dims")
	}
}

// TestGemmStridedBiasColumnView: the strided form addresses a weight matrix
// whose last (bias) column is excluded via lda = k+1, the conv layout.
func TestGemmStridedBiasColumnView(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const m, k, n = 6, 11, 9
	w := randMat(rng, m, k+1) // trailing bias column must be ignored
	b := randMat(rng, k, n)
	got := NewMatrix(m, n)
	GemmStrided(m, n, k, w.data, k+1, b.data, n, got.data, n, false)
	trimmed := NewMatrix(m, k)
	for i := 0; i < m; i++ {
		copy(trimmed.Row(i), w.Row(i)[:k])
	}
	want, _ := trimmed.MatMulRef(b)
	if !got.Equal(want) {
		t.Fatal("strided bias-column view differs from trimmed multiply")
	}
}

// TestGemmTNStrided: C = Aᵀ·B with strided A, against transpose + reference.
// Covers both the packed-panel path (large n) and the direct path (n < 4).
func TestGemmTNStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 8, 40} {
		const m, k = 13, 9
		a := randMat(rng, k, m+2) // two extra columns exercise the stride
		b := randMat(rng, k, n)
		got := NewMatrix(m, n)
		GemmTNStrided(m, n, k, a.data, m+2, b.data, n, got.data, n, false)
		at := NewMatrix(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		want, _ := at.MatMulRef(b)
		if !got.Equal(want) {
			t.Fatalf("n=%d: TN kernel differs from transpose+reference", n)
		}
	}
}

// TestGemmNTStrided: C = A·Bᵀ against transpose + reference.
func TestGemmNTStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const m, k, n = 7, 12, 10
	a := randMat(rng, m, k)
	b := randMat(rng, n, k)
	got := NewMatrix(m, n)
	GemmNTStrided(1, m, n, k, a.data, k, b.data, k, got.data, n, false)
	want, _ := a.MatMulRef(b.Transpose())
	if !got.Equal(want) {
		t.Fatal("NT kernel differs from transpose+reference")
	}
	// Accumulate form.
	acc := got.Clone()
	GemmNTStrided(1, m, n, k, a.data, k, b.data, k, acc.data, n, true)
	for i := range acc.data {
		if acc.data[i] != got.data[i]+want.data[i] {
			t.Fatal("NT accumulate differs")
		}
	}
	// A batch is its examples' products, each summed from zero, added into
	// C one after another: the same bits as one call per example.
	const batch = 5
	ab, bb := randMat(rng, m, batch*k), randMat(rng, n, batch*k)
	for _, accumulate := range []bool{false, true} {
		got, want := acc.Clone(), acc.Clone()
		GemmNTStrided(batch, m, n, k, ab.data, batch*k, bb.data, batch*k, got.data, n, accumulate)
		if !accumulate {
			clear(want.data)
		}
		for e := 0; e < batch; e++ {
			GemmNTStrided(1, m, n, k, ab.data[e*k:], batch*k, bb.data[e*k:], batch*k, want.data, n, true)
		}
		if !got.Equal(want) {
			t.Fatalf("acc=%v: a batch of %d differs from one call per example", accumulate, batch)
		}
	}
}

func TestAddScaled(t *testing.T) {
	dst := []float32{1, 2, 3}
	AddScaled(dst, []float32{10, 20, 30}, 0.5)
	for i, want := range []float32{6, 12, 18} {
		if dst[i] != want {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on length mismatch")
		}
	}()
	AddScaled(dst, []float32{1}, 1)
}

// TestGemmConcurrent runs fork-join dispatches from many goroutines at once
// (64³ is wide enough to split); meaningful under -race (make test-race).
func TestGemmConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := randMat(rng, 64, 64), randMat(rng, 64, 64)
	want, _ := a.MatMulRef(b)
	restoreProcs(t)
	runtime.GOMAXPROCS(4)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := NewMatrix(64, 64)
				if err := Gemm(got, a, b); err != nil {
					errc <- err
					return
				}
				if !got.Equal(want) {
					errc <- ErrShape
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatalf("concurrent gemm: %v", err)
	}
}

// TestTransposeBlockedLarge exercises multi-tile transposes beyond the
// 32-edge tile, which the small fixtures in matrix_test.go do not reach.
func TestTransposeBlockedLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randMat(rng, 70, 45)
	tr := m.Transpose()
	if tr.Rows() != 45 || tr.Cols() != 70 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("tr[%d,%d] mismatch", j, i)
			}
		}
	}
}

// TestGemmKCForRange pins the k-panel depth rule: within [64, 1024] at any
// output width, and narrower outputs get panels at least as deep as wider
// ones.
func TestGemmKCForRange(t *testing.T) {
	for _, n := range []int{1, 8, 64, 512, 4096, 1 << 20} {
		kc := gemmKCFor(n)
		if kc < 64 || kc > 1024 {
			t.Fatalf("kc for n=%d is %d, outside [64, 1024]", n, kc)
		}
	}
	if gemmKCFor(16) < gemmKCFor(1024) {
		t.Fatalf("kc not monotone: n=16 -> %d < n=1024 -> %d", gemmKCFor(16), gemmKCFor(1024))
	}
}

// TestGemmWorkerInvarianceLarge drives every strided kernel through the
// fork-join dispatcher at each width, on shapes whose rows carry enough
// flops to split: m = 1 and 2 (never split: bands are two rows high), 3 and 5
// (more workers than bands, one-row last band) and 191 (odd, short last
// band). n = 3 takes GemmTNStrided's unpacked path, wider n its packed one.
// Bands are now four rows high and the floor higher, so only the last three
// shapes actually fork.
// All must be bit-equal to MatMulRef.
func TestGemmWorkerInvarianceLarge(t *testing.T) {
	restoreProcs(t)
	rng := rand.New(rand.NewSource(23))
	shapes := [][3]int{ // m, n, k
		{1, 264, 250}, {2, 264, 250}, {3, 264, 250}, {5, 264, 250}, {191, 96, 90},
		{1, 3, 22000}, {2, 3, 22000}, {3, 3, 22000}, {5, 3, 22000}, {191, 3, 2900},
		// Past twice gemmBandFlops: a four-row band plus a one-row band,
		// the unpacked TN path split in two, and up to eight bands.
		{5, 264, 5000}, {191, 3, 11000}, {191, 300, 450},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		at, bt := a.Transpose(), b.Transpose()
		want, err := a.MatMulRef(b)
		if err != nil {
			t.Fatal(err)
		}
		kernels := map[string]func(c []float32){
			"GemmStrided":   func(c []float32) { GemmStrided(m, n, k, a.data, k, b.data, n, c, n, false) },
			"GemmTNStrided": func(c []float32) { GemmTNStrided(m, n, k, at.data, m, b.data, n, c, n, false) },
			"GemmNTStrided": func(c []float32) { GemmNTStrided(1, m, n, k, a.data, k, bt.data, k, c, n, false) },
		}
		for _, procs := range gemmProcs {
			runtime.GOMAXPROCS(procs)
			for name, kernel := range kernels {
				got := NewMatrix(m, n)
				kernel(got.data)
				if !got.Equal(want) {
					t.Fatalf("%s %dx%dx%d at GOMAXPROCS=%d differs from reference", name, m, n, k, procs)
				}
			}
		}
	}
}

// TestGemmDispatchFloor pins the one inline/parallel decision: the largest
// per-example multiply a zoo model issues (vgg-mini conv1_2, 8x144x72) and
// the batched ones a 16-example minibatch issues (lenet conv2, 16x576x72;
// vgg-mini conv1_2, 8x2304x72) stay on the caller at any width, and a 192³
// product forks once GOMAXPROCS allows.
func TestGemmDispatchFloor(t *testing.T) {
	restoreProcs(t)
	if !obs.Enabled() { // counters are no-ops while metrics are disabled
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	rng := rand.New(rand.NewSource(29))
	run := func(m, n, k int) (parallel, inline int64) {
		a, b, c := randMat(rng, m, k), randMat(rng, k, n), NewMatrix(m, n)
		p0, i0 := mGemmDispatchParallel.Value(), mGemmDispatchInline.Value()
		if err := Gemm(c, a, b); err != nil {
			t.Fatal(err)
		}
		return mGemmDispatchParallel.Value() - p0, mGemmDispatchInline.Value() - i0
	}
	for _, procs := range gemmProcs {
		runtime.GOMAXPROCS(procs)
		if p, i := run(8, 72, 144); p != 0 || i != 1 {
			t.Fatalf("GOMAXPROCS=%d: 8x144x72 dispatched parallel=%d inline=%d, want inline", procs, p, i)
		}
		for _, sh := range [][3]int{{16, 576, 72}, {8, 2304, 72}} { // m, n, k
			if p, i := run(sh[0], sh[1], sh[2]); p != 0 || i != 1 {
				t.Fatalf("GOMAXPROCS=%d: batched %dx%dx%d dispatched parallel=%d inline=%d, want inline", procs, sh[0], sh[1], sh[2], p, i)
			}
		}
		wantParallel := int64(0)
		if procs > 1 {
			wantParallel = 1
		}
		if p, i := run(192, 192, 192); p != wantParallel || p+i != 1 {
			t.Fatalf("GOMAXPROCS=%d: 192³ dispatched parallel=%d inline=%d", procs, p, i)
		}
	}
}
