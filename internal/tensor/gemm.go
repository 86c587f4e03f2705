package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// This file is the compute core behind the DNN engine's hot paths: a
// cache-blocked, goroutine-parallel float32 GEMM plus the strided and
// transposed variants im2col convolution needs, and small fused helpers
// (AddScaled). Determinism contract: for every output element the k-summation
// runs in strictly increasing k order, one rounding per term, so results are
// bit-identical to the reference triple loop (MatMulRef) regardless of
// blocking or worker count — parallelism only partitions output rows, never
// a single element's reduction.
//
// Parallel dispatch is a fork-join over row bands: a multiply large enough to
// pay for goroutines is cut into one even-height band per worker
// (GOMAXPROCS), the caller computes the first band and waits for the rest.
// Cache-blocking depth (the k panel) is derived from the multiply's column
// width against an L2 budget.

const (
	// gemmL2Bytes is the per-core L2 budget the k-panel depth targets.
	// Typical x86 cores have 256KB-1.25MB private L2; the conservative end
	// keeps the streamed B panel resident even on small parts, and larger
	// caches simply see more reuse.
	gemmL2Bytes = 256 << 10
	// gemmKCMin/Max clamp the k-blocking depth: below 64 the per-panel loop
	// overhead dominates, above 1024 the panel thrashes L1 evictions for no
	// additional reuse.
	gemmKCMin = 64
	gemmKCMax = 1024
	// gemmBandFlops is the least work (rows*n*k) one parallel band may carry,
	// so a multiply under twice this runs inline on the caller. Measured
	// reason: the largest GEMM any zoo model issues per example is 82,944
	// flops (vgg-mini conv1_2, 8x144x72), where starting and joining a
	// goroutine costs more than the multiply — every shipped model stays
	// inline — while a 192^3 product (7M flops) goes GOMAXPROCS wide.
	gemmBandFlops = 96 * 1024
)

// gemmKCFor picks the k-blocking depth for an n-column multiply: the
// streamed B panel (kc × n float32) targets half the per-core L2 budget so
// it stays resident while a band of C rows streams over it. Narrow outputs
// get deeper panels, wide ones shallower, clamped to [64, 1024]. Blocking
// depth never changes results — each element's k-summation stays in
// ascending order across panel boundaries.
func gemmKCFor(n int) int {
	kc := gemmL2Bytes / 2 / 4 / n
	if kc < gemmKCMin {
		kc = gemmKCMin
	}
	if kc > gemmKCMax {
		kc = gemmKCMax
	}
	return kc
}

// dispatchRows runs body over rows [0, m) of an m×n×k multiply: inline when
// fewer than two bands of gemmBandFlops fit, otherwise as one band per
// worker with the caller taking the first. Band heights are even so the
// kernels' two-row register tiles never straddle a band edge.
func dispatchRows(m, n, k int, body func(i0, i1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if most := m * n * k / gemmBandFlops; workers > most {
		workers = most
	}
	rows := m
	if workers > 1 {
		rows = (m + workers - 1) / workers
		rows += rows & 1
	}
	if rows >= m {
		mGemmDispatchInline.Inc()
		body(0, m)
		return
	}
	var wg sync.WaitGroup
	for i0 := rows; i0 < m; i0 += rows {
		i1 := i0 + rows
		if i1 > m {
			i1 = m
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			body(i0, i1)
		}(i0, i1)
	}
	body(0, rows)
	wg.Wait()
	mGemmDispatchParallel.Inc()
}

// AddScaled computes dst[i] += alpha * x[i] (axpy). It panics if the slices
// differ in length.
func AddScaled(dst, x []float32, alpha float32) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: AddScaled length %d != %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// zeroRows clears rows [0, m) of c (row length n, stride ldc).
func zeroRows(m, n int, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		for j := range row {
			row[j] = 0
		}
	}
}

// GemmStrided computes C += A·B (acc=true) or C = A·B (acc=false) on raw
// row-major storage: A is m×k with row stride lda, B is k×n with stride ldb,
// C is m×n with stride ldc. Strides let callers address submatrix views,
// e.g. a weight matrix whose trailing bias column is excluded (lda = k+1).
func GemmStrided(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if !acc {
		zeroRows(m, n, c, ldc)
	}
	if k <= 0 {
		return
	}
	kc := gemmKCFor(n)
	dispatchRows(m, n, k, func(i0, i1 int) {
		gemmBandN(i0, i1, n, k, kc, a, lda, b, ldb, c, ldc)
	})
}

// packPool recycles the scratch panels GemmTNStrided packs Aᵀ into, so
// per-example backward passes do not allocate.
var packPool = sync.Pool{New: func() any { return new([]float32) }}

// GemmTNStrided computes C += Aᵀ·B (acc=true) or C = Aᵀ·B: A is k×m with
// stride lda (so Aᵀ is m×k), B is k×n with stride ldb, C is m×n. When the
// multiply is large enough to amortize the copy, A is packed into a
// contiguous m×k panel first so the inner kernel streams unit-stride
// memory; packing is pure data movement and does not change the summation
// order.
func GemmTNStrided(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if !acc {
		zeroRows(m, n, c, ldc)
	}
	if k <= 0 {
		return
	}
	kc := gemmKCFor(n)
	if n >= 4 { // the m*k packing copy is paid back by n passes over the panel
		bufp := packPool.Get().(*[]float32)
		buf := *bufp
		if cap(buf) < m*k {
			buf = make([]float32, m*k)
		}
		buf = buf[:m*k]
		transposeBlocked(k, m, a, lda, buf, k)
		dispatchRows(m, n, k, func(i0, i1 int) {
			gemmBandN(i0, i1, n, k, kc, buf, k, b, ldb, c, ldc)
		})
		*bufp = buf
		packPool.Put(bufp)
		return
	}
	dispatchRows(m, n, k, func(i0, i1 int) {
		gemmBandTN(i0, i1, n, k, kc, a, lda, b, ldb, c, ldc)
	})
}

// GemmNTStrided computes C += A·Bᵀ (acc=true) or C = A·Bᵀ: A is m×k with
// stride lda, B is n×k with stride ldb (so Bᵀ is k×n), C is m×n. Each output
// element is a dot product of two contiguous rows.
func GemmNTStrided(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if !acc {
		zeroRows(m, n, c, ldc)
	}
	if k <= 0 {
		return
	}
	dispatchRows(m, n, k, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			crow := c[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				brow := b[j*ldb : j*ldb+k]
				var s float32
				for t, av := range arow {
					s += av * brow[t]
				}
				crow[j] += s
			}
		}
	})
}

// gemmBandN is the serial N/N inner kernel over C rows [i0, i1): k-blocked
// into kc-deep panels with two-row register tiling, so each panel of B is
// streamed once for two output rows.
func gemmBandN(i0, i1, n, k, kc int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if n == 1 {
		// Matrix-vector: each output element is one running dot, accumulated
		// in a register in the same order as the general path.
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			s := c[i*ldc]
			if ldb == 1 {
				x := b[:k]
				for t, av := range arow {
					s += av * x[t]
				}
			} else {
				for t, av := range arow {
					s += av * b[t*ldb]
				}
			}
			c[i*ldc] = s
		}
		return
	}
	for kb := 0; kb < k; kb += kc {
		kEnd := kb + kc
		if kEnd > k {
			kEnd = k
		}
		i := i0
		for ; i+1 < i1; i += 2 {
			arow0 := a[i*lda : i*lda+k]
			arow1 := a[(i+1)*lda : (i+1)*lda+k]
			crow0 := c[i*ldc : i*ldc+n]
			crow1 := c[(i+1)*ldc : (i+1)*ldc+n]
			for t := kb; t < kEnd; t++ {
				a0, a1 := arow0[t], arow1[t]
				brow := b[t*ldb : t*ldb+n]
				for j, bv := range brow {
					crow0[j] += a0 * bv
					crow1[j] += a1 * bv
				}
			}
		}
		if i < i1 {
			arow := a[i*lda : i*lda+k]
			crow := c[i*ldc : i*ldc+n]
			for t := kb; t < kEnd; t++ {
				av := arow[t]
				brow := b[t*ldb : t*ldb+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// gemmBandTN is gemmBandN with A read transposed (A is k×m, element (t, i)
// at a[t*lda+i]).
func gemmBandTN(i0, i1, n, k, kc int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for kb := 0; kb < k; kb += kc {
		kEnd := kb + kc
		if kEnd > k {
			kEnd = k
		}
		i := i0
		for ; i+1 < i1; i += 2 {
			crow0 := c[i*ldc : i*ldc+n]
			crow1 := c[(i+1)*ldc : (i+1)*ldc+n]
			for t := kb; t < kEnd; t++ {
				a0, a1 := a[t*lda+i], a[t*lda+i+1]
				brow := b[t*ldb : t*ldb+n]
				for j, bv := range brow {
					crow0[j] += a0 * bv
					crow1[j] += a1 * bv
				}
			}
		}
		if i < i1 {
			crow := c[i*ldc : i*ldc+n]
			for t := kb; t < kEnd; t++ {
				av := a[t*lda+i]
				brow := b[t*ldb : t*ldb+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// Gemm computes dst = a·b. dst must be preallocated with shape
// a.Rows()×b.Cols() and must not alias a or b.
func Gemm(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("tensor: gemm %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("tensor: gemm dst %dx%d, want %dx%d: %w", dst.rows, dst.cols, a.rows, b.cols, ErrShape)
	}
	GemmStrided(a.rows, b.cols, a.cols, a.data, a.cols, b.data, b.cols, dst.data, dst.cols, false)
	return nil
}

// GemmAcc computes dst += a·b with the same shape rules as Gemm.
func GemmAcc(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("tensor: gemm %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("tensor: gemm dst %dx%d, want %dx%d: %w", dst.rows, dst.cols, a.rows, b.cols, ErrShape)
	}
	GemmStrided(a.rows, b.cols, a.cols, a.data, a.cols, b.data, b.cols, dst.data, dst.cols, true)
	return nil
}
