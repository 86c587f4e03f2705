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
// a single element's reduction. The inner loops run on the AVX2 micro-kernel
// (gemm_amd64.s) when the CPU has it and on pure Go otherwise; both add each
// term with one rounding per multiply and per add, so they agree bit for bit.
//
// Parallel dispatch is a fork-join over row bands: a multiply large enough to
// pay for goroutines is cut into one band per worker (GOMAXPROCS), heights a
// multiple of four, and the caller computes the first band and waits for the
// rest.
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
	// gemmBandFlops is the least work (rows*n*k multiply-adds) one parallel
	// band may carry, so a multiply under twice this runs inline on the
	// caller. Measured with the AVX2 kernel on a 2-vCPU Xeon: two bands
	// lose to one goroutine up to ~4M multiply-adds (128³: 112 µs inline,
	// 132 µs forked; batched conv2 at 16 examples, 16×576×72: 38 vs 42 µs)
	// and win from ~7M (256³: 0.99 → 0.63 ms). So a training minibatch
	// stays inline — the DQL grid's parallelism is its candidates — while
	// 192³ and a 50-query interval pass fork.
	gemmBandFlops = 3 << 20
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

// gemmOp names the loop a gemmJob's bands run.
type gemmOp uint8

const (
	opN  gemmOp = iota // C += A·B
	opTN               // C += Aᵀ·B, A read in place (no packing)
	opNT               // C += A·B, each element's product summed from zero
)

// gemmJob is one strided multiply. It travels by value, so a call that
// stays on the caller allocates nothing. For opNT, b is a packed k×n panel.
type gemmJob struct {
	op   gemmOp
	n, k int
	a    []float32
	lda  int
	b    []float32
	ldb  int
	c    []float32
	ldc  int
	kc   int
}

// band computes C rows [i0, i1).
func (j gemmJob) band(i0, i1 int) {
	switch j.op {
	case opN:
		gemmBandN(i0, i1, j.n, j.k, j.kc, j.a, j.lda, j.b, j.ldb, j.c, j.ldc, false)
	case opTN:
		gemmBandTN(i0, i1, j.n, j.k, j.kc, j.a, j.lda, j.b, j.ldb, j.c, j.ldc)
	case opNT:
		gemmBandN(i0, i1, j.n, j.k, j.kc, j.a, j.lda, j.b, j.n, j.c, j.ldc, true)
	}
}

// bandDone is band for a forked worker.
func (j gemmJob) bandDone(i0, i1 int, wg *sync.WaitGroup) {
	defer wg.Done()
	j.band(i0, i1)
}

// dispatchRows runs job over rows [0, m): inline when fewer than two bands
// of gemmBandFlops fit, otherwise as one band per worker with the caller
// taking the first. Band heights are multiples of four so the micro-kernel's
// four-row tiles never straddle a band edge.
func dispatchRows(m int, job gemmJob) {
	workers := runtime.GOMAXPROCS(0)
	if most := m * job.n * job.k / gemmBandFlops; workers > most {
		workers = most
	}
	rows := m
	if workers > 1 {
		rows = (m + workers - 1) / workers
		rows = (rows + 3) &^ 3
	}
	if rows >= m {
		mGemmDispatchInline.Inc()
		job.band(0, m)
		return
	}
	var wg sync.WaitGroup
	for i0 := rows; i0 < m; i0 += rows {
		i1 := i0 + rows
		if i1 > m {
			i1 = m
		}
		wg.Add(1)
		go job.bandDone(i0, i1, &wg)
	}
	job.band(0, rows)
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
	dispatchRows(m, gemmJob{op: opN, n: n, k: k, kc: gemmKCFor(n), a: a, lda: lda, b: b, ldb: ldb, c: c, ldc: ldc})
}

// packPool recycles the scratch panels the TN and NT forms pack a
// transposed operand (and the NT form its running sum) into, so a warm call
// allocates nothing.
var packPool = sync.Pool{New: func() any { return new([]float32) }}

// getPack returns a pooled length-n panel (contents undefined).
func getPack(n int) *[]float32 {
	p := packPool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

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
	job := gemmJob{op: opTN, n: n, k: k, kc: gemmKCFor(n), a: a, lda: lda, b: b, ldb: ldb, c: c, ldc: ldc}
	if n < 4 { // too narrow to pay back the m*k packing copy
		dispatchRows(m, job)
		return
	}
	buf := getPack(m * k)
	transposeBlocked(k, m, a, lda, *buf, k)
	job.op, job.a, job.lda = opN, *buf, k
	dispatchRows(m, job)
	packPool.Put(buf)
}

// GemmNTStrided computes C += Σₑ Aₑ·Bₑᵀ (acc=true) or C = Σₑ Aₑ·Bₑᵀ over
// a batch of products: Aₑ is the m×k block of A at column e·k (A is
// m × batch·k, stride lda) and Bₑ the n×k block of B at column e·k (B is
// n × batch·k, stride ldb), so Bₑᵀ is k×n and C is m×n. Each example's
// element is a dot product summed from zero in ascending k, and the batch's
// dots are added to C one at a time in example order. It runs as
// Cᵀ += Bₑ·Aₑᵀ on the GemmStrided kernel: Aᵀ is packed once into a pooled
// batch·k × m panel whose k-row blocks are the Aₑᵀ, C is transposed once
// into a pooled n×m sum, the kernel sums each product from zero and adds it
// into the sum on store, and the sum is transposed back into C once.
// Convolution's weight gradient, where A is the m = Cout row output
// gradient, B the n = C·k·k row unroll and an example's pixels one block,
// packs the smaller operand this way.
func GemmNTStrided(batch, m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if !acc {
		zeroRows(m, n, c, ldc)
	}
	if k <= 0 || batch <= 0 {
		return
	}
	panel, sum := getPack(batch*k*m), getPack(n*m)
	transposeBlocked(m, batch*k, a, lda, *panel, m)
	transposeBlocked(m, n, c, ldc, *sum, m)
	for e := 0; e < batch; e++ {
		dispatchRows(n, gemmJob{op: opNT, n: m, k: k, kc: k, a: b[e*k:], lda: ldb, b: (*panel)[e*k*m:], c: *sum, ldc: m})
	}
	transposeBlocked(n, m, *sum, m, c, ldc)
	packPool.Put(panel)
	packPool.Put(sum)
}

// gemmBandN is the serial N/N kernel over C rows [i0, i1), k-blocked into
// kc-deep panels. Within a panel, groups of four rows run on the assembly
// micro-kernel over the widest multiple of 8 columns when useAVX2 is set;
// the rest runs gemmGo. Both add each element's terms one at a time in
// ascending k, so every split gives the same bits. With fresh set, each
// element's terms are summed from zero and the sum added to C once, so kc
// must be k: one panel.
func gemmBandN(i0, i1, n, k, kc int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, fresh bool) {
	if n == 1 {
		// Matrix-vector: each output element is one running dot, accumulated
		// in a register in the same order as the general path.
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			var s float32
			if !fresh {
				s = c[i*ldc]
			}
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
			if fresh {
				s = c[i*ldc] + s
			}
			c[i*ldc] = s
		}
		return
	}
	nv := 0
	if useAVX2 {
		nv = n &^ 7
	}
	for kb := 0; kb < k; kb += kc {
		kEnd := kb + kc
		if kEnd > k {
			kEnd = k
		}
		i := i0
		if nv > 0 {
			for ; i+4 <= i1; i += 4 {
				gemmTile4(kEnd-kb, nv, a[i*lda+kb:], lda, b[kb*ldb:], ldb, c[i*ldc:], ldc, fresh)
			}
			if nv < n {
				gemmGo(i0, i, nv, n, kb, kEnd, a, lda, b, ldb, c, ldc, fresh)
			}
		}
		gemmGo(i, i1, 0, n, kb, kEnd, a, lda, b, ldb, c, ldc, fresh)
	}
}

// gemmTile4 runs the micro-kernel on four rows of A (k deep) against the
// first n columns of B, after checking in Go that every element it will
// touch is inside a, b and c: a bad stride panics here instead of reading
// past a slice.
func gemmTile4(k, n int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, fresh bool) {
	_, _ = a[k-1], a[3*lda+k-1]
	_, _ = b[n-1], b[(k-1)*ldb+n-1]
	_, _ = c[n-1], c[3*ldc+n-1]
	gemmKernel4(k, n, &a[0], lda, &b[0], ldb, &c[0], ldc, fresh)
}

// gemmGo is the pure-Go kernel over C rows [i0, i1) and columns [j0, j1)
// for the k panel [kb, kEnd), with two-row register tiling so each B row is
// streamed once per pair. With fresh set it is the micro-kernel's twin:
// each element's dot is summed from zero in a register, then added to C.
func gemmGo(i0, i1, j0, j1, kb, kEnd int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, fresh bool) {
	if fresh {
		for i := i0; i < i1; i++ {
			arow := a[i*lda+kb : i*lda+kEnd]
			for j := j0; j < j1; j++ {
				var s float32
				for t, av := range arow {
					s += av * b[(kb+t)*ldb+j]
				}
				c[i*ldc+j] += s
			}
		}
		return
	}
	i := i0
	for ; i+1 < i1; i += 2 {
		arow0 := a[i*lda : i*lda+kEnd]
		arow1 := a[(i+1)*lda : (i+1)*lda+kEnd]
		crow0 := c[i*ldc+j0 : i*ldc+j1]
		crow1 := c[(i+1)*ldc+j0 : (i+1)*ldc+j1]
		crow1 = crow1[:len(crow0)]
		for t := kb; t < kEnd; t++ {
			a0, a1 := arow0[t], arow1[t]
			brow := b[t*ldb+j0 : t*ldb+j1]
			brow = brow[:len(crow0)] // lets the compiler drop the C index checks
			for j, bv := range brow {
				crow0[j] += a0 * bv
				crow1[j] += a1 * bv
			}
		}
	}
	if i < i1 {
		arow := a[i*lda : i*lda+kEnd]
		crow := c[i*ldc+j0 : i*ldc+j1]
		for t := kb; t < kEnd; t++ {
			av := arow[t]
			brow := b[t*ldb+j0 : t*ldb+j1]
			brow = brow[:len(crow)]
			for j, bv := range brow {
				crow[j] += av * bv
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
