package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// withKernel runs f with useAVX2 set to avx, restoring it afterwards. With
// avx true on a machine or build without the assembly kernel it skips.
func withKernel(t testing.TB, avx bool, f func()) {
	t.Helper()
	prev := useAVX2
	if avx && !prev {
		t.Skip("no AVX2 kernel on this machine or build")
	}
	useAVX2 = avx
	defer func() { useAVX2 = prev }()
	f()
}

// kernelCase is one strided multiply: C (m×n) += A (m×k) · B (k×n). Each
// operand's row stride is its row length plus its pad. The NT form runs it
// as a batch of batch such products, each k deep, side by side in A and Bᵀ.
type kernelCase struct {
	m, n, k          int
	batch            int
	padA, padB, padC int
	acc              bool
}

// randFloats returns n standard-normal floats.
func randFloats(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// strided returns a rows×cols block at row stride cols+pad, filled by f.
func strided(rows, cols, pad int, f func(i, j int) float32) ([]float32, int) {
	ld := cols + pad
	out := make([]float32, max(0, (rows-1)*ld+cols))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[i*ld+j] = f(i, j)
		}
	}
	return out, ld
}

// runEntryPoints runs one case through all three entry points and returns
// their C buffers. The TN form reads A through its transpose and the NT form
// reads B through its transpose; with a batch of one all three compute the
// same product, and with more the NT form sums the batch's products.
func runEntryPoints(c kernelCase, seed int64) [3][]float32 {
	rng := rand.New(rand.NewSource(seed))
	bk := max(c.batch, 1) * c.k // the NT form's depth, all examples
	av, bv := randFloats(rng, c.m*bk), randFloats(rng, bk*c.n)
	a, lda := strided(c.m, c.k, c.padA, func(i, t int) float32 { return av[i*bk+t] })
	at, ldat := strided(c.k, c.m, c.padA, func(t, i int) float32 { return av[i*bk+t] })
	b, ldb := strided(c.k, c.n, c.padB, func(t, j int) float32 { return bv[t*c.n+j] })
	ab, ldab := strided(c.m, bk, c.padA, func(i, t int) float32 { return av[i*bk+t] })
	bt, ldbt := strided(c.n, bk, c.padB, func(j, t int) float32 { return bv[t*c.n+j] })
	c0, ldc := strided(c.m, c.n, c.padC, func(int, int) float32 { return float32(rng.NormFloat64()) })
	var out [3][]float32
	for e := range out {
		out[e] = append([]float32(nil), c0...)
	}
	GemmStrided(c.m, c.n, c.k, a, lda, b, ldb, out[0], ldc, c.acc)
	GemmTNStrided(c.m, c.n, c.k, at, ldat, b, ldb, out[1], ldc, c.acc)
	GemmNTStrided(c.batch, c.m, c.n, c.k, ab, ldab, bt, ldbt, out[2], ldc, c.acc)
	return out
}

// checkKernels runs a case on the Go kernel and on the assembly kernel and
// fails unless all three entry points give the same bits on both.
func checkKernels(t testing.TB, c kernelCase, seed int64) {
	t.Helper()
	var goOut, asmOut [3][]float32
	withKernel(t, false, func() { goOut = runEntryPoints(c, seed) })
	withKernel(t, true, func() { asmOut = runEntryPoints(c, seed) })
	for e, name := range []string{"GemmStrided", "GemmTNStrided", "GemmNTStrided"} {
		for i := range goOut[e] {
			if math.Float32bits(goOut[e][i]) != math.Float32bits(asmOut[e][i]) {
				t.Fatalf("%s %+v: element %d is %v on the assembly kernel, %v on the Go kernel",
					name, c, i, asmOut[e][i], goOut[e][i])
			}
		}
	}
}

// TestGemmKernelsBitIdentical: the assembly micro-kernel and the pure-Go
// kernel give the same bits on every entry point, over sizes that hit every
// edge of the 4×16 tile (0, 1, odd, and a large multiple), row strides
// wider than the rows, both accumulate modes, and NT batches (whose
// products the kernel sums from zero and adds on store).
func TestGemmKernelsBitIdentical(t *testing.T) {
	sizes := []int{0, 1, 3, 4, 7, 8, 15, 16, 17, 33, 131}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		m, n, k := sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]
		c := kernelCase{m: m, n: n, k: k, batch: 1 + rng.Intn(3),
			padA: rng.Intn(3), padB: rng.Intn(3), padC: rng.Intn(3), acc: rng.Intn(2) == 0}
		checkKernels(t, c, int64(trial))
	}
	// Deep enough to cross k panels, wide enough to fork bands.
	checkKernels(t, kernelCase{m: 70, n: 600, k: 300, batch: 2, padA: 1, padC: 3, acc: true}, 1)
	checkKernels(t, kernelCase{m: 9, n: 40, k: 1100, batch: 1, padB: 1}, 2)
}

// FuzzGemmKernels extends TestGemmKernelsBitIdentical to fuzzed shapes.
func FuzzGemmKernels(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint8(9), uint8(1), uint8(0), uint8(0), uint8(0), true, int64(1))
	f.Add(uint8(13), uint8(37), uint8(1), uint8(2), uint8(2), uint8(1), uint8(3), false, int64(2))
	f.Add(uint8(24), uint8(144), uint8(9), uint8(16), uint8(0), uint8(0), uint8(1), true, int64(3))
	f.Fuzz(func(t *testing.T, m, n, k, batch, padA, padB, padC uint8, acc bool, seed int64) {
		checkKernels(t, kernelCase{m: int(m % 40), n: int(n % 160), k: int(k % 70), batch: int(batch % 17),
			padA: int(padA % 4), padB: int(padB % 4), padC: int(padC % 4), acc: acc}, seed)
	})
}

// TestGemmNTNaNPayloadsAgree: when two NaNs with different payloads meet
// in one add, the two kernels keep the same payload. Three adds can meet
// two NaNs: a plain multiply's per-k add of a NaN product into a NaN C, a
// fresh sum's per-k add of a NaN product into a sum already NaN, and NT's
// add of a NaN sum into a NaN C on store. Random normals never reach these
// cases.
func TestGemmNTNaNPayloadsAgree(t *testing.T) {
	const m, n, k = 24, 24, 3 // a 16-wide and an 8-wide tile in each mode
	nan := func(payload uint32) float32 { return math.Float32frombits(0x7fc00000 | payload) }
	cases := []struct {
		name string
		nt   bool      // GemmNTStrided (fresh sums added on store) or GemmStrided (plain)
		c    float32   // every element of C
		nans []float32 // A[i][0], A[i][1], ... of every row, before the ones
		// regS: the Go twin's order for this add holds only while s lives in
		// a register. The race build spills s to the stack and compiles
		// s += a*b with the product as the first source.
		regS bool
	}{
		{"plain NaN product into NaN C", false, nan(1), []float32{nan(2)}, false},
		{"plain two NaN products", false, 0, []float32{nan(2), nan(3)}, false},
		{"fresh two NaN products in one sum", true, 0, []float32{nan(2), nan(3)}, true},
		{"NT store NaN sum into NaN C", true, nan(1), []float32{nan(2)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.regS && raceEnabled {
				t.Skip("the race build's Go twin keeps s on the stack and adds the other way round")
			}
			run := func(avx bool) (c []float32) {
				withKernel(t, avx, func() {
					a, b := make([]float32, m*k), make([]float32, n*k)
					for i := range a {
						a[i] = 1
					}
					for i := range b {
						b[i] = 1
					}
					for i := 0; i < m; i++ {
						copy(a[i*k:], tc.nans)
					}
					c = make([]float32, m*n)
					for i := range c {
						c[i] = tc.c
					}
					if tc.nt {
						GemmNTStrided(1, m, n, k, a, k, b, k, c, n, true)
					} else {
						GemmStrided(m, n, k, a, k, b, n, c, n, true)
					}
				})
				return c
			}
			goOut, asmOut := run(false), run(true)
			for i := range goOut {
				if math.Float32bits(goOut[i]) != math.Float32bits(asmOut[i]) {
					t.Fatalf("element %d is %08x on the assembly kernel, %08x on the Go kernel",
						i, math.Float32bits(asmOut[i]), math.Float32bits(goOut[i]))
				}
			}
		})
	}
}

// TestGemmShortSlicePanicsInGo: an operand one element too short for its
// shape and stride panics with Go's bounds check on either kernel, before
// the assembly could read or write past it.
func TestGemmShortSlicePanicsInGo(t *testing.T) {
	const m, n, k = 8, 32, 16
	for _, avx := range []bool{false, true} {
		for _, short := range []string{"a", "b", "c"} {
			withKernel(t, avx, func() {
				rng := rand.New(rand.NewSource(5))
				a, b, c := randFloats(rng, m*k), randFloats(rng, k*n), make([]float32, m*n)
				cut := func(s []float32) []float32 { return s[: len(s)-1 : len(s)-1] }
				switch short {
				case "a":
					a = cut(a)
				case "b":
					b = cut(b)
				case "c":
					c = cut(c)
				}
				defer func() {
					if _, ok := recover().(interface{ RuntimeError() }); !ok {
						t.Fatalf("avx=%v: short %s did not raise a Go runtime panic", avx, short)
					}
				}()
				GemmStrided(m, n, k, a, k, b, n, c, n, true)
			})
		}
	}
}

// TestGemmNTWarmAllocs: a warm GemmNTStrided takes its packed Aᵀ and its
// running sum from the pool and allocates nothing.
func TestGemmNTWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	rng := rand.New(rand.NewSource(6))
	const batch, m, n, k = 4, 16, 72, 36
	a, b, c := randFloats(rng, m*batch*k), randFloats(rng, n*batch*k), make([]float32, m*n)
	call := func() { GemmNTStrided(batch, m, n, k, a, batch*k, b, batch*k, c, n, true) }
	call()
	if allocs := testing.AllocsPerRun(50, call); allocs != 0 {
		t.Fatalf("warm GemmNTStrided allocates %.1f objects per call, want 0", allocs)
	}
}
