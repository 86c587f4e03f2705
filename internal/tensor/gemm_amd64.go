//go:build !purego

package tensor

// useAVX2 routes the GEMM inner loops through the assembly micro-kernel
// (gemm_amd64.s). It is decided once, at package init, from CPUID: AVX2 on
// the CPU and YMM state enabled by the OS. Tests clear it to run the pure-Go
// kernel on the same inputs.
var useAVX2 = hasAVX2()

// hasAVX2 reports AVX2 support: CPUID.1:ECX has OSXSAVE and AVX,
// XGETBV(0) shows the OS saves XMM and YMM state, and CPUID.(7,0):EBX has
// AVX2.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// gemmKernel4 computes C[0:4][0:n] += A[0:4][0:k]·B[0:k][0:n] for n a
// positive multiple of 8 and k >= 1 (see gemm_amd64.s), with fresh summing
// each product from zero before adding it to C. It does no bounds checking;
// gemmTile4 does it in Go first.
//
//go:noescape
func gemmKernel4(k, n int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, fresh bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
