//go:build purego || !amd64

package tensor

// useAVX2 is always false without the assembly kernel: every GEMM runs the
// pure-Go loops.
var useAVX2 = false

func gemmKernel4(k, n int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, fresh bool) {
	panic("tensor: no assembly GEMM kernel in this build")
}
