package dnn

import "modelhub/internal/tensor"

// im2col unrolls one example of shape s into its block of columns: channel
// ic of the example is the H×W plane at in[ic·chStride:], and the unroll
// (C·k·k × outH·outW) is written at row stride ldc into cols. Row
// (ic·k+ky)·k+kx, column oy·outW+ox holds in[ic, oy·stride+ky-pad,
// ox·stride+kx-pad], or 0 where that index falls in the padding. Every cell
// of the block is written, so a reused buffer needs no prior zeroing. The
// stride-1 common case copies contiguous input runs per output row.
func im2col(in []float32, s Shape, chStride int, cols []float32, ldc, k, stride, pad, outH, outW int) {
	h, w := s.H, s.W
	n := outH * outW
	row := 0
	for ic := 0; ic < s.C; ic++ {
		chOff := ic * chStride
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := cols[row*ldc : row*ldc+n]
				row++
				di := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						for ox := 0; ox < outW; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					src := in[chOff+iy*w : chOff+(iy+1)*w]
					if stride == 1 {
						ix0 := kx - pad // input x for ox = 0
						left, right := 0, outW
						if -ix0 > left {
							left = -ix0
						}
						if w-ix0 < right {
							right = w - ix0
						}
						for ox := 0; ox < left; ox++ {
							dst[di+ox] = 0
						}
						if right > left {
							copy(dst[di+left:di+right], src[ix0+left:ix0+right])
						}
						for ox := right; ox < outW; ox++ {
							dst[di+ox] = 0
						}
						di += outW
					} else {
						for ox := 0; ox < outW; ox++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								dst[di] = 0
							} else {
								dst[di] = src[ix]
							}
							di++
						}
					}
				}
			}
		}
	}
}

// col2im scatter-adds one example's block of columns back into its input
// gradient, laid out as im2col reads its input: the adjoint of im2col, so
// overlapping windows accumulate.
func col2im(cols []float32, ldc int, dIn []float32, s Shape, chStride, k, stride, pad, outH, outW int) {
	h, w := s.H, s.W
	n := outH * outW
	row := 0
	for ic := 0; ic < s.C; ic++ {
		chOff := ic * chStride
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := cols[row*ldc : row*ldc+n]
				row++
				si := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						si += outW
						continue
					}
					dst := dIn[chOff+iy*w : chOff+(iy+1)*w]
					if stride == 1 {
						ix0 := kx - pad
						left, right := 0, outW
						if -ix0 > left {
							left = -ix0
						}
						if w-ix0 < right {
							right = w - ix0
						}
						if right > left {
							tensor.AddScaled(dst[ix0+left:ix0+right], src[si+left:si+right], 1)
						}
						si += outW
					} else {
						for ox := 0; ox < outW; ox++ {
							ix := ox*stride + kx - pad
							if ix >= 0 && ix < w {
								dst[ix] += src[si]
							}
							si++
						}
					}
				}
			}
		}
	}
}
