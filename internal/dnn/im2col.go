package dnn

import "modelhub/internal/tensor"

// im2col unrolls one example of shape s into its block of columns: channel
// ic of the example is the H×W plane at in[ic·chStride:], and the unroll
// (C·k·k × outH·outW) is written at row stride ldc into cols. Row
// (ic·k+ky)·k+kx, column oy·outW+ox holds in[ic, oy·stride+ky-pad,
// ox·stride+kx-pad], or 0 where that index falls in the padding. Every cell
// of the block is written, so a reused buffer needs no prior zeroing. The
// stride-1 common case copies contiguous input runs per output row. A
// same-size layer takes im2colSame instead; this path stays its own, as the
// per-example oracle (oracle_test.go) the batched layers are checked
// against runs on it.
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
						// Columns [left, right) read the input; both ends
						// are clamped, as a pad may be wider than the plane.
						ix0 := kx - pad // input x for ox = 0
						left := min(max(-ix0, 0), outW)
						right := max(min(w-ix0, outW), left)
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

// sameSize reports whether a k×k convolution at this stride and pad keeps
// its input's H×W: stride 1 and pad (k−1)/2, k odd. Such a layer unrolls
// the whole batch at once (im2colSame, col2imSame).
func sameSize(k, stride, pad int) bool {
	return stride == 1 && 2*pad == k-1
}

// im2colSame is im2col for a same-size convolution over a whole batch laid
// out [C][b][H·W], which is what its b per-example calls write: row
// (ic·k+ky)·k+kx of the C·k·k × b·H·W unroll is channel ic's b planes
// shifted by (ky−pad, kx−pad), one ShiftPlanes call per row.
func im2colSame(in []float32, s Shape, b int, cols []float32, k int) {
	n, pad := b*s.H*s.W, (k-1)/2
	row := 0
	for ic := 0; ic < s.C; ic++ {
		src := in[ic*n : (ic+1)*n]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				ShiftPlanes(cols[row*n:(row+1)*n], src, s.H, s.W, ky-pad, kx-pad)
				row++
			}
		}
	}
}

// col2imSame is im2colSame's adjoint and col2im over a whole batch, bit for
// bit: each row of dcols, its padding cells cleared first, is added into
// its channel of dIn as one shifted AddScaled. dcols is spent. A cleared
// cell adds +0 to a dIn element the per-example path leaves alone; dIn
// starts at +0 and a sum from +0 is never −0 under round-to-nearest, so
// adding +0 changes no bit. Every element still takes its terms in row
// order.
func col2imSame(dcols []float32, dIn []float32, s Shape, b, k int) {
	n, pad := b*s.H*s.W, (k-1)/2
	row := 0
	for ic := 0; ic < s.C; ic++ {
		dst := dIn[ic*n : (ic+1)*n]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := dcols[row*n : (row+1)*n]
				row++
				dy, dx := ky-pad, kx-pad
				clearOutside(src, s.H, s.W, dy, dx)
				// Cell j of src adds into dst[j+d]; cells with no such
				// element lie in the padding.
				if d := dy*s.W + dx; d >= 0 && d < n {
					tensor.AddScaled(dst[d:], src[:n-d], 1)
				} else if d < 0 && -d < n {
					tensor.AddScaled(dst[:n+d], src[-d:], 1)
				}
			}
		}
	}
}

// ShiftPlanes fills dst with src shifted by (dy, dx) within each h×w plane:
// both hold the same whole number of planes, and dst[p][y][x] is
// src[p][y+dy][x+dx], or +0 where that falls outside plane p. It is one
// copy of the whole run by d = dy·w+dx, after which the cells whose source
// crossed a plane's border are cleared; a shift wider than the plane clears
// it all. dst and src must not overlap.
func ShiftPlanes(dst, src []float32, h, w, dy, dx int) {
	n := len(dst)
	if d := dy*w + dx; d >= 0 && d < n {
		copy(dst[:n-d], src[d:])
	} else if d < 0 && -d < n {
		copy(dst[-d:], src[:n+d])
	}
	// A cell the copy did not reach has its source outside every plane,
	// so outside its own: clearOutside clears it too.
	clearOutside(dst, h, w, dy, dx)
}

// clearOutside zeroes the cells of a run of h×w planes whose source under
// a (dy, dx) shift lies outside their plane: |dy| border rows and |dx|
// edge columns of each plane, clamped to its size. Each edge column is one
// strided pass over every row of every plane. The border rows are one
// clear per plane, or, when they span fewer than 8 cells (the 3×3 and 6×6
// planes of the zoo's deeper convs), one strided pass per cell: on a batch
// of 16 that halved the cost on 3×3 planes against a clear per plane.
func clearOutside(r []float32, h, w, dy, dx int) {
	hw := h * w
	x0, x1 := 0, min(-dx, w) // dx < 0: the first −dx columns
	if dx > 0 {
		x0, x1 = max(w-dx, 0), w
	}
	for x := x0; x < x1; x++ {
		for i := x; i < len(r); i += w {
			r[i] = 0
		}
	}
	y0, y1 := 0, min(-dy, h)
	if dy > 0 {
		y0, y1 = max(h-dy, 0), h
	}
	if (y1-y0)*w < 8 {
		for o := y0 * w; o < y1*w; o++ {
			for i := o; i < len(r); i += hw {
				r[i] = 0
			}
		}
		return
	}
	for p := 0; p < len(r); p += hw {
		clear(r[p+y0*w : p+y1*w])
	}
}
