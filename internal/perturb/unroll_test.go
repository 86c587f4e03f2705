package perturb

import (
	"math"
	"math/rand"
	"testing"

	"modelhub/internal/dnn"
)

// unrollOracle is unroll element by element: every cell of cols sign-splits
// the input element it reads, or the zero padding. It is what unroll's
// split-once planes and shifted copies are checked against.
func unrollOracle(cols []float32, x ivals, in dnn.Shape, b, kh, kw, stride, pad, outH, outW int, neg bool) {
	kk := in.C * kh * kw
	n := b * outH * outW
	size, plane := in.Size(), in.H*in.W
	t := 0
	for ic := 0; ic < in.C; ic++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				lp := cols[2*t*n : (2*t+1)*n]
				hp := cols[(2*t+1)*n : (2*t+2)*n]
				var ln, hn []float32
				if neg {
					ln = cols[(2*kk+2*t)*n : (2*kk+2*t+1)*n]
					hn = cols[(2*kk+2*t+1)*n : (2*kk+2*t+2)*n]
				}
				t++
				j := 0
				for e := 0; e < b; e++ {
					base := e*size + ic*plane
					for oy := 0; oy < outH; oy++ {
						iy := oy*stride + ky - pad
						for ox := 0; ox < outW; ox++ {
							ix := ox*stride + kx - pad
							var vl, vh float32
							if iy >= 0 && iy < in.H && ix >= 0 && ix < in.W {
								vl, vh = x.lo[base+iy*in.W+ix], x.hi[base+iy*in.W+ix]
							}
							pl, nl := signSplit(vl)
							ph, nh := signSplit(vh)
							lp[j], hp[j] = pl, ph
							if neg {
								ln[j], hn[j] = nl, nh
							}
							j++
						}
					}
				}
			}
		}
	}
}

// salted returns n normal values salted with ±0, NaN and ±Inf.
func salted(rng *rand.Rand, n int) []float32 {
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1))}
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

// TestUnrollMatchesPerElementOracle checks unroll against unrollOracle bit
// for bit on every cell, with and without the x⁻ rows: same-size
// convolutions (the shifted-copy path, planes down to 1×1 under a 5×5
// kernel), other strides and pads, and full layers (one window over the
// whole input). cols starts as garbage, so an unwritten cell shows.
func TestUnrollMatchesPerElementOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 600; trial++ {
		b := 1 + rng.Intn(5)
		in := dnn.Shape{C: 1 + rng.Intn(3), H: 1 + rng.Intn(9), W: 1 + rng.Intn(9)}
		var kh, kw, stride, pad int
		switch trial % 3 {
		case 0: // same size
			kh = 1 + 2*rng.Intn(3)
			kw, stride, pad = kh, 1, (kh-1)/2
		case 1: // any conv
			kh = 1 + rng.Intn(5)
			kw, stride, pad = kh, 1+rng.Intn(2), rng.Intn(3)
		default: // full layer
			kh, kw, stride, pad = in.H, in.W, 1, 0
		}
		outH, outW := (in.H+2*pad-kh)/stride+1, (in.W+2*pad-kw)/stride+1
		if outH < 1 || outW < 1 {
			continue
		}
		x := ivals{lo: salted(rng, b*in.Size()), hi: salted(rng, b*in.Size())}
		n, kk := b*outH*outW, in.C*kh*kw
		for _, neg := range []bool{false, true} {
			depth := 2 * kk
			if neg {
				depth = 4 * kk
			}
			want := salted(rng, depth*n)
			got := append([]float32(nil), want...)
			unrollOracle(want, x, in, b, kh, kw, stride, pad, outH, outW, neg)
			split := salted(rng, depth/kk*b*in.H*in.W)
			unroll(got, split, x, in, b, kh, kw, stride, pad, outH, outW, neg)
			if !sameBits(got, want) {
				t.Fatalf("trial %d (b=%d %v k=%dx%d stride %d pad %d neg=%v): cols differ",
					trial, b, in, kh, kw, stride, pad, neg)
			}
		}
	}
}
