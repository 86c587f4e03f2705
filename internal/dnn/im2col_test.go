package dnn

import (
	"math"
	"math/rand"
	"testing"
)

// forwardNaive is the six-deep scalar convolution loop, the oracle the
// im2col/GEMM kernel is checked against: per output element, bias first, then
// terms in (ic, ky, kx) order.
func forwardNaive(l *convLayer, in *Volume) *Volume {
	out := NewVolume(l.out)
	k, pad := l.spec.K, l.spec.Pad
	biasCol := l.w.Cols() - 1
	for oc := 0; oc < l.out.C; oc++ {
		wrow := l.w.Row(oc)
		for oy := 0; oy < l.out.H; oy++ {
			for ox := 0; ox < l.out.W; ox++ {
				sum := wrow[biasCol]
				for ic := 0; ic < l.in.C; ic++ {
					for ky := 0; ky < k; ky++ {
						iy := oy*l.stride + ky - pad
						if iy < 0 || iy >= l.in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*l.stride + kx - pad
							if ix < 0 || ix >= l.in.W {
								continue
							}
							sum += wrow[(ic*k+ky)*k+kx] * in.At(ic, iy, ix)
						}
					}
				}
				out.Set(oc, oy, ox, sum)
			}
		}
	}
	return out
}

// backwardNaive is forwardNaive's adjoint: it accumulates the weight and bias
// gradients of input in under dOut into l.g and returns the input gradient.
func backwardNaive(l *convLayer, in, dOut *Volume) *Volume {
	dIn := NewVolume(l.in)
	k, pad := l.spec.K, l.spec.Pad
	biasCol := l.w.Cols() - 1
	for oc := 0; oc < l.out.C; oc++ {
		wrow := l.w.Row(oc)
		grow := l.g.Row(oc)
		for oy := 0; oy < l.out.H; oy++ {
			for ox := 0; ox < l.out.W; ox++ {
				d := dOut.At(oc, oy, ox)
				if d == 0 {
					continue
				}
				grow[biasCol] += d
				for ic := 0; ic < l.in.C; ic++ {
					for ky := 0; ky < k; ky++ {
						iy := oy*l.stride + ky - pad
						if iy < 0 || iy >= l.in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*l.stride + kx - pad
							if ix < 0 || ix >= l.in.W {
								continue
							}
							idx := (ic*k+ky)*k + kx
							grow[idx] += d * in.At(ic, iy, ix)
							dIn.Data[(ic*l.in.H+iy)*l.in.W+ix] += d * wrow[idx]
						}
					}
				}
			}
		}
	}
	return dIn
}

// newConvPair builds two identically-weighted conv layers for the same spec
// so the im2col kernel and the naive reference can be run side by side.
func newConvPair(t *testing.T, spec LayerSpec, in Shape, rng *rand.Rand) (a, b *convLayer) {
	t.Helper()
	mk := func() *convLayer {
		l, err := buildLayer(spec, in)
		if err != nil {
			t.Fatalf("buildLayer(%+v, %v): %v", spec, in, err)
		}
		return l.(*convLayer)
	}
	a, b = mk(), mk()
	w := a.w.Data()
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	copy(b.w.Data(), w)
	return a, b
}

func randVol(rng *rand.Rand, s Shape) *Volume {
	v := NewVolume(s)
	for i := range v.Data {
		v.Data[i] = float32(rng.NormFloat64())
	}
	return v
}

// TestConvIm2colMatchesNaive is the kernel-equivalence property test: across
// random shapes, strides, and pads (including pad > 0 and stride > 1), the
// im2col/GEMM kernel must reproduce the naive six-loop kernel
//
//   - bit-exactly for the forward output, the weight gradient, and the bias
//     gradient (the GEMM sums every output element in the naive kernel's
//     exact term order, and zero-padding terms add exact zeros), and
//   - within a small relative tolerance for the input gradient: dIn flows
//     through the intermediate dcols = Wᵀ·dOut matrix, which sums the same
//     terms under a different association (per-pixel over output channels
//     first), so the two kernels round differently at the last ULPs.
//
// Gradients are compared after a single backward pass from zeroed
// accumulators; accumulating further passes re-associates the running sums.
func TestConvIm2colMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		inShape := Shape{C: 1 + rng.Intn(3), H: 3 + rng.Intn(8), W: 3 + rng.Intn(8)}
		spec := LayerSpec{
			Name: "conv", Kind: KindConv,
			Out:    1 + rng.Intn(4),
			K:      1 + rng.Intn(3),
			Stride: 1 + rng.Intn(2),
			Pad:    rng.Intn(3),
		}
		if _, err := spec.OutShape(inShape); err != nil {
			continue // degenerate geometry; not a valid layer
		}
		fast, naive := newConvPair(t, spec, inShape, rng)
		in := randVol(rng, inShape)

		outFast := forward1(fast, in)
		outNaive := forwardNaive(naive, in)
		if !equalBits(outFast.Data, outNaive.Data) {
			t.Fatalf("trial %d (%+v in %v): forward differs", trial, spec, inShape)
		}

		dOut := randVol(rng, fast.OutShape())
		dInFast := backward1(fast, dOut)
		dInNaive := backwardNaive(naive, in, dOut)

		if !fast.g.Equal(naive.g) {
			t.Fatalf("trial %d (%+v in %v): weight gradient differs", trial, spec, inShape)
		}
		if !approxEqualRel(dInFast.Data, dInNaive.Data, 1e-5) {
			t.Fatalf("trial %d (%+v in %v): input gradient differs beyond tolerance", trial, spec, inShape)
		}
	}
}

// TestConvIm2colStridePadEdges pins the awkward geometries explicitly.
func TestConvIm2colStridePadEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		in   Shape
		spec LayerSpec
	}{
		{Shape{C: 2, H: 7, W: 7}, LayerSpec{Name: "c", Kind: KindConv, Out: 3, K: 3, Stride: 2, Pad: 0}},
		{Shape{C: 2, H: 7, W: 7}, LayerSpec{Name: "c", Kind: KindConv, Out: 3, K: 3, Stride: 2, Pad: 2}},
		{Shape{C: 1, H: 5, W: 5}, LayerSpec{Name: "c", Kind: KindConv, Out: 2, K: 5, Stride: 1, Pad: 2}},
		{Shape{C: 3, H: 4, W: 6}, LayerSpec{Name: "c", Kind: KindConv, Out: 2, K: 1, Stride: 2, Pad: 0}},
		{Shape{C: 1, H: 3, W: 3}, LayerSpec{Name: "c", Kind: KindConv, Out: 1, K: 3, Stride: 1, Pad: 2}},
	}
	for _, c := range cases {
		fast, naive := newConvPair(t, c.spec, c.in, rng)
		in := randVol(rng, c.in)
		dOut := randVol(rand.New(rand.NewSource(9)), fast.OutShape())
		outFast := forward1(fast, in)
		dInFast := backward1(fast, dOut)
		outNaive := forwardNaive(naive, in)
		dInNaive := backwardNaive(naive, in, dOut)
		if !equalBits(outFast.Data, outNaive.Data) {
			t.Fatalf("%+v in %v: forward differs", c.spec, c.in)
		}
		if !fast.g.Equal(naive.g) {
			t.Fatalf("%+v in %v: weight gradient differs", c.spec, c.in)
		}
		if !approxEqualRel(dInFast.Data, dInNaive.Data, 1e-5) {
			t.Fatalf("%+v in %v: input gradient differs", c.spec, c.in)
		}
	}
}

// specialFloats fills v with normal values salted with −0, NaN and ±Inf.
func specialFloats(rng *rand.Rand, v []float32) {
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0}
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = float32(rng.NormFloat64())
		}
	}
}

// TestSameSizeUnrollMatchesPerExample checks the batch-wide unroll of a
// same-size convolution against the per-example im2col and col2im looped
// over the batch, bit for bit, on every cell of cols and dIn: planes down
// to 1×1 (narrower than a 5×5 kernel's pad), and inputs and gradients
// salted with −0, NaN and ±Inf. Both cols buffers start as garbage, so a
// cell either path fails to write shows.
func TestSameSizeUnrollMatchesPerExample(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 400; trial++ {
		b, k := 1+rng.Intn(5), 1+2*rng.Intn(3)
		s := Shape{C: 1 + rng.Intn(3), H: 1 + rng.Intn(9), W: 1 + rng.Intn(9)}
		pad, hw := (k-1)/2, s.H*s.W
		n, kk := b*hw, s.C*k*k
		in := make([]float32, s.C*n)
		specialFloats(rng, in)

		want, got := make([]float32, kk*n), make([]float32, kk*n)
		specialFloats(rng, want)
		copy(got, want)
		for e := 0; e < b; e++ {
			im2col(in[e*hw:], s, n, want[e*hw:], n, k, 1, pad, s.H, s.W)
		}
		im2colSame(in, s, b, got, k)
		if !equalBits(got, want) {
			t.Fatalf("trial %d (b=%d %v k=%d): cols differ", trial, b, s, k)
		}

		dcols := make([]float32, kk*n)
		specialFloats(rng, dcols)
		dWant, dGot := make([]float32, s.C*n), make([]float32, s.C*n)
		for e := 0; e < b; e++ {
			col2im(dcols[e*hw:], n, dWant[e*hw:], s, n, k, 1, pad, s.H, s.W)
		}
		col2imSame(dcols, dGot, s, b, k)
		if !equalBits(dGot, dWant) {
			t.Fatalf("trial %d (b=%d %v k=%d): dIn differs", trial, b, s, k)
		}
	}
}

// BenchmarkConvKernels times one 8→12-channel 3×3 convolution over a 24×24
// input on the product kernel and on the six-loop reference, then a
// batch-16 forward + backward of alexnet-mini's conv1 (1→8 at 12×12) and
// conv3 (16→24 at 3×3), the shapes the evaluate grid trains, and of its
// pool1 and pool2.
func BenchmarkConvKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	inShape := Shape{C: 8, H: 24, W: 24}
	spec := LayerSpec{Name: "conv", Kind: KindConv, Out: 12, K: 3, Stride: 1, Pad: 1}
	l, err := buildLayer(spec, inShape)
	if err != nil {
		b.Fatal(err)
	}
	conv := l.(*convLayer)
	for i := range conv.w.Data() {
		conv.w.Data()[i] = float32(rng.NormFloat64())
	}
	in := randVol(rng, inShape)
	b.Run("im2col", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			forward1(conv, in)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			forwardNaive(conv, in)
		}
	})
	const batch = 16
	for _, c := range []struct {
		name string
		in   Shape
		out  int
	}{
		{"alexnet-conv1-b16", Shape{C: 1, H: 12, W: 12}, 8},
		{"alexnet-conv3-b16", Shape{C: 16, H: 3, W: 3}, 24},
	} {
		spec := LayerSpec{Name: "conv", Kind: KindConv, Out: c.out, K: 3, Stride: 1, Pad: 1}
		l, err := buildLayer(spec, c.in)
		if err != nil {
			b.Fatal(err)
		}
		conv := l.(*convLayer)
		for i := range conv.w.Data() {
			conv.w.Data()[i] = float32(rng.NormFloat64())
		}
		x := randVol(rng, Shape{C: c.in.C * batch, H: c.in.H, W: c.in.W}).Data
		dOut := randVol(rng, Shape{C: c.out * batch, H: c.in.H, W: c.in.W}).Data
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conv.forward(x, batch)
				conv.backward(dOut, true)
			}
		})
	}
	// alexnet-mini's 2×2 max pools at batch 16, on ReLU outputs as there:
	// about half of each window is +0. The forward cycles through 32 inputs,
	// as training sees new activations every step: on one input repeated,
	// the branch predictor learns the windows and a mispredicting select
	// looks fast.
	for _, c := range []struct {
		name string
		in   Shape
	}{
		{"alexnet-pool1-b16", Shape{C: 8, H: 12, W: 12}},
		{"alexnet-pool2-b16", Shape{C: 16, H: 6, W: 6}},
	} {
		l, err := buildLayer(LayerSpec{Name: "pool", Kind: KindPool, K: 2, Mode: PoolMax}, c.in)
		if err != nil {
			b.Fatal(err)
		}
		xs := make([][]float32, 32)
		for i := range xs {
			xs[i] = randVol(rng, Shape{C: c.in.C * batch, H: c.in.H, W: c.in.W}).Data
			for j, v := range xs[i] {
				xs[i][j] = max(v, 0)
			}
		}
		out := l.OutShape()
		dOut := randVol(rng, Shape{C: out.C * batch, H: out.H, W: out.W}).Data
		b.Run(c.name+"-forward", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.forward(xs[i%len(xs)], batch)
			}
		})
		b.Run(c.name+"-backward", func(b *testing.B) {
			l.forward(xs[0], batch)
			for i := 0; i < b.N; i++ {
				l.backward(dOut, true)
			}
		})
	}
}

// TestFullLayerKernelMatchesScalar guards the fullLayer GEMM/axpy routing
// against the original scalar loops.
func TestFullLayerKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := Shape{C: 5, H: 3, W: 2}
	spec := LayerSpec{Name: "ip", Kind: KindFull, Out: 7}
	l, err := buildLayer(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	fl := l.(*fullLayer)
	for i := range fl.w.Data() {
		fl.w.Data()[i] = float32(rng.NormFloat64())
	}
	x := randVol(rng, in)
	out := forward1(fl, x)
	biasCol := fl.w.Cols() - 1
	for o := 0; o < spec.Out; o++ {
		row := fl.w.Row(o)
		sum := row[biasCol]
		for i, v := range x.Data {
			sum += row[i] * v
		}
		if math.Float32bits(sum) != math.Float32bits(out.Data[o]) {
			t.Fatalf("out[%d] = %v, scalar loop gives %v", o, out.Data[o], sum)
		}
	}
}

func equalBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func approxEqualRel(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		scale := math.Max(1, math.Max(math.Abs(float64(a[i])), math.Abs(float64(b[i]))))
		if d/scale > tol {
			return false
		}
	}
	return true
}
