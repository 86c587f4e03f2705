package dnn

import (
	"math"
	"math/rand"
	"testing"
)

// TestMaxPoolMatchesPerExampleOracle checks batched max pooling, the
// branch-free 2×2 path and the generic loop alike, against the per-example
// oracle's scalar loop, bit for bit: outputs, the chosen input of every
// window, and the backward input gradient. Batches, channels and odd and
// even planes are random, K is 2 or 3 at its own stride or stride 1, and
// the inputs are salted with ±0 ties, NaN and ±Inf, plus whole windows of
// NaN and of −Inf. A select that let a later equal value win (>= for >)
// would pick +0 over an earlier −0 and a cell of an all −Inf window.
func TestMaxPoolMatchesPerExampleOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	negZero, nan := float32(math.Copysign(0, -1)), float32(math.NaN())
	inf, ninf := float32(math.Inf(1)), float32(math.Inf(-1))
	cells := []float32{0, negZero, 0, negZero, nan, inf, ninf, 1, 1}
	pairs := 0
	for trial := 0; trial < 400; trial++ {
		b, k := 1+rng.Intn(4), 2+rng.Intn(2)
		s := Shape{C: 1 + rng.Intn(3), H: k + rng.Intn(6), W: k + rng.Intn(6)}
		stride := 0 // the window's own size
		if rng.Intn(4) == 0 {
			stride = 1
		}
		if k == 2 && stride == 0 && s.H%2 == 0 && s.W%2 == 0 {
			pairs++
		}
		l, err := buildLayer(LayerSpec{Name: "pool", Kind: KindPool, K: k, Stride: stride, Mode: PoolMax}, s)
		if err != nil {
			t.Fatal(err)
		}
		pool := l.(*poolLayer)
		in := make([]float32, s.Size()*b)
		for i := range in {
			if rng.Intn(3) == 0 {
				in[i] = float32(rng.NormFloat64())
			} else {
				in[i] = cells[rng.Intn(len(cells))]
			}
		}
		// Whole windows of NaN or −Inf, at the window grid's own offsets.
		hw, step := s.H*s.W, pool.stride
		for plane := 0; plane < s.C*b; plane++ {
			if rng.Intn(2) == 0 {
				continue
			}
			fill := []float32{nan, ninf}[rng.Intn(2)]
			y0, x0 := step*rng.Intn(l.OutShape().H), step*rng.Intn(l.OutShape().W)
			for y := y0; y < min(y0+k, s.H); y++ {
				for x := x0; x < min(x0+k, s.W); x++ {
					in[plane*hw+y*s.W+x] = fill
				}
			}
		}
		out := append([]float32(nil), l.forward(in, b)...)
		argmax := append([]int32(nil), pool.argmax...)
		dOut := make([]float32, len(out))
		specialFloats(rng, dOut)
		dIn := l.backward(dOut, true)

		outS := l.OutShape()
		for e := 0; e < b; e++ {
			o := newOracle(nil)
			x := NewVolume(s)
			copyExample(x.Data, in, s, b, e, false)
			want := o.layerForward(l, x)
			got := NewVolume(outS)
			copyExample(got.Data, out, outS, b, e, false)
			if !equalBits(got.Data, want.Data) {
				t.Fatalf("trial %d (b=%d %v k=%d stride=%d) example %d: outputs differ", trial, b, s, k, pool.stride, e)
			}
			// The oracle indexes its own example's volume, the batch the
			// [C][b][H·W] layout: map each batch index to the example's.
			for ch := 0; ch < outS.C; ch++ {
				for p := 0; p < outS.H*outS.W; p++ {
					idx := int(argmax[(ch*b+e)*outS.H*outS.W+p])
					if idx >= 0 {
						idx = idx/(b*hw)*hw + idx%hw
					}
					if wantIdx := o.cache["pool"].argmax[ch*outS.H*outS.W+p]; idx != wantIdx {
						t.Fatalf("trial %d (b=%d %v k=%d stride=%d) example %d: output %d,%d chose %d, oracle %d",
							trial, b, s, k, pool.stride, e, ch, p, idx, wantIdx)
					}
				}
			}
			d := NewVolume(outS)
			copyExample(d.Data, dOut, outS, b, e, false)
			wantIn := o.layerBackward(l, d)
			gotIn := NewVolume(s)
			copyExample(gotIn.Data, dIn, s, b, e, false)
			if !equalBits(gotIn.Data, wantIn.Data) {
				t.Fatalf("trial %d (b=%d %v k=%d stride=%d) example %d: input gradients differ", trial, b, s, k, pool.stride, e)
			}
		}
	}
	if pairs < 25 {
		t.Fatalf("only %d trials took the 2×2 path", pairs)
	}
}
