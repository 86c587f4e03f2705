package dnn

import (
	"math"
	"math/rand"
	"testing"
)

// reluInputs are the edge values of the v > 0 rule — NaNs, signed zeros and
// infinities, the smallest subnormals and largest finite values of both
// signs — then 10⁴ seeded normals.
func reluInputs() []float32 {
	in := []float32{
		float32(math.NaN()), -float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		// The NaNs next to the infinities and at the top of the word.
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001),
		math.Float32frombits(0x7fffffff), math.Float32frombits(0xffffffff),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 10000; i++ {
		in = append(in, float32(rng.NormFloat64()))
	}
	return in
}

// The mask select of actLayer's ReLU gives, bit for bit, what the branch
// `if v > 0 { v } else { 0 }` gives, forward and backward.
func TestReLUMaskMatchesBranch(t *testing.T) {
	in := reluInputs()
	l, err := buildLayer(LayerSpec{Name: "relu", Kind: KindReLU}, Shape{C: 1, H: 1, W: len(in)})
	if err != nil {
		t.Fatal(err)
	}
	out := l.forward(in, 1)
	// The output gradient walks the inputs backwards, so each edge value
	// also meets a masked and an unmasked position.
	dOut := make([]float32, len(in))
	for i := range dOut {
		dOut[i] = in[len(in)-1-i]
	}
	dIn := l.backward(dOut, true)
	for i, v := range in {
		var wantOut, wantIn float32
		if v > 0 {
			wantOut = v
		}
		if wantOut > 0 {
			wantIn = dOut[i]
		}
		if math.Float32bits(out[i]) != math.Float32bits(wantOut) {
			t.Fatalf("forward(%v) = %v (%#08x), branch gives %v (%#08x)",
				v, out[i], math.Float32bits(out[i]), wantOut, math.Float32bits(wantOut))
		}
		if math.Float32bits(dIn[i]) != math.Float32bits(wantIn) {
			t.Fatalf("backward at %v with dOut %v = %v (%#08x), branch gives %v (%#08x)",
				v, dOut[i], dIn[i], math.Float32bits(dIn[i]), wantIn, math.Float32bits(wantIn))
		}
	}
}
