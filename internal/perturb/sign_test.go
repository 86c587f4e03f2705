package perturb

import (
	"math"
	"math/rand"
	"testing"

	"modelhub/internal/dnn"
)

// signInputs are the edge values of the v > 0 and v < 0 rules — NaNs, signed
// zeros and infinities, the smallest subnormals and largest finite values of
// both signs — then 10⁴ seeded normals.
func signInputs() []float32 {
	in := []float32{
		float32(math.NaN()), -float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		// The NaNs next to the infinities and at the top of the word.
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001),
		math.Float32frombits(0x7fffffff), math.Float32frombits(0xffffffff),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 10000; i++ {
		in = append(in, float32(rng.NormFloat64()))
	}
	return in
}

// The mask selects of signSplit and the ReLU of activate give, bit for bit,
// what branching on v > 0 and v < 0 gives, with +0 for every zero part.
func TestSignMasksMatchBranch(t *testing.T) {
	in := signInputs()
	sc := getScratch()
	defer sc.release()
	sc.used = 0
	relu := activate(sc, dnn.KindReLU, ivals{lo: in, hi: in})
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	for i, v := range in {
		var wantPos, wantNeg float32
		switch {
		case v > 0:
			wantPos = v
		case v < 0:
			wantNeg = v
		}
		pos, neg := signSplit(v)
		if !same(pos, wantPos) || !same(neg, wantNeg) {
			t.Fatalf("signSplit(%v) = (%v, %v) bits (%#08x, %#08x), branch gives (%v, %v)",
				v, pos, neg, math.Float32bits(pos), math.Float32bits(neg), wantPos, wantNeg)
		}
		if !same(relu.lo[i], wantPos) || !same(relu.hi[i], wantPos) {
			t.Fatalf("relu(%v) = [%v, %v], branch gives %v", v, relu.lo[i], relu.hi[i], wantPos)
		}
	}
}
