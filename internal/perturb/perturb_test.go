package perturb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"modelhub/internal/data"
	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// testNet builds a small trained-ish (random) network covering every layer
// kind the evaluator supports.
func testNet(t *testing.T, seed int64) (*dnn.NetDef, *dnn.Network) {
	t.Helper()
	def := dnn.ChainDef("p", 2, 6, 6, 4,
		dnn.LayerSpec{Name: "conv1", Kind: dnn.KindConv, Out: 3, K: 3, Pad: 1},
		dnn.LayerSpec{Name: "relu1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "poolm", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "conv2", Kind: dnn.KindConv, Out: 4, K: 2},
		dnn.LayerSpec{Name: "sig", Kind: dnn.KindSigmoid},
		dnn.LayerSpec{Name: "poola", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolAvg},
		dnn.LayerSpec{Name: "ip1", Kind: dnn.KindFull, Out: 8},
		dnn.LayerSpec{Name: "tanh1", Kind: dnn.KindTanh},
		dnn.LayerSpec{Name: "ip2", Kind: dnn.KindFull, Out: 4},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
	n, err := dnn.Build(def, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return def, n
}

func randIn(seed int64, s dnn.Shape) *dnn.Volume {
	rng := rand.New(rand.NewSource(seed))
	v := dnn.NewVolume(s)
	for i := range v.Data {
		v.Data[i] = float32(rng.NormFloat64())
	}
	return v
}

// With exact (degenerate) weight bounds the interval forward pass must
// reproduce the plain forward pass logits exactly-ish (same arithmetic,
// modulo float64 accumulation differences).
func TestExactBoundsMatchPlainForward(t *testing.T) {
	def, n := testNet(t, 1)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	in := randIn(2, dnn.Shape{C: 2, H: 6, W: 6})
	lo, hi, err := ev.Forward(in, ExactWeights(n.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	want := n.Logits(in)
	for i := range want.Data {
		if absf(lo[i]-want.Data[i]) > 1e-4 || absf(hi[i]-want.Data[i]) > 1e-4 {
			t.Fatalf("logit %d: plain %v, interval [%v,%v]", i, want.Data[i], lo[i], hi[i])
		}
	}
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// Soundness: with weights segmented into byte planes, the interval output
// must always contain the true logits, at every prefix.
func TestIntervalSoundnessAcrossPrefixes(t *testing.T) {
	def, n := testNet(t, 3)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	in := randIn(4, dnn.Shape{C: 2, H: 6, W: 6})
	want := n.Logits(in)
	for prefix := 1; prefix <= 4; prefix++ {
		w, err := fetch(ev.params, src, prefix)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := ev.Forward(in, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			// Allow a hair of accumulation slack.
			if !(lo[i] <= want.Data[i]+1e-4 && want.Data[i] <= hi[i]+1e-4) {
				t.Fatalf("prefix %d logit %d: %v outside [%v,%v]", prefix, i, want.Data[i], lo[i], hi[i])
			}
		}
	}
}

// Property: random weights sampled inside the bounds always produce logits
// inside the interval output.
func TestIntervalContainsSampledWeightsProperty(t *testing.T) {
	def, n := testNet(t, 5)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	in := randIn(6, dnn.Shape{C: 2, H: 6, W: 6})

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build bounds: weight ± u for random u, then sample weights inside.
		w := WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
		sampled := map[string]*tensor.Matrix{}
		for name, m := range snap {
			lo := m.Clone()
			hi := m.Clone()
			sm := m.Clone()
			for i := range lo.Data() {
				u := float32(rng.Float64() * 0.05)
				lo.Data()[i] -= u
				hi.Data()[i] += u
				sm.Data()[i] += (rng.Float32()*2 - 1) * u
			}
			w.Lo[name], w.Hi[name] = lo, hi
			sampled[name] = sm
		}
		lo, hi, err := ev.Forward(in, w)
		if err != nil {
			return false
		}
		sLo, sHi, err := ev.Forward(in, ExactWeights(sampled))
		if err != nil {
			return false
		}
		for i := range lo {
			if sLo[i] < lo[i]-1e-3 || sHi[i] > hi[i]+1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKDetermined(t *testing.T) {
	lo := []float32{5, 1, 0}
	hi := []float32{6, 2, 0.5}
	ok, labels := TopKDetermined(lo, hi, 1)
	if !ok || labels[0] != 0 {
		t.Fatalf("ok=%v labels=%v", ok, labels)
	}
	// Overlap between 1st and 2nd: undetermined for k=1.
	lo2 := []float32{5, 4.5}
	hi2 := []float32{6, 5.5}
	if ok, _ := TopKDetermined(lo2, hi2, 1); ok {
		t.Fatal("overlapping ranges must be undetermined")
	}
	// k=2 of 3, clear separation.
	lo3 := []float32{5, 4, 0}
	hi3 := []float32{6, 4.5, 1}
	ok, labels = TopKDetermined(lo3, hi3, 2)
	if !ok || labels[0] != 0 || labels[1] != 1 {
		t.Fatalf("k=2: ok=%v labels=%v", ok, labels)
	}
	if ok, _ := TopKDetermined(lo3, hi3, 0); ok {
		t.Fatal("k=0 must be undetermined")
	}
	if ok, _ := TopKDetermined(lo3, hi3, 4); ok {
		t.Fatal("k>n must be undetermined")
	}
}

// Degenerate intervals are always determined (up to exact ties).
func TestTopKDeterminedExact(t *testing.T) {
	lo := []float32{1, 3, 2}
	ok, labels := TopKDetermined(lo, lo, 1)
	if !ok || labels[0] != 1 {
		t.Fatalf("ok=%v labels=%v", ok, labels)
	}
}

// Progressive evaluation must agree with the full-precision prediction and
// must terminate by prefix 4.
func TestProgressiveMatchesFullPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	examples := data.Digits(rng, 300, 0.05)
	train, test := data.Split(examples, 0.8)
	def := zoo.LeNet("lenet")
	n, err := dnn.Build(def, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnn.Train(n, train, dnn.TrainConfig{Epochs: 4, BatchSize: 16, LR: 0.1, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	prefixCounts := map[int]int{}
	for _, ex := range test[:40] {
		res, err := Progressive(ev, src, ex.Input, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.Predict(ex.Input); res.Labels[0] != want {
			t.Fatalf("progressive label %d != full-precision %d", res.Labels[0], want)
		}
		prefixCounts[res.PrefixUsed]++
	}
	// The paper's headline: most queries should resolve with 1-2 planes.
	if prefixCounts[1]+prefixCounts[2] == 0 {
		t.Fatalf("no query resolved with high-order bytes only: %v", prefixCounts)
	}
}

func TestProgressiveMissingLayer(t *testing.T) {
	def, _ := testNet(t, 10)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := SegmentedSource{} // empty: every lookup fails
	if _, err := Progressive(ev, src, randIn(11, dnn.Shape{C: 2, H: 6, W: 6}), 1, 1); err == nil {
		t.Fatal("missing layer weights must error")
	}
}

func TestForwardShapeMismatch(t *testing.T) {
	def, n := testNet(t, 12)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.Forward(randIn(13, dnn.Shape{C: 1, H: 6, W: 6}), ExactWeights(n.Snapshot())); err == nil {
		t.Fatal("wrong input shape must error")
	}
}

func TestForwardWrongWeightShape(t *testing.T) {
	def, n := testNet(t, 14)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	snap["conv1"] = tensor.NewMatrix(1, 1)
	if _, _, err := ev.Forward(randIn(15, dnn.Shape{C: 2, H: 6, W: 6}), ExactWeights(snap)); err == nil {
		t.Fatal("wrong weight shape must error")
	}
}

func TestMulInterval(t *testing.T) {
	cases := []struct {
		al, ah, bl, bh, lo, hi float32
	}{
		{1, 2, 3, 4, 3, 8},
		{-2, 1, 3, 4, -8, 4},
		{-2, -1, -4, -3, 3, 8},
		{-1, 1, -1, 1, -1, 1},
		{0, 0, -5, 5, 0, 0},
	}
	for _, c := range cases {
		lo, hi := mulInterval(c.al, c.ah, c.bl, c.bh)
		if lo != c.lo || hi != c.hi {
			t.Errorf("mul([%v,%v],[%v,%v]) = [%v,%v], want [%v,%v]", c.al, c.ah, c.bl, c.bh, lo, hi, c.lo, c.hi)
		}
	}
}

// Interval widths must shrink monotonically as more byte planes are read.
func TestIntervalWidthShrinks(t *testing.T) {
	def, n := testNet(t, 16)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	in := randIn(17, dnn.Shape{C: 2, H: 6, W: 6})
	prev := float64(-1)
	for prefix := 1; prefix <= 4; prefix++ {
		w, err := fetch(ev.params, src, prefix)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := ev.Forward(in, w)
		if err != nil {
			t.Fatal(err)
		}
		var width float64
		for i := range lo {
			width += float64(hi[i]) - float64(lo[i])
		}
		if prev >= 0 && width > prev+1e-6 {
			t.Fatalf("prefix %d width %v wider than previous %v", prefix, width, prev)
		}
		prev = width
	}
	if prev > 1e-3 {
		t.Fatalf("prefix-4 intervals should be (near) degenerate, width %v", prev)
	}
}
