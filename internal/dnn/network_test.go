package dnn

import (
	"math"
	"math/rand"
	"testing"
)

func buildLenet(t *testing.T) *Network {
	t.Helper()
	n, err := Build(lenetDef(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randVolume(rng *rand.Rand, s Shape) *Volume {
	v := NewVolume(s)
	for i := range v.Data {
		v.Data[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestBuildShapes(t *testing.T) {
	n := buildLenet(t)
	if got := len(n.layerList); got != 6 {
		t.Fatalf("layer count = %d", got)
	}
	out := n.Forward(randVolume(rand.New(rand.NewSource(2)), Shape{C: 1, H: 12, W: 12}))
	if out.Shape.Size() != 10 {
		t.Fatalf("output size = %d", out.Shape.Size())
	}
	var sum float64
	for _, v := range out.Data {
		if v < 0 || v > 1 {
			t.Fatalf("softmax output out of range: %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax does not sum to 1: %v", sum)
	}
}

func TestBuildLabelMismatch(t *testing.T) {
	def := lenetDef()
	def.Labels = 7
	if _, err := Build(def, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want label-count mismatch error")
	}
}

func TestParamCount(t *testing.T) {
	n := buildLenet(t)
	// conv1: 4 x (1*9+1) = 40; ip1: 16 x (4*6*6+1) = 2320; ip2: 10 x 17 = 170.
	if got := n.ParamCount(); got != 40+2320+170 {
		t.Fatalf("ParamCount = %d", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	n := buildLenet(t)
	snap := n.Snapshot()
	rng := rand.New(rand.NewSource(3))
	in := randVolume(rng, Shape{C: 1, H: 12, W: 12})
	before := n.Forward(in).Clone()

	// Mutate weights, confirm output changes, then restore.
	for _, w := range n.Params() {
		w.Scale(2)
	}
	after := n.Forward(in)
	if before.Data[0] == after.Data[0] {
		t.Fatal("scaling weights should change output")
	}
	if err := n.Restore(snap); err != nil {
		t.Fatal(err)
	}
	restored := n.Forward(in)
	for i := range before.Data {
		if before.Data[i] != restored.Data[i] {
			t.Fatal("restore must reproduce the original output exactly")
		}
	}
}

func TestRestoreErrors(t *testing.T) {
	n := buildLenet(t)
	snap := n.Snapshot()
	delete(snap, "conv1")
	if err := n.Restore(snap); err == nil {
		t.Fatal("want error for missing layer")
	}
	snap = n.Snapshot()
	snap["conv1"] = snap["ip2"]
	if err := n.Restore(snap); err == nil {
		t.Fatal("want error for shape mismatch")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	n := buildLenet(t)
	snap := n.Snapshot()
	n.Params()["conv1"].Set(0, 0, 123)
	if snap["conv1"].At(0, 0) == 123 {
		t.Fatal("snapshot must not alias live weights")
	}
}

// Finite-difference gradient check on a small network covering conv, max
// pool, full, relu, sigmoid, tanh, and avg pool layers.
func TestGradientCheck(t *testing.T) {
	def := ChainDef("gc", 2, 6, 6, 3,
		LayerSpec{Name: "conv1", Kind: KindConv, Out: 3, K: 3, Pad: 1},
		LayerSpec{Name: "tanh1", Kind: KindTanh},
		LayerSpec{Name: "poolm", Kind: KindPool, K: 2, Mode: PoolMax},
		LayerSpec{Name: "conv2", Kind: KindConv, Out: 4, K: 2},
		LayerSpec{Name: "sig1", Kind: KindSigmoid},
		LayerSpec{Name: "poola", Kind: KindPool, K: 2, Mode: PoolAvg},
		LayerSpec{Name: "ip1", Kind: KindFull, Out: 8},
		LayerSpec{Name: "relu1", Kind: KindReLU},
		LayerSpec{Name: "ip2", Kind: KindFull, Out: 3},
	)
	rng := rand.New(rand.NewSource(4))
	n, err := Build(def, rng)
	if err != nil {
		t.Fatal(err)
	}
	in := randVolume(rng, Shape{C: 2, H: 6, W: 6})
	label := 1

	lossAt := func() float64 {
		logits := n.Logits(in)
		probs := Softmax(logits.Data)
		return -math.Log(math.Max(float64(probs[label]), 1e-12))
	}

	n.ZeroGrads()
	n.LossAndBackward(in, label)

	const eps = 1e-3
	checked := 0
	for _, l := range n.layerList {
		w, g := l.Weights(), l.Grad()
		if w == nil {
			continue
		}
		// Spot-check a handful of coordinates per layer.
		probe := rand.New(rand.NewSource(5))
		for k := 0; k < 6; k++ {
			i := probe.Intn(w.Rows())
			j := probe.Intn(w.Cols())
			orig := w.At(i, j)
			w.Set(i, j, orig+eps)
			up := lossAt()
			w.Set(i, j, orig-eps)
			down := lossAt()
			w.Set(i, j, orig)
			numeric := (up - down) / (2 * eps)
			analytic := float64(g.At(i, j))
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 2e-2 {
				t.Errorf("layer %s w[%d,%d]: numeric %v vs analytic %v", l.Spec().Name, i, j, numeric, analytic)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
}

func TestSoftmaxBackwardMatchesFiniteDiff(t *testing.T) {
	base := layerBase{spec: LayerSpec{Name: "s", Kind: KindSoftmax},
		in: Shape{C: 4, H: 1, W: 1}, out: Shape{C: 4, H: 1, W: 1}}
	l := &softmaxLayer{layerBase: base}
	in := &Volume{Shape: base.in, Data: []float32{0.3, -0.2, 1.0, 0.1}}
	dOut := &Volume{Shape: base.out, Data: []float32{1, -0.5, 0.25, 0}}
	forward1(l, in)
	dIn := backward1(l, dOut)

	const eps = 1e-3
	for i := 0; i < 4; i++ {
		bump := in.Clone()
		bump.Data[i] += eps
		up := Softmax(bump.Data)
		bump.Data[i] -= 2 * eps
		down := Softmax(bump.Data)
		var numeric float64
		for j := range up {
			numeric += float64(dOut.Data[j]) * float64(up[j]-down[j]) / (2 * eps)
		}
		if math.Abs(numeric-float64(dIn.Data[i])) > 1e-2 {
			t.Errorf("softmax dIn[%d]: numeric %v vs analytic %v", i, numeric, dIn.Data[i])
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	out := Softmax([]float32{1000, 999, 998})
	for _, v := range out {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax must be stable for large logits")
		}
	}
	if out[0] <= out[1] || out[1] <= out[2] {
		t.Fatal("softmax must preserve ordering")
	}
}

func TestSGDMomentumMovesWeights(t *testing.T) {
	n := buildLenet(t)
	rng := rand.New(rand.NewSource(6))
	in := randVolume(rng, Shape{C: 1, H: 12, W: 12})
	before := n.Snapshot()
	opt := &SGD{LR: 0.1, Momentum: 0.9}
	n.ZeroGrads()
	n.LossAndBackward(in, 3)
	opt.Step(n, 1)
	after := n.Snapshot()
	if before["ip2"].Equal(after["ip2"]) {
		t.Fatal("SGD step should change classifier weights")
	}
}

func TestSGDLayerLROverride(t *testing.T) {
	n := buildLenet(t)
	rng := rand.New(rand.NewSource(20))
	in := randVolume(rng, Shape{C: 1, H: 12, W: 12})
	before := n.Snapshot()
	// Freeze conv1, train ip layers at full rate.
	opt := &SGD{LR: 0.1, LayerLR: map[string]float64{"conv1": 0}}
	n.ZeroGrads()
	n.LossAndBackward(in, 2)
	opt.Step(n, 1)
	after := n.Snapshot()
	if !after["conv1"].Equal(before["conv1"]) {
		t.Fatal("conv1 must be frozen by its zero layer lr")
	}
	if after["ip2"].Equal(before["ip2"]) {
		t.Fatal("ip2 must still train at the base lr")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	n := buildLenet(t)
	c, err := n.Clone()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	in := randVolume(rng, Shape{C: 1, H: 12, W: 12})
	a := n.Forward(in)
	b := c.Forward(in)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("clone must produce identical outputs")
		}
	}
	c.Params()["ip2"].Scale(2)
	a2 := n.Forward(in)
	for i := range a.Data {
		if a.Data[i] != a2.Data[i] {
			t.Fatal("mutating the clone must not affect the original")
		}
	}
}

// TestEvaluateMatchesPerExamplePredict: batched evaluation on one network
// counts exactly the examples a per-example Predict gets right, across
// several chunks and a ragged last one.
func TestEvaluateMatchesPerExamplePredict(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	examples := toyExamples(rng, 120)
	n := toyNet(t, 32)
	correct := 0
	for _, ex := range examples {
		if n.Predict(ex.Input) == ex.Label {
			correct++
		}
	}
	if got, want := Evaluate(n, examples), float64(correct)/float64(len(examples)); got != want {
		t.Fatalf("batched Evaluate %v != per-example %v", got, want)
	}
	if acc := Evaluate(n, nil); acc != 0 {
		t.Fatalf("empty eval = %v", acc)
	}
}
