package dnn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// skipDef builds a residual block: conv1 feeds both a conv2 branch and an
// add merge that sums the branch with the trunk, then classifies.
func skipDef() *NetDef {
	return &NetDef{
		Name: "skip", InC: 1, InH: 8, InW: 8, Labels: 3,
		Nodes: []LayerSpec{
			{Name: "conv1", Kind: KindConv, Out: 4, K: 3, Pad: 1},
			{Name: "conv2", Kind: KindConv, Out: 4, K: 3, Pad: 1},
			{Name: "relu2", Kind: KindReLU},
			{Name: "add", Kind: KindAdd},
			{Name: "ip", Kind: KindFull, Out: 3},
		},
		Edges: []Edge{
			{From: "conv1", To: "conv2"},
			{From: "conv2", To: "relu2"},
			{From: "conv1", To: "add"},
			{From: "relu2", To: "add"},
			{From: "add", To: "ip"},
		},
	}
}

// concatDef builds an inception-style block: two parallel convs whose
// outputs concatenate along channels.
func concatDef() *NetDef {
	return &NetDef{
		Name: "inception", InC: 1, InH: 6, InW: 6, Labels: 2,
		Nodes: []LayerSpec{
			{Name: "stem", Kind: KindConv, Out: 2, K: 3, Pad: 1},
			{Name: "branch_a", Kind: KindConv, Out: 3, K: 3, Pad: 1},
			{Name: "branch_b", Kind: KindConv, Out: 2, K: 1},
			{Name: "cat", Kind: KindConcat},
			{Name: "ip", Kind: KindFull, Out: 2},
		},
		Edges: []Edge{
			{From: "stem", To: "branch_a"},
			{From: "stem", To: "branch_b"},
			{From: "branch_a", To: "cat"},
			{From: "branch_b", To: "cat"},
			{From: "cat", To: "ip"},
		},
	}
}

func TestDAGForwardAddSemantics(t *testing.T) {
	def := skipDef()
	n, err := Build(def, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	in := randVolume(rand.New(rand.NewSource(2)), Shape{C: 1, H: 8, W: 8})
	// Manually compute: conv1 -> x; branch: relu(conv2(x)); add = x + branch.
	conv1 := forward1(n.layers["conv1"], in)
	conv2 := forward1(n.layers["conv2"], conv1)
	relu := forward1(n.layers["relu2"], conv2)
	want := NewVolume(conv1.Shape)
	for i := range want.Data {
		want.Data[i] = conv1.Data[i] + relu.Data[i]
	}
	// Clone: layer outputs alias reusable scratch that the full forward pass
	// below overwrites.
	ip := forward1(n.layers["ip"], want).Clone()

	got := n.Forward(in)
	for i := range ip.Data {
		if got.Data[i] != ip.Data[i] {
			t.Fatalf("DAG forward differs from manual composition at %d: %v vs %v", i, got.Data[i], ip.Data[i])
		}
	}
}

func TestDAGForwardConcatSemantics(t *testing.T) {
	def := concatDef()
	n, err := Build(def, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	in := randVolume(rand.New(rand.NewSource(4)), Shape{C: 1, H: 6, W: 6})
	stem := forward1(n.layers["stem"], in)
	a := forward1(n.layers["branch_a"], stem)
	b := forward1(n.layers["branch_b"], stem)
	merged := NewVolume(Shape{C: 5, H: 6, W: 6})
	copy(merged.Data, a.Data)
	copy(merged.Data[a.Shape.Size():], b.Data)
	// Clone: layer outputs alias reusable scratch that the full forward pass
	// below overwrites.
	want := forward1(n.layers["ip"], merged).Clone()

	got := n.Forward(in)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("concat forward differs at %d", i)
		}
	}
}

// Finite-difference gradient check through both merge kinds — the DAG
// backward's gradient routing (fan-out accumulation, add replication,
// concat splitting) must match numerics.
func TestDAGGradientCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		def  *NetDef
		in   Shape
	}{
		{"add", skipDef(), Shape{C: 1, H: 8, W: 8}},
		{"concat", concatDef(), Shape{C: 1, H: 6, W: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			n, err := Build(tc.def, rng)
			if err != nil {
				t.Fatal(err)
			}
			in := randVolume(rng, tc.in)
			label := 1
			lossAt := func() float64 {
				logits := n.Logits(in)
				probs := Softmax(logits.Data)
				return -math.Log(math.Max(float64(probs[label]), 1e-12))
			}
			n.ZeroGrads()
			n.LossAndBackward(in, label)
			const eps = 1e-3
			probe := rand.New(rand.NewSource(6))
			for _, l := range n.layerList {
				w, g := l.Weights(), l.Grad()
				if w == nil {
					continue
				}
				for k := 0; k < 5; k++ {
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
						t.Errorf("%s w[%d,%d]: numeric %v vs analytic %v", l.Spec().Name, i, j, numeric, analytic)
					}
				}
			}
		})
	}
}

// A residual model must actually train on a real task.
func TestDAGTrainsSkipModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	examples := toyExamples(rng, 300)
	def := &NetDef{
		Name: "res-toy", InC: 2, InH: 1, InW: 1, Labels: 2,
		Nodes: []LayerSpec{
			{Name: "ip1", Kind: KindFull, Out: 8},
			{Name: "ip2", Kind: KindFull, Out: 8},
			{Name: "tanh", Kind: KindTanh},
			{Name: "add", Kind: KindAdd},
			{Name: "ip3", Kind: KindFull, Out: 2},
		},
		Edges: []Edge{
			{From: "ip1", To: "ip2"},
			{From: "ip2", To: "tanh"},
			{From: "ip1", To: "add"},
			{From: "tanh", To: "add"},
			{From: "add", To: "ip3"},
		},
	}
	n, err := Build(def, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(n, examples, TrainConfig{Epochs: 6, BatchSize: 16, LR: 0.1, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(n, examples); acc < 0.9 {
		t.Fatalf("skip model failed to learn: %v", acc)
	}
}

// Build refuses, with ErrNetDef, a definition that NetDef.Graph cannot work
// out: two sources, a non-merge layer with two inputs, and merge inputs whose
// shapes do not agree.
func TestDAGBuildRejections(t *testing.T) {
	for _, c := range []struct {
		name string
		def  func() *NetDef
	}{
		{"two sources", func() *NetDef {
			def := skipDef()
			def.Nodes = append(def.Nodes, LayerSpec{Name: "orphan", Kind: KindReLU})
			def.Edges = append(def.Edges, Edge{From: "orphan", To: "add"})
			return def
		}},
		{"multi-input non-merge layer", func() *NetDef {
			def := skipDef()
			def.Node("add").Kind = KindReLU
			return def
		}},
		// conv2 outputs 8 channels against conv1's 4.
		{"mismatched add inputs", func() *NetDef {
			def := skipDef()
			def.Node("conv2").Out = 8
			return def
		}},
		// An unpadded 3x3 branch_b shrinks 6x6 to 4x4.
		{"mismatched concat extents", func() *NetDef {
			def := concatDef()
			def.Node("branch_b").K = 3
			return def
		}},
	} {
		if _, err := Build(c.def(), rand.New(rand.NewSource(1))); !errors.Is(err, ErrNetDef) {
			t.Errorf("%s: want ErrNetDef, got %v", c.name, err)
		}
	}
}

func TestDAGSnapshotRestoreRoundTrip(t *testing.T) {
	def := skipDef()
	n, err := Build(def, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	in := randVolume(rand.New(rand.NewSource(11)), Shape{C: 1, H: 8, W: 8})
	snap := n.Snapshot()
	before := n.Forward(in).Clone()
	for _, w := range n.Params() {
		w.Scale(3)
	}
	if err := n.Restore(snap); err != nil {
		t.Fatal(err)
	}
	after := n.Forward(in)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("restore must reproduce DAG outputs exactly")
		}
	}
}
