package perturb

import (
	"errors"
	"math/rand"
	"testing"

	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
)

// residualDef builds a skip-connection model covering both merge kinds.
func residualDef() *dnn.NetDef {
	return &dnn.NetDef{
		Name: "res", InC: 1, InH: 6, InW: 6, Labels: 3,
		Nodes: []dnn.LayerSpec{
			{Name: "conv1", Kind: dnn.KindConv, Out: 3, K: 3, Pad: 1},
			{Name: "conv2", Kind: dnn.KindConv, Out: 3, K: 3, Pad: 1},
			{Name: "relu2", Kind: dnn.KindReLU},
			{Name: "add", Kind: dnn.KindAdd},
			{Name: "branch", Kind: dnn.KindConv, Out: 2, K: 1},
			{Name: "cat", Kind: dnn.KindConcat},
			{Name: "ip", Kind: dnn.KindFull, Out: 3},
			{Name: "prob", Kind: dnn.KindSoftmax},
		},
		Edges: []dnn.Edge{
			{From: "conv1", To: "conv2"},
			{From: "conv2", To: "relu2"},
			{From: "conv1", To: "add"},
			{From: "relu2", To: "add"},
			{From: "add", To: "branch"},
			{From: "add", To: "cat"},
			{From: "branch", To: "cat"},
			{From: "cat", To: "ip"},
			{From: "ip", To: "prob"},
		},
	}
}

// The interval DAG evaluator with exact bounds must match the DNN DAG
// executor's logits.
func TestDAGExactBoundsMatchForward(t *testing.T) {
	def := residualDef()
	n, err := dnn.Build(def, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	in := randIn(2, dnn.Shape{C: 1, H: 6, W: 6})
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

// Interval soundness through merge nodes: the true logits stay inside the
// interval output at every byte-plane prefix.
func TestDAGIntervalSoundness(t *testing.T) {
	def := residualDef()
	n, err := dnn.Build(def, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	in := randIn(4, dnn.Shape{C: 1, H: 6, W: 6})
	want := n.Logits(in)
	for prefix := 1; prefix <= 4; prefix++ {
		w := WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
		for _, l := range def.Nodes {
			if !l.Parametric() {
				continue
			}
			lo, hi, err := src.WeightIntervals(l.Name, prefix)
			if err != nil {
				t.Fatal(err)
			}
			w.Lo[l.Name], w.Hi[l.Name] = lo, hi
		}
		lo, hi, err := ev.Forward(in, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if !(lo[i] <= want.Data[i]+1e-4 && want.Data[i] <= hi[i]+1e-4) {
				t.Fatalf("prefix %d logit %d: %v outside [%v,%v]", prefix, i, want.Data[i], lo[i], hi[i])
			}
		}
	}
}

// Progressive evaluation works end to end on DAG models.
func TestDAGProgressive(t *testing.T) {
	def := residualDef()
	n, err := dnn.Build(def, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	for seed := int64(0); seed < 10; seed++ {
		in := randIn(6+seed, dnn.Shape{C: 1, H: 6, W: 6})
		res, err := Progressive(ev, src, in, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.Predict(in); res.Labels[0] != want {
			t.Fatalf("progressive label %d != full %d", res.Labels[0], want)
		}
	}
}

func TestDAGEvaluatorRejectsMultiSink(t *testing.T) {
	def := residualDef()
	def.Nodes = append(def.Nodes, dnn.LayerSpec{Name: "stray", Kind: dnn.KindReLU})
	def.Edges = append(def.Edges, dnn.Edge{From: "add", To: "stray"})
	if _, err := NewEvaluator(def); !errors.Is(err, dnn.ErrNetDef) {
		t.Fatalf("two sinks must be rejected with ErrNetDef, got %v", err)
	}
}

// Both consumers of a network's graph, the runtime and the interval
// evaluator, refuse a malformed definition with dnn.ErrNetDef.
func TestMalformedNetworksRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(def *dnn.NetDef)
	}{
		{"two sinks", func(def *dnn.NetDef) {
			def.Nodes = append(def.Nodes, dnn.LayerSpec{Name: "stray", Kind: dnn.KindReLU})
			def.Edges = append(def.Edges, dnn.Edge{From: "add", To: "stray"})
		}},
		{"two sources", func(def *dnn.NetDef) {
			def.Nodes = append(def.Nodes, dnn.LayerSpec{Name: "orphan", Kind: dnn.KindReLU})
			def.Edges = append(def.Edges, dnn.Edge{From: "orphan", To: "add"})
		}},
		// conv2 outputs 4 channels against conv1's 3.
		{"add inputs differ", func(def *dnn.NetDef) { def.Node("conv2").Out = 4 }},
		// An unpadded 3x3 branch shrinks 6x6 to 4x4.
		{"concat extents differ", func(def *dnn.NetDef) { def.Node("branch").K = 3 }},
		{"non-merge kind with two inputs", func(def *dnn.NetDef) { def.Node("add").Kind = dnn.KindReLU }},
	} {
		def := residualDef()
		c.mut(def)
		if _, err := dnn.Build(def, rand.New(rand.NewSource(1))); !errors.Is(err, dnn.ErrNetDef) {
			t.Errorf("%s: Build: want ErrNetDef, got %v", c.name, err)
		}
		if _, err := NewEvaluator(def); !errors.Is(err, dnn.ErrNetDef) {
			t.Errorf("%s: NewEvaluator: want ErrNetDef, got %v", c.name, err)
		}
	}
}
