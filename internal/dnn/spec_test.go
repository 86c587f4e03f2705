package dnn

import (
	"encoding/json"
	"errors"
	"testing"
)

func lenetDef() *NetDef {
	return ChainDef("lenet", 1, 12, 12, 10,
		LayerSpec{Name: "conv1", Kind: KindConv, Out: 4, K: 3, Pad: 1},
		LayerSpec{Name: "pool1", Kind: KindPool, K: 2, Mode: PoolMax},
		LayerSpec{Name: "ip1", Kind: KindFull, Out: 16},
		LayerSpec{Name: "relu1", Kind: KindReLU},
		LayerSpec{Name: "ip2", Kind: KindFull, Out: 10},
		LayerSpec{Name: "prob", Kind: KindSoftmax},
	)
}

func TestValidateOK(t *testing.T) {
	if err := lenetDef().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*NetDef)
	}{
		{"bad input", func(n *NetDef) { n.InC = 0 }},
		{"no layers", func(n *NetDef) { n.Nodes = nil; n.Edges = nil }},
		{"dup name", func(n *NetDef) { n.Nodes[1].Name = "conv1" }},
		{"unnamed", func(n *NetDef) { n.Nodes[0].Name = "" }},
		{"bad kind", func(n *NetDef) { n.Nodes[0].Kind = "wat" }},
		{"conv no out", func(n *NetDef) { n.Nodes[0].Out = 0 }},
		{"pool no mode", func(n *NetDef) { n.Nodes[1].Mode = "" }},
		{"full no out", func(n *NetDef) { n.Nodes[2].Out = 0 }},
		{"edge unknown", func(n *NetDef) { n.Edges[0].To = "ghost" }},
		{"self edge", func(n *NetDef) { n.Edges[0].To = n.Edges[0].From }},
		{"cycle", func(n *NetDef) { n.Edges = append(n.Edges, Edge{From: "prob", To: "conv1"}) }},
	}
	for _, c := range cases {
		def := lenetDef()
		c.mut(def)
		if err := def.Validate(); !errors.Is(err, ErrNetDef) {
			t.Errorf("%s: want ErrNetDef, got %v", c.name, err)
		}
	}
}

func TestTopoOrder(t *testing.T) {
	def := lenetDef()
	order, err := def.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 || order[0] != "conv1" || order[5] != "prob" {
		t.Fatalf("order = %v", order)
	}
}

// A branch that feeds a non-merge layer (here conv1 skipping ahead into the
// full layer ip1) is refused when the graph is worked out.
func TestChainRejectsBranch(t *testing.T) {
	def := lenetDef()
	def.Edges = append(def.Edges, Edge{From: "conv1", To: "ip1"})
	if _, err := def.Graph(); !errors.Is(err, ErrNetDef) {
		t.Fatalf("want branch rejection, got %v", err)
	}
}

func TestNextPrev(t *testing.T) {
	def := lenetDef()
	if next := def.Next("conv1"); len(next) != 1 || next[0] != "pool1" {
		t.Fatalf("Next = %v", next)
	}
	if prev := def.Prev("pool1"); len(prev) != 1 || prev[0] != "conv1" {
		t.Fatalf("Prev = %v", prev)
	}
	if def.Next("prob") != nil {
		t.Fatal("terminal node should have no next")
	}
}

func TestCloneIndependent(t *testing.T) {
	def := lenetDef()
	c := def.Clone()
	c.Nodes[0].Out = 99
	c.Edges[0].To = "x"
	if def.Nodes[0].Out == 99 || def.Edges[0].To == "x" {
		t.Fatal("Clone must deep-copy nodes and edges")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	def := lenetDef()
	blob, err := def.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got NetDef
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Name != def.Name || len(got.Nodes) != len(def.Nodes) || len(got.Edges) != len(def.Edges) {
		t.Fatal("JSON round trip lost structure")
	}
}

func TestNodeLookup(t *testing.T) {
	def := lenetDef()
	if def.Node("ip1") == nil || def.Node("nope") != nil {
		t.Fatal("Node lookup wrong")
	}
}

func TestOutShape(t *testing.T) {
	in := Shape{C: 1, H: 12, W: 12}
	conv := LayerSpec{Name: "c", Kind: KindConv, Out: 4, K: 3, Pad: 1}
	s, err := conv.OutShape(in)
	if err != nil || s != (Shape{C: 4, H: 12, W: 12}) {
		t.Fatalf("conv OutShape = %v, %v", s, err)
	}
	convNoPad := LayerSpec{Name: "c", Kind: KindConv, Out: 4, K: 5}
	s, err = convNoPad.OutShape(in)
	if err != nil || s != (Shape{C: 4, H: 8, W: 8}) {
		t.Fatalf("conv nopad OutShape = %v, %v", s, err)
	}
	pool := LayerSpec{Name: "p", Kind: KindPool, K: 2, Mode: PoolMax}
	s, err = pool.OutShape(Shape{C: 4, H: 12, W: 12})
	if err != nil || s != (Shape{C: 4, H: 6, W: 6}) {
		t.Fatalf("pool OutShape = %v, %v", s, err)
	}
	full := LayerSpec{Name: "f", Kind: KindFull, Out: 7}
	s, err = full.OutShape(Shape{C: 4, H: 6, W: 6})
	if err != nil || s != (Shape{C: 7, H: 1, W: 1}) {
		t.Fatalf("full OutShape = %v, %v", s, err)
	}
	tooBig := LayerSpec{Name: "c", Kind: KindConv, Out: 1, K: 20}
	if _, err := tooBig.OutShape(in); err == nil {
		t.Fatal("oversized kernel must error")
	}
}

func TestParamShape(t *testing.T) {
	conv := LayerSpec{Name: "c", Kind: KindConv, Out: 4, K: 3}
	r, c, err := conv.ParamShape(Shape{C: 2, H: 8, W: 8})
	if err != nil || r != 4 || c != 2*9+1 {
		t.Fatalf("conv ParamShape = %d,%d,%v", r, c, err)
	}
	full := LayerSpec{Name: "f", Kind: KindFull, Out: 5}
	r, c, err = full.ParamShape(Shape{C: 3, H: 2, W: 2})
	if err != nil || r != 5 || c != 13 {
		t.Fatalf("full ParamShape = %d,%d,%v", r, c, err)
	}
	relu := LayerSpec{Name: "r", Kind: KindReLU}
	if _, _, err := relu.ParamShape(Shape{C: 1, H: 1, W: 1}); err == nil {
		t.Fatal("non-parametric layer must error")
	}
}

func TestParametric(t *testing.T) {
	if !(LayerSpec{Kind: KindConv}).Parametric() || (LayerSpec{Kind: KindPool}).Parametric() {
		t.Fatal("Parametric flags wrong")
	}
}
