// Package dnn is the deep-learning substrate of ModelHub: a small, pure-Go
// neural network engine that trains and evaluates the convolutional networks
// the paper's experiments need (Sec. II). It deliberately separates the
// *architecture definition* (NetDef — a named DAG of layer specs, the thing
// DLV versions and DQL queries and mutates) from the *runtime network*
// (Network — the thing that runs forward/backward passes).
package dnn

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Layer kind names. These mirror the conventional layer vocabulary the
// paper uses (Fig. 2, Table I).
const (
	KindConv    = "conv"
	KindPool    = "pool"
	KindFull    = "full"
	KindReLU    = "relu"
	KindSigmoid = "sigmoid"
	KindTanh    = "tanh"
	KindSoftmax = "softmax"
	// KindAdd sums the outputs of all its predecessors elementwise (the
	// residual/skip connection merge); all inputs must share one shape.
	KindAdd = "add"
	// KindConcat concatenates predecessor outputs along the channel axis;
	// spatial extents must match.
	KindConcat = "concat"
)

// Pool modes.
const (
	PoolMax = "MAX"
	PoolAvg = "AVG"
)

// LayerSpec describes one layer: its unique name, kind, and hyperparameters
// H (paper Sec. II: a layer is (W, H, X) -> Y). Learnable parameters W are
// not part of the spec; they live in snapshots.
type LayerSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Out is the number of output channels (conv) or units (full).
	Out int `json:"out,omitempty"`
	// K, Stride, Pad configure conv and pool windows.
	K      int `json:"k,omitempty"`
	Stride int `json:"stride,omitempty"`
	Pad    int `json:"pad,omitempty"`
	// Mode selects the pool operator (PoolMax or PoolAvg).
	Mode string `json:"mode,omitempty"`
}

// Parametric reports whether the layer has learnable weights.
func (l LayerSpec) Parametric() bool { return l.Kind == KindConv || l.Kind == KindFull }

// Edge is a directed connection between two named layers.
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// NetDef is a DNN architecture: an input shape plus a DAG of layer specs.
// Validate checks its structure; Graph works out what running it needs.
type NetDef struct {
	Name   string      `json:"name"`
	InC    int         `json:"in_c"`
	InH    int         `json:"in_h"`
	InW    int         `json:"in_w"`
	Nodes  []LayerSpec `json:"nodes"`
	Edges  []Edge      `json:"edges"`
	Labels int         `json:"labels"` // size of the prediction label domain
}

// ErrNetDef reports an invalid network definition.
var ErrNetDef = errors.New("dnn: invalid network definition")

// Node returns the spec with the given name, or nil.
func (n *NetDef) Node(name string) *LayerSpec {
	for i := range n.Nodes {
		if n.Nodes[i].Name == name {
			return &n.Nodes[i]
		}
	}
	return nil
}

// Validate checks structural well-formedness: unique names, known kinds,
// edges referencing existing nodes, and acyclicity.
func (n *NetDef) Validate() error {
	if n.InC <= 0 || n.InH <= 0 || n.InW <= 0 {
		return fmt.Errorf("%w: input shape %dx%dx%d", ErrNetDef, n.InC, n.InH, n.InW)
	}
	if len(n.Nodes) == 0 {
		return fmt.Errorf("%w: no layers", ErrNetDef)
	}
	seen := make(map[string]bool, len(n.Nodes))
	for _, l := range n.Nodes {
		if l.Name == "" {
			return fmt.Errorf("%w: unnamed layer", ErrNetDef)
		}
		if seen[l.Name] {
			return fmt.Errorf("%w: duplicate layer name %q", ErrNetDef, l.Name)
		}
		seen[l.Name] = true
		switch l.Kind {
		case KindConv:
			if l.Out <= 0 || l.K <= 0 {
				return fmt.Errorf("%w: conv %q needs out>0 and k>0", ErrNetDef, l.Name)
			}
		case KindPool:
			if l.K <= 0 || (l.Mode != PoolMax && l.Mode != PoolAvg) {
				return fmt.Errorf("%w: pool %q needs k>0 and mode MAX|AVG", ErrNetDef, l.Name)
			}
		case KindFull:
			if l.Out <= 0 {
				return fmt.Errorf("%w: full %q needs out>0", ErrNetDef, l.Name)
			}
		case KindReLU, KindSigmoid, KindTanh, KindSoftmax, KindAdd, KindConcat:
		default:
			return fmt.Errorf("%w: unknown layer kind %q", ErrNetDef, l.Kind)
		}
	}
	for _, e := range n.Edges {
		if !seen[e.From] || !seen[e.To] {
			return fmt.Errorf("%w: edge %s->%s references unknown node", ErrNetDef, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("%w: self edge on %s", ErrNetDef, e.From)
		}
	}
	if _, err := n.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns the node names in topological order, or an error if the
// edge set contains a cycle.
func (n *NetDef) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(n.Nodes))
	adj := make(map[string][]string, len(n.Nodes))
	for _, l := range n.Nodes {
		indeg[l.Name] = 0
	}
	for _, e := range n.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	// Deterministic Kahn: seed the queue in declaration order.
	var queue []string
	for _, l := range n.Nodes {
		if indeg[l.Name] == 0 {
			queue = append(queue, l.Name)
		}
	}
	var order []string
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != len(n.Nodes) {
		return nil, fmt.Errorf("%w: cycle in layer DAG", ErrNetDef)
	}
	return order, nil
}

// Graph is a NetDef's DAG worked out once: the nodes in topological order,
// each with its predecessors and static activation shapes. Build, the
// interval evaluator and DQL's slice all run on it, so the rules it enforces
// exist only here.
type Graph struct {
	// Nodes is in topological order: Nodes[Source] is the one node that takes
	// the network input and Nodes[Sink] the one node with no successor.
	Nodes        []GraphNode
	Source, Sink int
	// Logits is the position of the node whose output is the raw scores: the
	// sink, or its predecessor when the sink is a softmax.
	Logits int
}

// GraphNode is one node of a Graph.
type GraphNode struct {
	Spec LayerSpec
	// Preds are the predecessors' positions in Graph.Nodes, in edge
	// declaration order (which fixes the channel order of concat merges).
	Preds []int
	// In is the node's input shape: the network input for the source, else
	// its predecessors' outputs merged. Out is its output shape.
	In, Out Shape
}

// Graph validates the definition and works out its DAG. A runnable network
// has exactly one source and one sink; a node with several inputs must be
// an add (all inputs one shape) or a concat (one spatial extent; channels
// add up).
func (n *NetDef) Graph() (*Graph, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, len(order))
	g := &Graph{Nodes: make([]GraphNode, len(order))}
	for i, name := range order {
		pos[name] = i
		g.Nodes[i].Spec = *n.Node(name)
	}
	hasNext := make([]bool, len(order))
	for _, e := range n.Edges {
		to := &g.Nodes[pos[e.To]]
		to.Preds = append(to.Preds, pos[e.From])
		hasNext[pos[e.From]] = true
	}
	sources, sinks := 0, 0
	for i := range g.Nodes {
		if len(g.Nodes[i].Preds) == 0 {
			g.Source = i
			sources++
		}
		if !hasNext[i] {
			g.Sink = i
			sinks++
		}
	}
	if sources != 1 || sinks != 1 {
		return nil, fmt.Errorf("%w: a network needs exactly one source and one sink, got %d/%d",
			ErrNetDef, sources, sinks)
	}
	netIn := Shape{C: n.InC, H: n.InH, W: n.InW}
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		if nd.In, err = g.inputShape(nd, netIn); err != nil {
			return nil, err
		}
		if nd.Out, err = nd.Spec.OutShape(nd.In); err != nil {
			return nil, err
		}
	}
	g.Logits = g.Sink
	if sink := &g.Nodes[g.Sink]; sink.Spec.Kind == KindSoftmax && len(sink.Preds) == 1 {
		g.Logits = sink.Preds[0]
	}
	return g, nil
}

// inputShape resolves a node's input shape from its predecessors'
// output shapes (or the network input for the source).
func (g *Graph) inputShape(nd *GraphNode, netIn Shape) (Shape, error) {
	switch {
	case len(nd.Preds) == 0:
		return netIn, nil
	case len(nd.Preds) == 1:
		return g.Nodes[nd.Preds[0]].Out, nil
	case nd.Spec.Kind == KindAdd:
		first := g.Nodes[nd.Preds[0]].Out
		for _, p := range nd.Preds[1:] {
			if s := g.Nodes[p].Out; s != first {
				return Shape{}, fmt.Errorf("%w: add node %q inputs %v and %v differ",
					ErrNetDef, nd.Spec.Name, first, s)
			}
		}
		return first, nil
	case nd.Spec.Kind == KindConcat:
		first := g.Nodes[nd.Preds[0]].Out
		total := 0
		for _, p := range nd.Preds {
			s := g.Nodes[p].Out
			if s.H != first.H || s.W != first.W {
				return Shape{}, fmt.Errorf("%w: concat node %q spatial extents %v and %v differ",
					ErrNetDef, nd.Spec.Name, first, s)
			}
			total += s.C
		}
		return Shape{C: total, H: first.H, W: first.W}, nil
	default:
		return Shape{}, fmt.Errorf("%w: node %q (%s) has %d inputs; only add/concat merge",
			ErrNetDef, nd.Spec.Name, nd.Spec.Kind, len(nd.Preds))
	}
}

// Next returns the names of the direct successors of node name.
func (n *NetDef) Next(name string) []string {
	var out []string
	for _, e := range n.Edges {
		if e.From == name {
			out = append(out, e.To)
		}
	}
	return out
}

// Prev returns the names of the direct predecessors of node name.
func (n *NetDef) Prev(name string) []string {
	var out []string
	for _, e := range n.Edges {
		if e.To == name {
			out = append(out, e.From)
		}
	}
	return out
}

// Clone returns a deep copy of the definition.
func (n *NetDef) Clone() *NetDef {
	c := *n
	c.Nodes = append([]LayerSpec(nil), n.Nodes...)
	c.Edges = append([]Edge(nil), n.Edges...)
	return &c
}

// ToJSON renders the definition as indented JSON, as the dlv CLI prints it;
// the struct tags give the round trip.
func (n *NetDef) ToJSON() ([]byte, error) { return json.MarshalIndent(n, "", "  ") }

// ChainDef builds a NetDef whose edges connect the given nodes in order; a
// convenience constructor used by the zoo and tests.
func ChainDef(name string, inC, inH, inW, labels int, nodes ...LayerSpec) *NetDef {
	def := &NetDef{Name: name, InC: inC, InH: inH, InW: inW, Labels: labels, Nodes: nodes}
	for i := 0; i+1 < len(nodes); i++ {
		def.Edges = append(def.Edges, Edge{From: nodes[i].Name, To: nodes[i+1].Name})
	}
	return def
}
