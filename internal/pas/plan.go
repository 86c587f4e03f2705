package pas

import (
	"fmt"
	"math"
)

// Scheme is the group retrieval scheme (paper Table III).
type Scheme int

const (
	// Independent recreates each matrix of a snapshot one by one; the
	// snapshot cost is the sum of root-path costs.
	Independent Scheme = iota
	// Parallel recreates all matrices concurrently; the snapshot cost is
	// the longest root-path cost.
	Parallel
	// Reusable caches shared path prefixes; the snapshot cost is the total
	// cost of the distinct edges on the union of root paths (the Steiner
	// tree of the group inside the plan tree).
	Reusable
	// Concurrent resolves the group's delta chains as a DAG of
	// node-resolution tasks over a worker pool with single-flight
	// deduplication — a parallel generalization of Reusable: every distinct
	// edge is decoded exactly once, and independent chains decode
	// concurrently. Its cost model equals Reusable's (the deduplicated total
	// work); the worker pool only shrinks wall clock, never the work.
	Concurrent
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Independent:
		return "independent"
	case Parallel:
		return "parallel"
	case Reusable:
		return "reusable"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme resolves a scheme name ("independent", "parallel", "reusable",
// "concurrent") as spelled by String.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range []Scheme{Independent, Parallel, Reusable, Concurrent} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("pas: unknown retrieval scheme %q", name)
}

// Plan is a matrix storage plan: a spanning arborescence of the storage
// graph rooted at ν0, represented by the incoming edge chosen for every
// real node (paper Lemma 2: optimal solutions are spanning trees for the
// independent and parallel schemes).
type Plan struct {
	// ParentEdge[v] is the edge used to recreate node v; index 0 is unused.
	ParentEdge []EdgeID
	graph      *Graph
}

// NewPlan allocates an empty plan for g (all parent edges unset = -1).
func NewPlan(g *Graph) *Plan {
	pe := make([]EdgeID, g.NumNodes)
	for i := range pe {
		pe[i] = -1
	}
	return &Plan{ParentEdge: pe, graph: g}
}

// Graph returns the storage graph this plan is over.
func (p *Plan) Graph() *Graph { return p.graph }

// Parent returns the parent node of v under the plan.
func (p *Plan) Parent(v NodeID) NodeID {
	return p.graph.Edges[p.ParentEdge[v]].From
}

// Validate checks that every real node has a parent edge targeting it and
// that following parents always reaches ν0 (no cycles).
func (p *Plan) Validate() error {
	if len(p.ParentEdge) != p.graph.NumNodes {
		return fmt.Errorf("%w: plan covers %d nodes, graph has %d", ErrGraph, len(p.ParentEdge), p.graph.NumNodes)
	}
	for v := 1; v < p.graph.NumNodes; v++ {
		eid := p.ParentEdge[v]
		if eid < 0 || int(eid) >= len(p.graph.Edges) {
			return fmt.Errorf("%w: node %d has no parent edge", ErrGraph, v)
		}
		if p.graph.Edges[eid].To != NodeID(v) {
			return fmt.Errorf("%w: node %d parent edge %d targets node %d", ErrGraph, v, eid, p.graph.Edges[eid].To)
		}
	}
	// Cycle check via depth computation.
	if _, err := p.depths(); err != nil {
		return err
	}
	return nil
}

// depths returns the hop distance from the root for every node, detecting
// cycles.
func (p *Plan) depths() ([]int, error) {
	const unknown = -1
	d := make([]int, p.graph.NumNodes)
	for i := range d {
		d[i] = unknown
	}
	d[Root] = 0
	for v := 1; v < p.graph.NumNodes; v++ {
		if d[v] != unknown {
			continue
		}
		// Walk up until a known node, marking the path.
		var path []NodeID
		u := NodeID(v)
		for d[u] == unknown {
			path = append(path, u)
			if len(path) > p.graph.NumNodes {
				return nil, fmt.Errorf("%w: cycle through node %d", ErrGraph, v)
			}
			u = p.Parent(u)
		}
		base := d[u]
		for i := len(path) - 1; i >= 0; i-- {
			base++
			d[path[i]] = base
		}
	}
	return d, nil
}

// StorageCost is Cs(P): the sum of storage costs of all chosen edges.
func (p *Plan) StorageCost() float64 {
	total := 0.0
	for v := 1; v < p.graph.NumNodes; v++ {
		total += p.graph.Edges[p.ParentEdge[v]].Storage
	}
	return total
}

// NodeRecreationCosts returns, for every node, the sum of recreation costs
// along its root path (Cr(P, v) in the paper).
func (p *Plan) NodeRecreationCosts() []float64 {
	c := make([]float64, p.graph.NumNodes)
	done := make([]bool, p.graph.NumNodes)
	done[Root] = true
	var walk func(v NodeID) float64
	walk = func(v NodeID) float64 {
		if done[v] {
			return c[v]
		}
		e := p.graph.Edges[p.ParentEdge[v]]
		c[v] = walk(e.From) + e.Recreation
		done[v] = true
		return c[v]
	}
	for v := 1; v < p.graph.NumNodes; v++ {
		walk(NodeID(v))
	}
	return c
}

// SnapshotCost returns the recreation cost of snapshot group si under the
// scheme (paper Table III).
func (p *Plan) SnapshotCost(si int, scheme Scheme) float64 {
	nodeCosts := p.NodeRecreationCosts()
	return p.snapshotCostWith(si, scheme, nodeCosts)
}

func (p *Plan) snapshotCostWith(si int, scheme Scheme, nodeCosts []float64) float64 {
	s := p.graph.Snapshots[si]
	switch scheme {
	case Independent:
		total := 0.0
		for _, v := range s.Nodes {
			total += nodeCosts[v]
		}
		return total
	case Parallel:
		mx := 0.0
		for _, v := range s.Nodes {
			if nodeCosts[v] > mx {
				mx = nodeCosts[v]
			}
		}
		return mx
	case Reusable, Concurrent:
		// Union of root paths inside the tree == Steiner tree of the group.
		// Concurrent dedups identically; workers change wall clock, not work.
		seen := make(map[EdgeID]bool)
		total := 0.0
		for _, v := range s.Nodes {
			for u := v; u != Root; u = p.Parent(u) {
				eid := p.ParentEdge[u]
				if seen[eid] {
					break // the rest of the path is already counted
				}
				seen[eid] = true
				total += p.graph.Edges[eid].Recreation
			}
		}
		return total
	default:
		return math.NaN()
	}
}

// Feasible reports whether every snapshot budget is satisfied under the
// scheme, and returns the indexes of violated snapshots.
func (p *Plan) Feasible(scheme Scheme) (bool, []int) {
	nodeCosts := p.NodeRecreationCosts()
	var violated []int
	for si, s := range p.graph.Snapshots {
		if s.Budget <= 0 || math.IsInf(s.Budget, 1) {
			continue
		}
		if p.snapshotCostWith(si, scheme, nodeCosts)-s.Budget > 1e-9 {
			violated = append(violated, si)
		}
	}
	return len(violated) == 0, violated
}

// Subtree returns v plus all its descendants under the plan. Nodes without
// a parent edge (partial plans) are ignored.
func (p *Plan) Subtree(v NodeID) []NodeID {
	children := make([][]NodeID, p.graph.NumNodes)
	for u := 1; u < p.graph.NumNodes; u++ {
		if p.ParentEdge[u] < 0 {
			continue
		}
		pa := p.Parent(NodeID(u))
		children[pa] = append(children[pa], NodeID(u))
	}
	var out []NodeID
	stack := []NodeID{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		stack = append(stack, children[u]...)
	}
	return out
}
