package pas

import (
	"container/heap"
	"math"
)

// edgeHeap is a min-heap of edge ids ordered by a caller-supplied key.
type edgeHeap struct {
	ids []EdgeID
	key func(EdgeID) float64
}

func (h *edgeHeap) Len() int           { return len(h.ids) }
func (h *edgeHeap) Less(i, j int) bool { return h.key(h.ids[i]) < h.key(h.ids[j]) }
func (h *edgeHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *edgeHeap) Push(x interface{}) { h.ids = append(h.ids, x.(EdgeID)) }
func (h *edgeHeap) Pop() interface{} {
	old := h.ids
	n := len(old)
	x := old[n-1]
	h.ids = old[:n-1]
	return x
}

// MST computes the minimum-storage spanning arborescence grown from ν0 with
// Prim's algorithm: the best possible storage footprint, ignoring all
// recreation constraints (the lower bound in Fig 6(c)).
func MST(g *Graph) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	plan := NewPlan(g)
	out := g.OutEdges()
	inTree := make([]bool, g.NumNodes)
	inTree[Root] = true
	h := &edgeHeap{key: func(id EdgeID) float64 { return g.Edges[id].Storage }}
	for _, eid := range out[Root] {
		h.ids = append(h.ids, eid)
	}
	heap.Init(h)
	added := 1
	for h.Len() > 0 && added < g.NumNodes {
		eid := heap.Pop(h).(EdgeID)
		e := g.Edges[eid]
		if inTree[e.To] {
			continue
		}
		plan.ParentEdge[e.To] = eid
		inTree[e.To] = true
		added++
		for _, oid := range out[e.To] {
			if !inTree[g.Edges[oid].To] {
				heap.Push(h, oid)
			}
		}
	}
	if added != g.NumNodes {
		return nil, ErrGraph // unreachable given Validate, kept for safety
	}
	return plan, nil
}

// SPT computes the shortest-path tree from ν0 over recreation costs with
// Dijkstra's algorithm: the best possible recreation latency for every
// matrix, ignoring storage (full materialization corresponds to an SPT over
// the ν0 edges).
func SPT(g *Graph) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	dist := make([]float64, g.NumNodes)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[Root] = 0
	plan := NewPlan(g)
	out := g.OutEdges()
	settled := make([]bool, g.NumNodes)
	h := &edgeHeap{key: func(id EdgeID) float64 {
		e := g.Edges[id]
		return dist[e.From] + e.Recreation
	}}
	for _, eid := range out[Root] {
		h.ids = append(h.ids, eid)
	}
	heap.Init(h)
	settled[Root] = true
	for h.Len() > 0 {
		eid := heap.Pop(h).(EdgeID)
		e := g.Edges[eid]
		if settled[e.To] {
			continue
		}
		nd := dist[e.From] + e.Recreation
		if nd >= dist[e.To] && plan.ParentEdge[e.To] >= 0 {
			continue
		}
		dist[e.To] = nd
		plan.ParentEdge[e.To] = eid
		settled[e.To] = true
		for _, oid := range out[e.To] {
			if !settled[g.Edges[oid].To] {
				heap.Push(h, oid)
			}
		}
	}
	for v := 1; v < g.NumNodes; v++ {
		if !settled[v] {
			return nil, ErrGraph
		}
	}
	return plan, nil
}
