package pas

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// fig5Graph reproduces the paper's toy example (Fig. 5): two snapshots
// s1 = {m1, m2}, s2 = {m3, m4, m5}, with materialization edges from ν0 and
// delta edges between matrices. Node ids: m1..m5 = 1..5.
func fig5Graph() *Graph {
	g := NewGraph(5)
	// Materialization edges (ν0 -> mi): (storage, recreation).
	g.AddEdge(Root, 1, 2, 1) // m1
	g.AddEdge(Root, 2, 8, 2) // m2
	g.AddEdge(Root, 3, 8, 2) // m3
	g.AddEdge(Root, 4, 8, 2) // m4 (generous; forces deltas to win)
	g.AddEdge(Root, 5, 8, 2) // m5
	// Delta edges (symmetric), loosely following Fig. 5(a).
	g.AddSymmetricEdge(1, 2, 1, 0.5)
	g.AddSymmetricEdge(1, 3, 4, 1)
	g.AddSymmetricEdge(2, 4, 2, 1)
	g.AddSymmetricEdge(3, 4, 4, 1)
	g.AddSymmetricEdge(2, 5, 4, 1)
	g.AddSymmetricEdge(4, 5, 4, 1)
	g.AddSnapshot("s1", []NodeID{1, 2}, 0)
	g.AddSnapshot("s2", []NodeID{3, 4, 5}, 0)
	return g
}

func TestGraphValidate(t *testing.T) {
	g := fig5Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := NewGraph(2)
	bad.AddEdge(Root, 1, 1, 1)
	if err := bad.Validate(); !errors.Is(err, ErrGraph) {
		t.Fatalf("node without incoming edge should fail: %v", err)
	}
	bad2 := NewGraph(1)
	bad2.AddEdge(1, 1, 1, 1)
	if err := bad2.Validate(); !errors.Is(err, ErrGraph) {
		t.Fatal("self edge should fail")
	}
	bad3 := NewGraph(1)
	bad3.AddEdge(Root, 1, -1, 1)
	if err := bad3.Validate(); !errors.Is(err, ErrGraph) {
		t.Fatal("negative cost should fail")
	}
	bad4 := fig5Graph()
	bad4.AddSnapshot("x", []NodeID{99}, 0)
	if err := bad4.Validate(); !errors.Is(err, ErrGraph) {
		t.Fatal("snapshot with unknown node should fail")
	}
}

func TestMSTMinimizesStorage(t *testing.T) {
	g := fig5Graph()
	plan, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// Optimal storage: ν0->m1 (2), m1->m2 (1), m2->m4 (2), m1->m3 (4),
	// m2->m5 or m4->m5 (4) = 13.
	if got := plan.StorageCost(); got != 13 {
		t.Fatalf("MST storage = %v, want 13", got)
	}
}

func TestSPTMinimizesRecreation(t *testing.T) {
	g := fig5Graph()
	plan, err := SPT(g)
	if err != nil {
		t.Fatal(err)
	}
	costs := plan.NodeRecreationCosts()
	// Shortest recreation paths: m1=1, m2=min(2, 1+0.5)=1.5, m3=2, m4=2, m5=2.
	want := []float64{0, 1, 1.5, 2, 2, 2}
	for v, w := range want {
		if math.Abs(costs[v]-w) > 1e-9 {
			t.Fatalf("SPT cost[%d] = %v, want %v", v, costs[v], w)
		}
	}
}

func TestPlanValidateRejects(t *testing.T) {
	g := fig5Graph()
	plan := NewPlan(g)
	if err := plan.Validate(); !errors.Is(err, ErrGraph) {
		t.Fatal("empty plan must be invalid")
	}
	mst, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	// Point a node at an edge that does not target it.
	bad := &Plan{ParentEdge: slices.Clone(mst.ParentEdge), graph: g}
	bad.ParentEdge[1] = bad.ParentEdge[2]
	if err := bad.Validate(); !errors.Is(err, ErrGraph) {
		t.Fatal("mismatched parent edge must be invalid")
	}
}

func TestPlanCycleDetected(t *testing.T) {
	g := NewGraph(2)
	e01 := g.AddEdge(Root, 1, 1, 1)
	g.AddEdge(Root, 2, 1, 1)
	e12 := g.AddEdge(1, 2, 1, 1)
	e21 := g.AddEdge(2, 1, 1, 1)
	_ = e01
	plan := NewPlan(g)
	plan.ParentEdge[1] = e21
	plan.ParentEdge[2] = e12
	if err := plan.Validate(); !errors.Is(err, ErrGraph) {
		t.Fatal("cycle must be detected")
	}
}

func TestSnapshotCostSchemes(t *testing.T) {
	g := fig5Graph()
	mst, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	// MST paths: m1: 1; m2: 1+0.5; m3: 1+1; m4: 1+0.5+1; m5: 1+0.5+1 (via
	// m2) or 1+0.5+1+1 (via m4) depending on tie-break.
	indep1 := mst.SnapshotCost(0, Independent)
	if math.Abs(indep1-2.5) > 1e-9 {
		t.Fatalf("independent s1 = %v, want 2.5", indep1)
	}
	par1 := mst.SnapshotCost(0, Parallel)
	if math.Abs(par1-1.5) > 1e-9 {
		t.Fatalf("parallel s1 = %v, want 1.5", par1)
	}
	// Reusable for s1: edges ν0->m1 (1) and m1->m2 (0.5) counted once.
	reuse1 := mst.SnapshotCost(0, Reusable)
	if math.Abs(reuse1-1.5) > 1e-9 {
		t.Fatalf("reusable s1 = %v, want 1.5", reuse1)
	}
	// Reusable never exceeds independent; parallel never exceeds independent.
	for si := range g.Snapshots {
		ind := mst.SnapshotCost(si, Independent)
		if mst.SnapshotCost(si, Reusable) > ind+1e-9 {
			t.Fatal("reusable cost must not exceed independent")
		}
		if mst.SnapshotCost(si, Parallel) > ind+1e-9 {
			t.Fatal("parallel cost must not exceed independent")
		}
	}
}

func TestFeasible(t *testing.T) {
	g := fig5Graph()
	mst, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	g.Snapshots[0].Budget = 10
	g.Snapshots[1].Budget = 0.1
	ok, violated := mst.Feasible(Independent)
	if ok || len(violated) != 1 || violated[0] != 1 {
		t.Fatalf("feasible = %v, violated = %v", ok, violated)
	}
	g.Snapshots[1].Budget = 0 // unconstrained
	if ok, _ := mst.Feasible(Independent); !ok {
		t.Fatal("unconstrained budgets must be feasible")
	}
}

func TestSubtree(t *testing.T) {
	g := fig5Graph()
	mst, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	sub := mst.Subtree(1)
	if len(sub) != 5 { // m1 is the ancestor of everything in the MST
		t.Fatalf("subtree(m1) = %v", sub)
	}
	sub4 := mst.Subtree(4)
	for _, v := range sub4 {
		if v == 1 || v == 2 {
			t.Fatal("subtree(m4) must not contain its ancestors")
		}
	}
}
