package pas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a random storage graph shaped like real repositories:
// every node has a materialization edge from ν0 (expensive storage, cheap
// recreation) plus delta edges to a few "nearby" nodes (cheap storage,
// recreation proportional to size). Snapshots group consecutive nodes.
func randomGraph(seed int64, n, groupSize int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	for v := 1; v <= n; v++ {
		mat := 5 + rng.Float64()*5
		g.AddEdge(Root, NodeID(v), mat, mat/4)
	}
	for v := 2; v <= n; v++ {
		// Delta to the previous node and one random earlier node.
		d := 0.5 + rng.Float64()*2
		g.AddSymmetricEdge(NodeID(v-1), NodeID(v), d, d/2)
		if v > 2 {
			u := 1 + rng.Intn(v-2)
			d2 := 1 + rng.Float64()*3
			g.AddSymmetricEdge(NodeID(u), NodeID(v), d2, d2/2)
		}
	}
	for start := 1; start <= n; start += groupSize {
		end := start + groupSize
		if end > n+1 {
			end = n + 1
		}
		var nodes []NodeID
		for v := start; v < end; v++ {
			nodes = append(nodes, NodeID(v))
		}
		g.AddSnapshot("s", nodes, 0)
	}
	return g
}

func TestLASTBalances(t *testing.T) {
	g := randomGraph(1, 40, 4)
	spt, err := SPT(g)
	if err != nil {
		t.Fatal(err)
	}
	sptDist := spt.NodeRecreationCosts()
	mst, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{1.2, 2, 4} {
		plan, err := LAST(g, alpha)
		if err != nil {
			t.Fatal(err)
		}
		costs := plan.NodeRecreationCosts()
		for v := 1; v < g.NumNodes; v++ {
			if costs[v] > alpha*sptDist[v]+1e-9 {
				t.Fatalf("alpha=%v: node %d recreation %v > %v", alpha, v, costs[v], alpha*sptDist[v])
			}
		}
		if plan.StorageCost() < mst.StorageCost()-1e-9 {
			t.Fatal("no plan can beat the MST storage")
		}
	}
}

func TestLASTLooseAlphaApproachesMST(t *testing.T) {
	g := randomGraph(2, 40, 4)
	mst, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := LAST(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if loose.StorageCost() > mst.StorageCost()*1.01 {
		t.Fatalf("loose LAST storage %v should approach MST %v", loose.StorageCost(), mst.StorageCost())
	}
	tight, err := LAST(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	spt, err := SPT(g)
	if err != nil {
		t.Fatal(err)
	}
	sptDist := spt.NodeRecreationCosts()
	costs := tight.NodeRecreationCosts()
	for v := 1; v < g.NumNodes; v++ {
		if math.Abs(costs[v]-sptDist[v]) > 1e-9 {
			t.Fatalf("alpha=1 LAST must match SPT distances at node %d: %v vs %v", v, costs[v], sptDist[v])
		}
	}
}

// checkSatisfiesBudgets runs a PAS optimizer on seeded random graphs under
// α=1.6 budgets and checks its plans without trusting its own ok: each plan
// is a spanning arborescence, Feasible finds every snapshot within budget,
// and ok says the same.
func checkSatisfiesBudgets(t *testing.T, name string, algo func(*Graph, Scheme) (*Plan, bool, error)) {
	t.Helper()
	for seed := int64(0); seed < 24; seed++ {
		for _, scheme := range []Scheme{Independent, Parallel} {
			g := randomGraph(seed, 50, 5)
			if _, err := SetBudgetsAlphaSPT(g, scheme, 1.6); err != nil {
				t.Fatal(err)
			}
			plan, ok, err := algo(g, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Validate(); err != nil {
				t.Errorf("%s seed %d %v: %v", name, seed, scheme, err)
			}
			if feasible, violated := plan.Feasible(scheme); !feasible || !ok {
				t.Errorf("%s seed %d %v: ok=%v, Feasible=%v (violates %v) under α=1.6 budgets", name, seed, scheme, ok, feasible, violated)
			}
		}
	}
}

func TestPASMTSatisfiesBudgets(t *testing.T) { checkSatisfiesBudgets(t, "PAS-MT", PASMT) }

func TestPASPTSatisfiesBudgets(t *testing.T) { checkSatisfiesBudgets(t, "PAS-PT", PASPT) }

// With unconstrained budgets both PAS algorithms must return (near-)MST
// storage; with α=1 they must be close to the SPT.
func TestPASExtremes(t *testing.T) {
	g := randomGraph(5, 40, 4)
	mst, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained.
	for si := range g.Snapshots {
		g.Snapshots[si].Budget = 0
	}
	for name, algo := range map[string]func(*Graph, Scheme) (*Plan, bool, error){"MT": PASMT, "PT": PASPT} {
		plan, ok, err := algo(g, Independent)
		if err != nil || !ok {
			t.Fatalf("%s unconstrained: ok=%v err=%v", name, ok, err)
		}
		if plan.StorageCost() > mst.StorageCost()+1e-9 {
			t.Fatalf("%s unconstrained storage %v > MST %v", name, plan.StorageCost(), mst.StorageCost())
		}
	}
	// α=1: budgets equal the SPT snapshot costs; the SPT itself is feasible,
	// so the algorithms must find a feasible plan.
	if _, err := SetBudgetsAlphaSPT(g, Independent, 1.0); err != nil {
		t.Fatal(err)
	}
	for name, algo := range map[string]func(*Graph, Scheme) (*Plan, bool, error){"MT": PASMT, "PT": PASPT} {
		_, ok, err := algo(g, Independent)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Logf("%s: α=1.0 not satisfied (heuristic; acceptable but noted)", name)
		}
	}
}

// Paper Fig 6(c) shape: for moderate α the PAS algorithms must find storage
// well below LAST run at the same α, because LAST cannot exploit group
// budgets.
func TestPASBeatsLASTOnGroupConstraints(t *testing.T) {
	g := randomGraph(6, 60, 6)
	spt, err := SetBudgetsAlphaSPT(g, Independent, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	_ = spt
	mt, okMT, err := PASMT(g, Independent)
	if err != nil || !okMT {
		t.Fatalf("MT: ok=%v err=%v", okMT, err)
	}
	pt, okPT, err := PASPT(g, Independent)
	if err != nil || !okPT {
		t.Fatalf("PT: ok=%v err=%v", okPT, err)
	}
	last, err := LAST(g, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Min(mt.StorageCost(), pt.StorageCost())
	if best > last.StorageCost()+1e-9 {
		t.Fatalf("PAS best %v should not exceed LAST %v at equal α", best, last.StorageCost())
	}
}

// Spanning-tree invariant (paper Lemma 2): every plan any algorithm returns
// is a spanning arborescence.
func TestAllPlansAreSpanningTreesProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(seed%21+21)%21 // 10..30
		g := randomGraph(seed, n, 3)
		if _, err := SetBudgetsAlphaSPT(g, Independent, 1.5); err != nil {
			return false
		}
		plans := []*Plan{}
		if p, err := MST(g); err == nil {
			plans = append(plans, p)
		}
		if p, err := SPT(g); err == nil {
			plans = append(plans, p)
		}
		if p, err := LAST(g, 1.5); err == nil {
			plans = append(plans, p)
		}
		if p, _, err := PASMT(g, Independent); err == nil {
			plans = append(plans, p)
		}
		if p, _, err := PASPT(g, Independent); err == nil {
			plans = append(plans, p)
		}
		if len(plans) != 5 {
			return false
		}
		for _, p := range plans {
			if err := p.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Tightening budgets must never reduce storage cost (monotonicity of the
// trade-off curve in Fig 6(c)).
func TestStorageMonotoneInAlpha(t *testing.T) {
	prev := math.Inf(1)
	for _, alpha := range []float64{1.2, 1.6, 2.0, 3.0, 100} {
		g := randomGraph(7, 50, 5)
		if _, err := SetBudgetsAlphaSPT(g, Independent, alpha); err != nil {
			t.Fatal(err)
		}
		plan, ok, err := PASMT(g, Independent)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		cost := plan.StorageCost()
		if cost > prev*1.25 {
			t.Fatalf("alpha=%v: storage %v much worse than tighter alpha (%v)", alpha, cost, prev)
		}
		prev = cost
	}
}

func TestSetBudgetsAlphaSPT(t *testing.T) {
	g := fig5Graph()
	spt, err := SetBudgetsAlphaSPT(g, Independent, 2)
	if err != nil {
		t.Fatal(err)
	}
	for si := range g.Snapshots {
		want := 2 * spt.SnapshotCost(si, Independent)
		if math.Abs(g.Snapshots[si].Budget-want) > 1e-9 {
			t.Fatalf("budget[%d] = %v, want %v", si, g.Snapshots[si].Budget, want)
		}
	}
}

func TestRefineReportsInfeasible(t *testing.T) {
	g := fig5Graph()
	// Impossible budget: below even the SPT cost.
	g.Snapshots[0].Budget = 0.01
	plan, ok, err := PASMT(g, Independent)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("impossible budget must be reported infeasible")
	}
	if err := plan.Validate(); err != nil {
		t.Fatal("even infeasible plans must be valid trees")
	}
}

// The paper leaves improving reusable-scheme solutions to future work; our
// optimizers accept the scheme, evaluating true Steiner-tree costs in the
// stopping condition while steering with the independent-scheme heuristic.
func TestPASReusableScheme(t *testing.T) {
	for name, algo := range map[string]func(*Graph, Scheme) (*Plan, bool, error){"MT": PASMT, "PT": PASPT} {
		g := randomGraph(30, 40, 4)
		if _, err := SetBudgetsAlphaSPT(g, Reusable, 1.6); err != nil {
			t.Fatal(err)
		}
		plan, ok, err := algo(g, Reusable)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok {
			t.Fatalf("%s: reusable budgets not satisfied at α=1.6", name)
		}
		if feasible, violated := plan.Feasible(Reusable); !feasible {
			t.Fatalf("%s: claims ok but violates %v", name, violated)
		}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// Reusable budgets are weaker constraints than independent ones, so the
// optimizer should find storage at least as good.
func TestReusableAllowsMoreCompression(t *testing.T) {
	gInd := randomGraph(31, 40, 4)
	if _, err := SetBudgetsAlphaSPT(gInd, Independent, 1.3); err != nil {
		t.Fatal(err)
	}
	ind, okInd, err := PASMT(gInd, Independent)
	if err != nil || !okInd {
		t.Fatalf("independent: ok=%v err=%v", okInd, err)
	}
	gReu := randomGraph(31, 40, 4)
	if _, err := SetBudgetsAlphaSPT(gReu, Reusable, 1.3); err != nil {
		t.Fatal(err)
	}
	reu, okReu, err := PASMT(gReu, Reusable)
	if err != nil || !okReu {
		t.Fatalf("reusable: ok=%v err=%v", okReu, err)
	}
	if reu.StorageCost() > ind.StorageCost()*1.05 {
		t.Fatalf("reusable storage %v should not be much worse than independent %v",
			reu.StorageCost(), ind.StorageCost())
	}
}
