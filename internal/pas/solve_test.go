package pas_test

import (
	"slices"
	"testing"

	"modelhub/internal/pas"
	"modelhub/internal/synth"
)

// "best" returns the cheaper feasible plan of pas-mt and pas-pt: on one RD
// graph pas-pt stores less, on the other pas-mt does, and both meet their
// budgets on each.
func TestCreateBestAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		rd      synth.RDConfig
		alpha   float64
		cheaper string
	}{
		{synth.RDConfig{Snapshots: 12, MatricesPerSnapshot: 3, Seed: 17}, 1.2, "pas-pt"},
		{synth.RDConfig{Snapshots: 30, MatricesPerSnapshot: 4, Seed: 1}, 1.6, "pas-mt"},
	} {
		g := synth.GenerateRD(tc.rd)
		if _, err := pas.SetBudgetsAlphaSPT(g, pas.Independent, tc.alpha); err != nil {
			t.Fatal(err)
		}
		plans := map[string]*pas.Plan{}
		for _, algo := range []string{"pas-mt", "pas-pt", "best"} {
			plan, ok, err := pas.Solve(g, algo, pas.Independent, tc.alpha)
			if err != nil || !ok {
				t.Fatalf("seed %d: %s = feasible %v, %v; want a feasible plan", tc.rd.Seed, algo, ok, err)
			}
			plans[algo] = plan
		}
		mt, pt := plans["pas-mt"].StorageCost(), plans["pas-pt"].StorageCost()
		if cheaper := map[bool]string{true: "pas-pt", false: "pas-mt"}[pt < mt]; mt == pt || cheaper != tc.cheaper {
			t.Fatalf("seed %d: pas-mt stores %v, pas-pt %v; the fixture wants %s strictly cheaper", tc.rd.Seed, mt, pt, tc.cheaper)
		}
		if best := plans["best"]; !slices.Equal(best.ParentEdge, plans[tc.cheaper].ParentEdge) {
			t.Errorf("seed %d: best stores %v; want %s's plan, %v", tc.rd.Seed, best.StorageCost(), tc.cheaper, plans[tc.cheaper].StorageCost())
		}
	}
}
