package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{2, 1, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %g, %g; want 1, 3", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread of 1..10 = %g; want (8.25-2.75)/5.5 = 1", got)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %g, %g", q1, q3)
	}
}

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n, percentile int
		value         float64
	}{{99, 0, 0}, {100, 90, 90}, {199, 90, 180}, {200, 95, 190}, {999, 95, 950}, {1000, 99, 990}} {
		got := pickTail(ramp(c.n))
		switch {
		case c.percentile == 0 && got != nil:
			t.Errorf("n=%d: got p%d, want no tail", c.n, got.Percentile)
		case c.percentile != 0 && (got == nil || got.Percentile != c.percentile || got.Value != c.value || got.N != c.n):
			t.Errorf("n=%d: got %+v, want p%d = %g", c.n, got, c.percentile, c.value)
		}
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "gateway", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "gateway", Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "gateway", Start: 90, End: 120}, // returns after its client has the reply
		{ID: 5, Parent: 3, Name: "server", Start: 35, End: 55},
	}
	want := map[int]int64{1: 100 - (60 - 10) - (100 - 90), 2: 30, 3: 30 - 20, 4: 30, 5: 20}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerLinksHandlerSpansToTheOpenClientCall(t *testing.T) {
	tr := newTracer()
	if id := tr.start(levelOp, "off"); id != 0 {
		t.Fatalf("a disabled tracer recorded span %d", id)
	}
	tr.begin(true, 0)
	cycle := tr.start(levelCycle, "cycle")
	op := tr.start(levelOp, "op.publish")
	gw := tr.start(levelGateway, "hub.gateway.publish")
	srv := tr.start(levelServer, "hub.server.publish")
	rep := tr.start(levelReplica, "hub.server.replicate")
	tr.end(levelReplica, rep)
	tr.end(levelServer, srv)
	tr.end(levelOp, op) // the client has its reply before the gateway handler returns
	tr.end(levelGateway, gw)
	direct := tr.start(levelServer, "hub.server.inventory") // a gate, outside any op
	tr.end(levelServer, direct)
	tr.end(levelCycle, cycle)
	for id, parent := range map[int]int{op: cycle, gw: op, srv: gw, rep: srv, direct: cycle} {
		if got := tr.spans[id-1].Parent; got != parent {
			t.Errorf("span %q has parent %d, want %d", tr.spans[id-1].Name, got, parent)
		}
	}
}

func TestJudgeAppliesBoundDirectionAndSpread(t *testing.T) {
	lower := metricSpec{name: "cycle_p50_ms", bound: 0.10}
	higher := metricSpec{name: "cycles_per_s", higher: true, bound: 0.10}
	failed := metricSpec{name: "failed_share"}
	steady := func(v float64) metric { return metric{Value: v, Rounds: []float64{v, v, v}} }
	noisy := func(v float64) metric { return metric{Value: v, Rounds: []float64{0.8 * v, v, 1.2 * v}} }
	for _, c := range []struct {
		name     string
		spec     metricSpec
		old, cur metric
		want     string
	}{
		{"inside the bound", lower, steady(100), steady(105), verdictOK},
		{"slower by more than the bound", lower, steady(100), steady(115), verdictRegression},
		{"faster by more than the bound", lower, steady(100), steady(80), verdictImproved},
		{"throughput down", higher, steady(10), steady(8), verdictRegression},
		{"throughput up", higher, steady(10), steady(12), verdictImproved},
		{"spread wider than the bound hides a small change", lower, noisy(100), steady(105), verdictUnresolved},
		{"nor can it confirm a large one", lower, noisy(100), noisy(130), verdictUnresolved},
		{"failed_share may not rise at all", failed, steady(0), steady(0.001), verdictRegression},
		{"failed_share unchanged", failed, steady(0), steady(0), verdictOK},
	} {
		if got, _ := judge(c.spec, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnRegression(t *testing.T) {
	res := func(ms, failedShare float64) result {
		return result{Workloads: []workloadResult{{Name: "hub-share", EndToEnd: map[string]metric{
			"publish_p50_ms": {Value: ms, Unit: "ms", Rounds: []float64{ms, ms, ms}},
			"failed_share":   {Value: failedShare, Unit: "ratio"},
		}}}}
	}
	var out bytes.Buffer
	if code := compareResults(&out, res(100, 0), res(104, 0)); code != 0 {
		t.Errorf("a change inside the bound exits %d:\n%s", code, out.String())
	}
	if code := compareResults(&out, res(100, 0), res(100, 0.01)); code != 1 {
		t.Errorf("a larger failed_share exits %d", code)
	}
	out.Reset()
	if code := compareResults(&out, res(100, 0), res(120, 0)); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("a regression exits %d:\n%s", code, out.String())
	}
}

func TestCompareRejectsATruncatedOrMismatchedResult(t *testing.T) {
	full := result{Workloads: []workloadResult{
		{Name: "hub-share", EndToEnd: map[string]metric{"publish_p50_ms": {Value: 100}, "failed_share": {}}},
		{Name: "hub-republish", EndToEnd: map[string]metric{"publish_p50_ms": {Value: 100}, "failed_share": {}}},
	}}
	var out bytes.Buffer
	noWorkload := result{Workloads: full.Workloads[:1]}
	if code := compareResults(&out, full, noWorkload); code != 1 {
		t.Errorf("a new result without hub-republish exits %d:\n%s", code, out.String())
	}
	noMetric := result{Workloads: []workloadResult{full.Workloads[0],
		{Name: "hub-republish", EndToEnd: map[string]metric{"failed_share": {}}}}}
	if code := compareResults(&out, full, noMetric); code != 1 {
		t.Errorf("a new result without hub-republish's publish_p50_ms exits %d:\n%s", code, out.String())
	}
	if code := compareResults(&out, noWorkload, full); code != 0 {
		t.Errorf("a workload only the new result has exits %d:\n%s", code, out.String())
	}
	for _, m := range []meta{{Seed: 2, Seconds: 10}, {Seed: 1, Seconds: 20}} {
		old, cur := full, full
		old.Meta, cur.Meta = meta{Seed: 1, Seconds: 10}, m
		if code := compareResults(&out, old, cur); code != 2 {
			t.Errorf("comparing %+v with %+v exits %d, want 2", old.Meta, cur.Meta, code)
		}
	}
}

// pacedWorkload is a workload of one op that sleeps; it notes, in order,
// whether each cycle ran traced and when its probe ran.
type pacedWorkload struct {
	sleep time.Duration
	log   []string
}

func (w *pacedWorkload) cycle(c *cycle) {
	kind := "plain"
	if id := c.tr.start(levelLayer, "x"); id != 0 {
		c.tr.end(levelLayer, id)
		kind = "traced"
	}
	w.log = append(w.log, kind)
	c.op("sleep", func() error { time.Sleep(w.sleep); return nil })
}
func (w *pacedWorkload) counts(map[string]float64) {}
func (w *pacedWorkload) net() *cluster             { return nil }
func (w *pacedWorkload) close()                    {}
func (w *pacedWorkload) probes() []probe {
	return []probe{{"p", func(map[string][]float64) error { w.log = append(w.log, "probe"); return nil }}}
}

func TestTracedRoundPairsTracedAndPlainCycles(t *testing.T) {
	w := &pacedWorkload{}
	s := runRound(context.Background(), w, newTracer(), round{traced: true, warmup: 1, minCycles: 4})
	want := "traced traced plain probe plain traced probe" // warm-up, then two pairs in alternating order
	if got := strings.Join(w.log, " "); got != want {
		t.Errorf("cycles ran as %q, want %q", got, want)
	}
	if len(s.cycleMS) != 2 || len(s.plainMS) != 2 || len(s.ops["sleep"]) != 2 {
		t.Errorf("kept %d traced, %d plain cycles and %d op samples; want 2, 2, 2", len(s.cycleMS), len(s.plainMS), len(s.ops["sleep"]))
	}
	w.log = nil
	runRound(context.Background(), w, newTracer(), round{warmup: 1, minCycles: 2})
	if got := strings.Join(w.log, " "); got != "plain plain plain" {
		t.Errorf("an untraced round ran %q", got)
	}
}

func TestWindowOpensAfterTheWarmUp(t *testing.T) {
	w := &pacedWorkload{sleep: 10 * time.Millisecond}
	window := 30 * time.Millisecond
	s := runRound(context.Background(), w, newTracer(), round{window: window, warmup: 5, minCycles: 1})
	measured := 0.0
	for _, ms := range s.cycleMS {
		measured += ms
	}
	if measured < 0.8*float64(window.Milliseconds()) {
		t.Errorf("measured %.0f ms of cycles in a %v window that 50 ms of warm-up preceded", measured, window)
	}
}

func TestTraceFlagAcceptsTheDriverSpelling(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "hub-share", "--trace", "1", "--seed", "3"})
	if want := "--workload hub-share -trace=1 --seed 3"; strings.Join(got, " ") != want {
		t.Errorf("got %q, want %q", strings.Join(got, " "), want)
	}
	if got := normalizeTrace([]string{"-trace"}); len(got) != 1 || got[0] != "-trace" {
		t.Errorf("a bare -trace became %q", got)
	}
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeEveryWorkloadEmitsWhatBenchmarkJSONNames runs each workload for
// two traced and two plain cycles of a traced round against the in-process cluster and
// checks that every correctness gate holds and that every workload and
// metric BENCHMARK.json names comes out, with the unit it declares.
func TestSmokeEveryWorkloadEmitsWhatBenchmarkJSONNames(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if strings.Join(decl.Command, " ") != "go run ./bench" || len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("BENCHMARK.json runs %q in %q", decl.Command, decl.Paths)
	}
	if len(decl.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloadDefs))
	}
	b, err := newBench(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.cleanup)
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitFormed := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, def := range workloadDefs {
		if decl.Workloads[i].Name != def.name || decl.Workloads[i].Why != def.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)",
				i, decl.Workloads[i].Name, decl.Workloads[i].Why, def.name, def.why)
		}
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			p, err := b.prepare(ctx, def, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer p.w.close()
			s := runRound(ctx, p.w, p.tr, round{traced: true, minCycles: 4})
			if s.failed > 0 || s.attempted == 0 {
				t.Fatalf("%d of %d correctness checks failed", s.failed, s.attempted)
			}
			if len(s.cycleMS) != 2 || len(s.plainMS) != 2 {
				t.Fatalf("measured %d traced and %d plain cycles, want 2 and 2", len(s.cycleMS), len(s.plainMS))
			}
			endToEndMetrics := endToEnd([]sample{s}, p.setups)
			for _, m := range decl.EndToEnd {
				got, ok := endToEndMetrics[m.Name]
				if !ok || got.Value <= 0 || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: emitted %v %+v, BENCHMARK.json wants a positive value in %s", m.Name, ok, got, m.Unit)
				}
				if !wellFormed.MatchString(m.Name) || !unitFormed.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
					t.Errorf("end-to-end %s (%s, bound %g) is outside the contract's limits", m.Name, m.Unit, m.Bound)
				}
			}
			layers := p.layers(s)
			for _, m := range decl.PerLayer {
				got, ok := layers[m.Name]
				if !ok && unitOf(m.Name) != m.Unit || ok && got.Unit != m.Unit {
					t.Errorf("per-layer %s: emitted %v in %q, BENCHMARK.json says %s", m.Name, ok, got.Unit, m.Unit)
				}
				if !wellFormed.MatchString(m.Name) || !unitFormed.MatchString(m.Unit) {
					t.Errorf("per-layer %s (%s) is outside the contract's limits", m.Name, m.Unit)
				}
			}
		})
	}
	// BENCHMARK.json's end_to_end list is the rows of endToEndSpec that the
	// driver run prints: one table of units, directions and bounds.
	if len(decl.EndToEnd) != len(driverEndToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the driver run prints %d", len(decl.EndToEnd), len(driverEndToEnd))
	}
	for i, name := range driverEndToEnd {
		if i >= len(decl.EndToEnd) {
			break
		}
		var spec metricSpec
		for _, m := range endToEndSpec {
			if m.name == name {
				spec = m
			}
		}
		better := "lower"
		if spec.higher {
			better = "higher"
		}
		if d := decl.EndToEnd[i]; d.Name != spec.name || d.Unit != spec.unit || d.Better != better || d.Bound != spec.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, endToEndSpec %+v", i, d, spec)
		}
	}
	if len(decl.PerLayer) != len(perLayerSpec) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the traced driver run prints %d", len(decl.PerLayer), len(perLayerSpec))
	}
	for i, spec := range perLayerSpec {
		if i >= len(decl.PerLayer) {
			break
		}
		better := "lower"
		if spec.higher {
			better = "higher"
		}
		if d := decl.PerLayer[i]; d.Name != spec.name || d.Unit != spec.unit || d.Better != better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, d, spec)
		}
	}
}
