package experiments

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"modelhub/internal/delta"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/synth"
	"modelhub/internal/tensor"
)

// The experiment tests check the *shape* of each result — who wins, what
// trends hold — mirroring the reproduction contract in DESIGN.md.

func fixture(t *testing.T) *TrainedModel {
	t.Helper()
	m, err := TrainFixture("lenet", 300, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.BaseAcc < 0.7 {
		t.Fatalf("fixture accuracy too low: %v", m.BaseAcc)
	}
	return m
}

// TestRunMeta: the block stamped onto mhbench's JSON output names the
// hardware and runtime it ran on.
func TestRunMeta(t *testing.T) {
	m := RunMeta()
	if m.NumCPU != runtime.NumCPU() || m.GOMAXPROCS != runtime.GOMAXPROCS(0) || m.GoVersion != runtime.Version() {
		t.Fatalf("meta block not stamped: %+v", m)
	}
	if m.Timestamp == "" || m.OS != runtime.GOOS || m.Arch != runtime.GOARCH {
		t.Fatalf("meta block incomplete: %+v", m)
	}
}

func TestTable1(t *testing.T) {
	rows, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].MiniRegex != rows[0].Paper.Regex {
		t.Fatalf("mini LeNet regex %q != paper %q", rows[0].MiniRegex, rows[0].Paper.Regex)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "LeNet") {
		t.Fatal("print output missing models")
	}
}

func TestFig6aShape(t *testing.T) {
	m := fixture(t)
	rows, err := RunFig6a([]*TrainedModel{m})
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]Fig6aRow{}
	for _, r := range rows {
		byScheme[r.Scheme.String()] = r
	}
	// Lossless float32 must have (near) zero accuracy drop and modest
	// compression.
	f32 := byScheme["float32"]
	if f32.AccuracyDrop != 0 {
		t.Fatalf("float32 drop = %v", f32.AccuracyDrop)
	}
	if f32.Compression < 1 || f32.Compression > 3 {
		t.Fatalf("float32 compression = %v", f32.Compression)
	}
	// Aggressive quantization compresses far more (paper: ~20x) at a small
	// accuracy cost.
	q4 := byScheme["quant-uniform-4"]
	if q4.Compression < 5*f32.Compression {
		t.Fatalf("quant-4 compression %v should dwarf float32 %v", q4.Compression, f32.Compression)
	}
	if q4.AccuracyDrop > 0.5 {
		t.Fatalf("quant-4 accuracy collapse: %v", q4.AccuracyDrop)
	}
	// 16-bit schemes sit in between with tiny drops.
	f16 := byScheme["float16"]
	if f16.AccuracyDrop > 0.02 {
		t.Fatalf("float16 drop = %v", f16.AccuracyDrop)
	}
	if f16.Compression <= f32.Compression {
		t.Fatal("float16 must compress better than float32")
	}
	var buf bytes.Buffer
	PrintFig6a(&buf, rows)
	if !strings.Contains(buf.String(), "quant-uniform-4") {
		t.Fatal("print output incomplete")
	}
}

func TestFig6bShape(t *testing.T) {
	rows, err := RunFig6b(2)
	if err != nil {
		t.Fatal(err)
	}
	get := func(scenario string, op delta.Op) float64 {
		for _, r := range rows {
			if r.Scenario == scenario && r.Op == op {
				return r.Percent
			}
		}
		t.Fatalf("missing row %s/%v", scenario, op)
		return 0
	}
	// Paper finding 1: for merely similar (retrained) models, delta does
	// not significantly beat materialization.
	if get("similar", delta.Sub) < 0.9*get("similar", delta.None) {
		t.Fatalf("similar: delta %v should not beat materialize %v by much",
			get("similar", delta.Sub), get("similar", delta.None))
	}
	// Paper finding 2: fine-tuned pairs and adjacent snapshots delta well.
	if get("snapshots", delta.IntSub) >= get("snapshots", delta.None) {
		t.Fatalf("snapshots: intsub delta %v should beat materialize %v",
			get("snapshots", delta.IntSub), get("snapshots", delta.None))
	}
	if get("finetuned", delta.IntSub) >= get("finetuned", delta.None) {
		t.Fatal("finetuned: delta should beat materialize")
	}
	var buf bytes.Buffer
	PrintFig6b(&buf, rows)
	if !strings.Contains(buf.String(), "snapshots") {
		t.Fatal("print output incomplete")
	}
}

// RunFig6bSynthetic is a fast Fig 6(b) variant over synthetic weight
// matrices with a controlled drift level.
func RunFig6bSynthetic(seed int64, rows, cols int, drift float64) ([]Fig6bRow, error) {
	rng := rand.New(rand.NewSource(seed))
	base := tensor.RandNormal(rng, rows, cols, 0.1)
	target := base.Perturb(rng, drift)
	var out []Fig6bRow
	for _, op := range []delta.Op{delta.None, delta.Sub, delta.IntSub, delta.XOR} {
		fp, err := delta.MeasureDelta(op, base, target, false)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6bRow{Scenario: "synthetic", Op: op, Percent: 100 * float64(fp.CompressedBytes) / float64(fp.RawBytes)})
	}
	return out, nil
}

func TestFig6bSynthetic(t *testing.T) {
	rows, err := RunFig6bSynthetic(3, 64, 64, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var mat, intsub float64
	for _, r := range rows {
		switch r.Op {
		case delta.None:
			mat = r.Percent
		case delta.IntSub:
			intsub = r.Percent
		}
	}
	if intsub >= mat {
		t.Fatalf("drifted matrices: intsub %v should beat materialize %v", intsub, mat)
	}
}

func TestFig6cShape(t *testing.T) {
	rows, bounds, err := RunFig6c(Fig6cConfig{Snapshots: 20, Alphas: []float64{1.4, 2.0, 4.0}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bounds.MSTStorage >= bounds.SPTStorage {
		t.Fatal("MST must be cheaper than SPT on RD graphs")
	}
	get := func(algo string, alpha float64) Fig6cRow {
		for _, r := range rows {
			if r.Algorithm == algo && r.Alpha == alpha {
				return r
			}
		}
		t.Fatalf("missing row %s/%v", algo, alpha)
		return Fig6cRow{}
	}
	// PAS algorithms satisfy the budgets at every α in the sweep.
	for _, alpha := range []float64{1.4, 2.0, 4.0} {
		if !get("pas-mt", alpha).Feasible {
			t.Fatalf("pas-mt infeasible at α=%v", alpha)
		}
		if !get("pas-pt", alpha).Feasible {
			t.Fatalf("pas-pt infeasible at α=%v", alpha)
		}
	}
	// The PAS winner beats or matches LAST at moderate α (the paper's
	// headline for Fig 6(c)).
	for _, alpha := range []float64{1.4, 2.0} {
		best := get("pas-mt", alpha).Storage
		if pt := get("pas-pt", alpha).Storage; pt < best {
			best = pt
		}
		if best > get("last", alpha).Storage+1e-9 {
			t.Fatalf("α=%v: PAS best %v worse than LAST %v", alpha, best, get("last", alpha).Storage)
		}
	}
	// At loose α the PAS storage approaches the MST.
	loose := get("pas-mt", 4.0).Storage
	if loose > 1.2*bounds.MSTStorage {
		t.Fatalf("loose α storage %v should approach MST %v", loose, bounds.MSTStorage)
	}
	var buf bytes.Buffer
	PrintFig6c(&buf, rows, bounds)
	if !strings.Contains(buf.String(), "pas-mt") {
		t.Fatal("print output incomplete")
	}
}

func TestFig6dShape(t *testing.T) {
	m := fixture(t)
	rows, err := RunFig6d(m, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Error rate and undetermined fraction must be non-increasing in the
	// number of planes.
	for i := 1; i < len(rows); i++ {
		if rows[i].ErrorRate > rows[i-1].ErrorRate+1e-9 {
			t.Fatalf("error rate must not grow with more planes: %+v", rows)
		}
		if rows[i].NeedMoreTop1 > rows[i-1].NeedMoreTop1+1e-9 {
			t.Fatalf("undetermined fraction must not grow: %+v", rows)
		}
	}
	// With two byte planes the committed prediction is almost always right
	// (the paper: "prediction errors requiring full precision are very
	// small").
	if rows[1].ErrorRate > 0.1 {
		t.Fatalf("2-plane error rate too high: %v", rows[1].ErrorRate)
	}
	var buf bytes.Buffer
	PrintFig6d(&buf, rows)
	if !strings.Contains(buf.String(), "PLANES") {
		t.Fatal("print output incomplete")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := RunTable4(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	find := func(scheme string, normalized, bytewise bool) Tab4Row {
		for _, r := range rows {
			if r.Scheme == scheme && r.Normalized == normalized && r.Bytewise == bytewise {
				return r
			}
		}
		t.Fatalf("missing row %s/%v/%v", scheme, normalized, bytewise)
		return Tab4Row{}
	}
	// Delta-SUB beats materialization in every configuration (fine-tuned
	// pair).
	for _, r := range rows {
		if r.DeltaSub >= r.Materialize {
			t.Fatalf("delta %v should beat materialize %v in %+v", r.DeltaSub, r.Materialize, r)
		}
	}
	// Normalization helps the lossless materialized footprint (paper:
	// 92.83%% -> 68.06%%).
	if find("lossless", true, false).Materialize >= find("lossless", false, false).Materialize {
		t.Fatal("normalization should shrink the lossless materialized footprint")
	}
	// Bytewise helps within each scheme family.
	if find("lossless", false, true).Materialize >= find("lossless", false, false).Materialize {
		t.Fatal("bytewise should shrink the lossless footprint")
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "Normalization") {
		t.Fatal("print output incomplete")
	}
}

func TestTable5Shape(t *testing.T) {
	dir := t.TempDir()
	rows, err := RunTable5(dir, Tab5Config{Versions: 2, SnapshotsPerVersion: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Partial retrieval reads fewer bytes than full retrieval for the PAS
	// plan, the archive RunTable5 archives last and leaves in dir. The bytes
	// are counted: the rows hold one sub-millisecond wall-clock timing per
	// query, which a single preemption inverts.
	store, err := pas.Open(filepath.Join(dir, ".dlv", "pas"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	obs.Enable() // counters are no-ops while metrics are disabled
	readBytes := obs.GetCounter("pas.chunk.read_bytes")
	read := func(prefix int) int64 {
		before := readBytes.Value()
		for _, snap := range store.Snapshots() {
			if _, err := store.GetSnapshot(snap, prefix, pas.Independent); err != nil {
				t.Fatal(err)
			}
		}
		return readBytes.Value() - before
	}
	if one, full := read(1), read(4); one <= 0 || one >= full {
		t.Fatalf("1-byte retrieval read %d bytes, full retrieval %d", one, full)
	}
	var buf bytes.Buffer
	PrintTable5(&buf, rows)
	if !strings.Contains(buf.String(), "min-storage") {
		t.Fatal("print output incomplete")
	}
}

func TestAblationBudgetSplit(t *testing.T) {
	rows, err := RunAblationBudgetSplit(7, []float64{1.4, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Group constraints never cost more storage than the subdivided
		// formulation (the paper's argument for co-usage constraints).
		if r.GroupStorage > r.SplitStorage+1e-9 {
			t.Fatalf("α=%v: group %v should not exceed split %v", r.Alpha, r.GroupStorage, r.SplitStorage)
		}
		if r.GroupStorage < r.MSTStorage-1e-9 {
			t.Fatal("nothing beats the MST")
		}
	}
	var buf bytes.Buffer
	PrintAblationBudget(&buf, rows)
	if !strings.Contains(buf.String(), "SUBDIVIDED") {
		t.Fatal("print output incomplete")
	}
}

func TestAblationZlib(t *testing.T) {
	rows, err := RunAblationZlibLevel(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Higher levels never produce larger output.
	if rows[2].Bytes > rows[0].Bytes {
		t.Fatalf("level 9 (%d) larger than level 1 (%d)", rows[2].Bytes, rows[0].Bytes)
	}
	var buf bytes.Buffer
	PrintAblationZlib(&buf, rows)
	if !strings.Contains(buf.String(), "LEVEL") {
		t.Fatal("print output incomplete")
	}
}

func TestFineTuneStaysClose(t *testing.T) {
	m := fixture(t)
	ft, err := FineTune(m, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Net.Snapshot()
	for name, w := range ft {
		d, err := w.MeanAbsDiff(snap[name])
		if err != nil {
			t.Fatal(err)
		}
		if d > 0.05 {
			t.Fatalf("fine-tuned %s drifted too far: %v", name, d)
		}
	}
}

func TestTrainFixtureUnknownArch(t *testing.T) {
	if _, err := TrainFixture("nope", 10, 1, 1); err == nil {
		t.Fatal("unknown arch must error")
	}
}

func TestScaleShape(t *testing.T) {
	rows, err := RunScale(11, []int{20, 40}, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Algorithm != "last" && !r.Feasible {
			t.Fatalf("%s infeasible at %d snapshots", r.Algorithm, r.Snapshots)
		}
		if r.StorageOverMST < 1 {
			t.Fatalf("storage below MST bound: %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintScale(&buf, rows)
	if !strings.Contains(buf.String(), "SNAPSHOTS") {
		t.Fatal("print output incomplete")
	}
}

func TestFig6cSDShape(t *testing.T) {
	rows, bounds, err := RunFig6cSD(t.TempDir(), synth.SDConfig{
		Versions: 3, SnapshotsPerVersion: 2, ItersPerSnapshot: 4, TrainExamples: 120, Seed: 12,
	}, []float64{1.5, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if bounds.MSTStorage >= bounds.SPTStorage {
		t.Fatal("real SD deltas must make MST cheaper than SPT")
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Algorithm != "last" && !r.Feasible {
			t.Fatalf("%s infeasible at α=%v on SD", r.Algorithm, r.Alpha)
		}
		if r.Storage < bounds.MSTStorage-1e-9 || r.Storage > bounds.SPTStorage*1.01 {
			t.Fatalf("storage %v outside [MST, SPT] bounds", r.Storage)
		}
	}
	var buf bytes.Buffer
	PrintFig6cSD(&buf, rows, bounds)
	if !strings.Contains(buf.String(), "real measured") {
		t.Fatal("print output incomplete")
	}
}

func TestAblationGranularity(t *testing.T) {
	rows, err := RunAblationGranularity(t.TempDir(), 13, []float64{1.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// Segment-level decisions can only help the optimizer at equal budgets.
	if r.PlaneStorage > r.MatrixStorage*1.02 {
		t.Fatalf("plane plan %v should not exceed matrix plan %v", r.PlaneStorage, r.MatrixStorage)
	}
	var buf bytes.Buffer
	PrintAblationGranularity(&buf, rows)
	if !strings.Contains(buf.String(), "PLANE PLAN") {
		t.Fatal("print output incomplete")
	}
}
