package modelhub

// Benchmark harness: one benchmark family per table and figure of the
// paper's evaluation (Sec. V). The figures' full sweeps are produced by
// `go run ./cmd/mhbench`; these testing.B benchmarks measure the kernels
// behind each experiment so regressions in the hot paths show up in
// `go test -bench`.
//
//	Table I   -> BenchmarkTable1ArchRegex
//	Fig 6(a)  -> BenchmarkFig6aEncode/<scheme>
//	Fig 6(b)  -> BenchmarkFig6bDelta/<op>
//	Fig 6(c)  -> BenchmarkFig6cPlan/<algo>
//	Fig 6(d)  -> BenchmarkFig6dProgressive, BenchmarkFig6dIntervalForward
//	Table IV  -> BenchmarkTable4Cell/<config>
//	Table V   -> BenchmarkTable5Retrieval/<plan>/<query>/<scheme>
//	Ablations -> BenchmarkAblationZlibLevel/<body>/<plane>/<level>, BenchmarkAblationBudgetSplit
//	End2End   -> BenchmarkLifecycleCommit, BenchmarkDQLSelect
//	Pull      -> BenchmarkPASOpen

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"modelhub/internal/core"
	"modelhub/internal/data"
	"modelhub/internal/delta"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/dql"
	"modelhub/internal/experiments"
	"modelhub/internal/floatenc"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/perturb"
	"modelhub/internal/synth"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// ---- shared fixtures (built once) ----

var (
	onceModel     sync.Once
	benchModel    *experiments.TrainedModel
	benchModelErr error
)

func trainedModel(b *testing.B) *experiments.TrainedModel {
	b.Helper()
	onceModel.Do(func() {
		benchModel, benchModelErr = experiments.TrainFixture("lenet", 400, 3, 1)
	})
	if benchModelErr != nil {
		b.Fatal(benchModelErr)
	}
	return benchModel
}

var (
	onceMat               sync.Once
	benchBase, benchDrift *tensor.Matrix
)

func driftedPair(b *testing.B) (*tensor.Matrix, *tensor.Matrix) {
	b.Helper()
	onceMat.Do(func() {
		rng := rand.New(rand.NewSource(7))
		benchBase = tensor.RandNormal(rng, 256, 256, 0.05)
		benchDrift = benchBase.Perturb(rng, 1e-4)
	})
	return benchBase, benchDrift
}

var (
	onceStore     sync.Once
	benchStores   map[string]*pas.Store
	benchStoreErr error
)

// storeFixtures archives one SD-style snapshot family under the three plans
// Table V compares.
func storeFixtures(b *testing.B) map[string]*pas.Store {
	b.Helper()
	onceStore.Do(func() {
		benchStores = map[string]*pas.Store{}
		rng := rand.New(rand.NewSource(11))
		base := map[string]*tensor.Matrix{
			"conv1": tensor.RandNormal(rng, 16, 40, 0.1),
			"ip1":   tensor.RandNormal(rng, 64, 300, 0.1),
			"ip2":   tensor.RandNormal(rng, 10, 65, 0.1),
		}
		var snaps []pas.SnapshotIn
		cur := base
		for i := 0; i < 6; i++ {
			snap := pas.SnapshotIn{ID: fmt.Sprintf("s%d", i), Matrices: map[string]*tensor.Matrix{}}
			for name, m := range cur {
				snap.Matrices[name] = m.Perturb(rng, 1e-3)
			}
			snaps = append(snaps, snap)
			cur = snap.Matrices
		}
		for _, cfg := range []struct {
			label string
			algo  string
			alpha float64
		}{
			{"materialization", "spt", 0},
			{"min-storage", "mst", 0},
			{"pas", "pas-mt", 1.6},
		} {
			dir, err := os.MkdirTemp("", "bench-store-*")
			if err != nil {
				benchStoreErr = err
				return
			}
			st, err := pas.Create(dir, snaps, pas.Options{Algorithm: cfg.algo, Alpha: cfg.alpha})
			if err != nil {
				benchStoreErr = err
				return
			}
			benchStores[cfg.label] = st
		}
	})
	if benchStoreErr != nil {
		b.Fatal(benchStoreErr)
	}
	return benchStores
}

// ---- Table I ----

func BenchmarkTable1ArchRegex(b *testing.B) {
	def := zoo.VGGMini("vgg")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := zoo.ArchRegex(def); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 6(a): float representation schemes ----

func BenchmarkFig6aEncode(b *testing.B) {
	base, _ := driftedPair(b)
	for _, scheme := range experiments.Fig6aSchemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			b.SetBytes(int64(4 * base.Len()))
			for i := 0; i < b.N; i++ {
				enc, err := floatenc.Encode(scheme, base)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := floatenc.Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig 6(b): delta schemes ----

func BenchmarkFig6bDelta(b *testing.B) {
	base, target := driftedPair(b)
	for _, op := range []delta.Op{delta.None, delta.Sub, delta.IntSub, delta.XOR} {
		b.Run(op.String(), func(b *testing.B) {
			b.SetBytes(int64(4 * target.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := delta.MeasureDelta(op, base, target, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig 6(c): plan optimization algorithms ----

func BenchmarkFig6cPlan(b *testing.B) {
	makeGraph := func() *pas.Graph {
		return synth.GenerateRD(synth.RDConfig{Snapshots: 30, MatricesPerSnapshot: 4, Seed: 13})
	}
	b.Run("mst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := makeGraph()
			if _, err := pas.MST(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("last", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := makeGraph()
			if _, err := pas.LAST(g, 1.6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pas-mt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := makeGraph()
			if _, err := pas.SetBudgetsAlphaSPT(g, pas.Independent, 1.6); err != nil {
				b.Fatal(err)
			}
			if _, _, err := pas.PASMT(g, pas.Independent); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pas-pt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := makeGraph()
			if _, err := pas.SetBudgetsAlphaSPT(g, pas.Independent, 1.6); err != nil {
				b.Fatal(err)
			}
			if _, _, err := pas.PASPT(g, pas.Independent); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Fig 6(d): progressive evaluation ----

// fig6dInputs is the trained model's test set as one batch.
func fig6dInputs(m *experiments.TrainedModel) []*dnn.Volume {
	ins := make([]*dnn.Volume, len(m.Test))
	for i, ex := range m.Test {
		ins[i] = ex.Input
	}
	return ins
}

func BenchmarkFig6dIntervalForward(b *testing.B) {
	m := trainedModel(b)
	ev, err := perturb.NewEvaluator(m.Def)
	if err != nil {
		b.Fatal(err)
	}
	src := perturb.NewSegmentedSource(m.Net.Snapshot())
	w := perturb.WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
	for _, l := range m.Def.Nodes {
		if !l.Parametric() {
			continue
		}
		lo, hi, err := src.WeightIntervals(l.Name, 1)
		if err != nil {
			b.Fatal(err)
		}
		w.Lo[l.Name], w.Hi[l.Name] = lo, hi
	}
	ins := fig6dInputs(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.ForwardBatch(ins, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ins)), "ns/example")
}

func BenchmarkFig6dProgressive(b *testing.B) {
	m := trainedModel(b)
	ev, err := perturb.NewEvaluator(m.Def)
	if err != nil {
		b.Fatal(err)
	}
	src := perturb.NewSegmentedSource(m.Net.Snapshot())
	ins := fig6dInputs(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perturb.ProgressiveBatch(ev, src, ins, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ins)), "ns/query")
}

func BenchmarkFig6dFullForward(b *testing.B) {
	m := trainedModel(b)
	in := m.Test[0].Input
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Net.Predict(in)
	}
}

// ---- Table IV: delta performance under value schemes ----

func BenchmarkTable4Cell(b *testing.B) {
	base, target := driftedPair(b)
	configs := []struct {
		name     string
		bytewise bool
		norm     bool
	}{
		{"lossless", false, false},
		{"lossless-bytewise", true, false},
		{"normalized", false, true},
		{"normalized-bytewise", true, true},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(int64(4 * target.Len()))
			for i := 0; i < b.N; i++ {
				bb, tt := base, target
				if cfg.norm {
					bb, _ = floatenc.Normalize(base)
					tt, _ = floatenc.Normalize(target)
				}
				d, err := delta.Compute(delta.Sub, bb, tt)
				if err != nil {
					b.Fatal(err)
				}
				if cfg.bytewise {
					if _, err := delta.MeasureMatrixBytewise(d.Body); err != nil {
						b.Fatal(err)
					}
				} else if _, err := delta.MeasureMatrix(d.Body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table V: snapshot retrieval ----

func BenchmarkTable5Retrieval(b *testing.B) {
	stores := storeFixtures(b)
	for _, plan := range []string{"materialization", "min-storage", "pas"} {
		st := stores[plan]
		for _, q := range []struct {
			label  string
			prefix int
		}{{"full", 4}, {"2bytes", 2}, {"1byte", 1}} {
			if plan != "pas" && q.prefix != 4 {
				continue // partial retrieval is the PAS feature under test
			}
			for _, scheme := range []pas.Scheme{pas.Independent, pas.Parallel, pas.Reusable, pas.Concurrent} {
				name := fmt.Sprintf("%s/%s/%s", plan, q.label, scheme)
				b.Run(name, func(b *testing.B) {
					snaps := st.Snapshots()
					for i := 0; i < b.N; i++ {
						snap := snaps[i%len(snaps)]
						if _, err := st.GetSnapshot(snap, q.prefix, scheme); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// Retrieval-scheme shootout on a wider snapshot (many matrices per
// checkpoint), where dedup of shared chain prefixes and the persistent
// plane cache separate the schemes. Cold runs reopen the store each
// iteration; warm runs reuse one store so Reusable/Concurrent caches carry
// across iterations.
func BenchmarkRetrievalSchemes(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	base := map[string]*tensor.Matrix{}
	for m := 0; m < 8; m++ {
		base[fmt.Sprintf("layer%d", m)] = tensor.RandNormal(rng, 48, 160, 0.1)
	}
	var snaps []pas.SnapshotIn
	cur := base
	for i := 0; i < 8; i++ {
		snap := pas.SnapshotIn{ID: fmt.Sprintf("s%d", i), Matrices: map[string]*tensor.Matrix{}}
		for name, m := range cur {
			snap.Matrices[name] = m.Perturb(rng, 1e-3)
		}
		snaps = append(snaps, snap)
		cur = snap.Matrices
	}
	dir, err := os.MkdirTemp("", "bench-retr-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	if _, err := pas.Create(dir, snaps, pas.Options{Algorithm: "mst"}); err != nil {
		b.Fatal(err)
	}
	last := snaps[len(snaps)-1].ID
	for _, scheme := range []pas.Scheme{pas.Independent, pas.Parallel, pas.Reusable, pas.Concurrent} {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("%s/%s", scheme, mode), func(b *testing.B) {
				st, err := pas.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						b.StopTimer()
						if st, err = pas.Open(dir); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					if _, err := st.GetSnapshot(last, 4, scheme); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkObsOverhead proves the observability layer's disabled path is
// near-free on the PAS retrieval hot path: "disabled" runs with the global
// gate off (every metric op is one atomic load + branch), "enabled" with
// full counters/histograms live, and "tracing" with trace collection on
// top — every retrieval becomes a root trace, published into the ring
// collector. The disabled number must stay within noise of the pre-obs
// baseline; tracing must stay within a few percent of enabled.
func BenchmarkObsOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	base := map[string]*tensor.Matrix{}
	for m := 0; m < 6; m++ {
		base[fmt.Sprintf("layer%d", m)] = tensor.RandNormal(rng, 48, 120, 0.1)
	}
	var snaps []pas.SnapshotIn
	cur := base
	for i := 0; i < 6; i++ {
		snap := pas.SnapshotIn{ID: fmt.Sprintf("s%d", i), Matrices: map[string]*tensor.Matrix{}}
		for name, m := range cur {
			snap.Matrices[name] = m.Perturb(rng, 1e-3)
		}
		snaps = append(snaps, snap)
		cur = snap.Matrices
	}
	dir, err := os.MkdirTemp("", "bench-obs-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	if _, err := pas.Create(dir, snaps, pas.Options{Algorithm: "mst"}); err != nil {
		b.Fatal(err)
	}
	last := snaps[len(snaps)-1].ID
	for _, mode := range []string{"disabled", "enabled", "tracing"} {
		b.Run(mode, func(b *testing.B) {
			switch mode {
			case "enabled":
				obs.Enable()
				defer obs.Disable()
			case "tracing":
				obs.Enable()
				obs.EnableTracing()
				obs.SetTraceBufferSize(64)
				defer func() {
					obs.SetTraceBufferSize(obs.DefaultTraceBufferSize)
					obs.DisableTracing()
					obs.Disable()
				}()
			default:
				obs.Disable()
			}
			st, err := pas.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.GetSnapshotCtx(ctx, last, 4, pas.Concurrent); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations ----

var (
	onceBodies  sync.Once
	benchBodies [2][]*floatenc.Segmented // materialized, delta
	bodiesErr   error
)

// checkpointBodies returns the bodies archiving prices, split by kind, on an
// 8-version lenet lineage trained like the benchmark's archive-checkout
// fixture at seed 7: a base (2 epochs at LR 0.1) and a chain of 7 fine-tunes
// (1 epoch at LR 0.02 each, on fresh data), checkpointed every 10
// iterations. The materialized bodies are every checkpoint's matrices, the
// delta bodies the XOR between each matrix and the same layer one checkpoint
// earlier, each cut into its byte planes.
func checkpointBodies(b *testing.B) [2][]*floatenc.Segmented {
	b.Helper()
	onceBodies.Do(func() {
		const seed = 20170419
		net, err := dnn.Build(zoo.LeNet("lenet"), rand.New(rand.NewSource(seed+1)))
		if err != nil {
			bodiesErr = err
			return
		}
		var ckpts []dnn.Checkpoint
		for v := int64(1); v <= 8; v++ {
			vseed, epochs, lr := 7000+v, 1, 0.02
			if v == 1 {
				vseed, epochs, lr = seed, 2, 0.1
			}
			train, _ := data.Split(data.Digits(rand.New(rand.NewSource(vseed)), 400, 0.05), 0.8)
			res, err := dnn.Train(net, train, dnn.TrainConfig{Epochs: epochs, BatchSize: 16, LR: lr, CheckpointEvery: 10, Seed: vseed + 2})
			if err != nil {
				bodiesErr = err
				return
			}
			ckpts = append(ckpts, res.Checkpoints...)
		}
		for i, c := range ckpts {
			for _, name := range slices.Sorted(maps.Keys(c.Weights)) {
				benchBodies[0] = append(benchBodies[0], floatenc.Segment(c.Weights[name]))
				if i == 0 {
					continue
				}
				d, err := delta.Compute(delta.XOR, ckpts[i-1].Weights[name], c.Weights[name])
				if err != nil {
					bodiesErr = err
					return
				}
				benchBodies[1] = append(benchBodies[1], floatenc.Segment(d.Body))
			}
		}
	})
	if bodiesErr != nil {
		b.Fatal(bodiesErr)
	}
	return benchBodies
}

// BenchmarkAblationZlibLevel codes each plane class of the archived bodies
// at Huffman-only (-2) and levels 1, 6 and 9, one body's plane at a time as
// pricing does. MB/s is the coder's speed on the class and z/raw its
// compressed size over the raw size: the table per plane class behind pas's
// coder choice (EXPERIMENTS.md, zlib coder per byte-plane class).
func BenchmarkAblationZlibLevel(b *testing.B) {
	bodies := checkpointBodies(b)
	for kind, kindName := range []string{"materialized", "delta"} {
		for p := range floatenc.NumPlanes {
			raw := 0
			for _, seg := range bodies[kind] {
				raw += len(seg.Planes[p])
			}
			for _, level := range []int{-2, 1, 6, 9} {
				b.Run(fmt.Sprintf("%s/plane%d/level%d", kindName, p, level), func(b *testing.B) {
					b.SetBytes(int64(raw))
					z := 0
					for i := 0; i < b.N; i++ {
						z = 0
						for _, seg := range bodies[kind] {
							out, err := floatenc.Deflate(seg.Planes[p], level)
							if err != nil {
								b.Fatal(err)
							}
							z += len(out)
						}
					}
					b.ReportMetric(float64(z)/float64(raw), "z/raw")
				})
			}
		}
	}
}

// The codec alone at the plane sizes archiving prices: B/op shows whether a
// call builds compressor state or reuses it.
func BenchmarkDeflate(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		plane := floatenc.Segment(tensor.RandNormal(rand.New(rand.NewSource(29)), size/64, 64, 0.1)).Planes[1]
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(plane)))
			for i := 0; i < b.N; i++ {
				if _, err := floatenc.Deflate(plane, floatenc.DefaultZlibLevel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationBudgetSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationBudgetSplit(17, []float64{1.6}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- end-to-end lifecycle kernels ----

func BenchmarkLifecycleCommit(b *testing.B) {
	m := trainedModel(b)
	dir := b.TempDir()
	repo, err := dlv.Init(dir)
	if err != nil {
		b.Fatal(err)
	}
	snap := m.Net.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Commit(dlv.CommitInput{
			Name:   fmt.Sprintf("bench-%d", i),
			NetDef: m.Def,
			Final:  snap,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDQLSelect(b *testing.B) {
	m := trainedModel(b)
	dir := b.TempDir()
	repo, err := dlv.Init(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := repo.Commit(dlv.CommitInput{
			Name:   fmt.Sprintf("alexnet_v%d", i),
			NetDef: m.Def,
		}); err != nil {
			b.Fatal(err)
		}
	}
	eng := newEngine(repo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(`select m where m.name like "alexnet_%" and m["conv[1,2]"].next has POOL("MAX")`); err != nil {
			b.Fatal(err)
		}
	}
}

// newEngine adapts the dql engine constructor without importing it at the
// top for readability of the bench list.
func newEngine(repo *dlv.Repo) *dql.Engine { return dql.NewEngine(repo) }

// ---- training substrate kernels ----

// conv3Net is a conv-dominated 3-conv chain for kernel comparisons.
func conv3Net() *dnn.NetDef {
	return dnn.ChainDef("conv3", 1, 24, 24, 10,
		dnn.LayerSpec{Name: "conv1", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "conv2", Kind: dnn.KindConv, Out: 12, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu2", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "conv3", Kind: dnn.KindConv, Out: 16, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu3", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "fc", Kind: dnn.KindFull, Out: 10},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
}

// BenchmarkConvForward times a batch-16 forward pass through a 3-conv
// network on the im2col/GEMM kernel (its comparison against the six-loop
// reference is BenchmarkConvKernels in internal/dnn, beside the oracle).
func BenchmarkConvForward(b *testing.B) {
	net, err := dnn.Build(conv3Net(), rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const batch = 16
	batchIn := make([]*dnn.Volume, batch)
	for i := range batchIn {
		v := dnn.NewVolume(dnn.Shape{C: 1, H: 24, W: 24})
		for j := range v.Data {
			v.Data[j] = float32(rng.NormFloat64())
		}
		batchIn[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(batchIn)
	}
}

// BenchmarkGemm compares the reference triple loop against the blocked
// kernel at GOMAXPROCS 1 and at the machine's width.
func BenchmarkGemm(b *testing.B) {
	const n = 192
	rng := rand.New(rand.NewSource(5))
	a := tensor.RandNormal(rng, n, n, 1)
	c := tensor.RandNormal(rng, n, n, 1)
	out := tensor.NewMatrix(n, n)
	flops := int64(2 * n * n * n)
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			if _, err := a.MatMulRef(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	procs := []int{1}
	if w := runtime.GOMAXPROCS(0); w > 1 {
		procs = append(procs, w)
	}
	for _, workers := range procs {
		b.Run(fmt.Sprintf("gemm-w%d", workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			b.SetBytes(flops)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tensor.Gemm(out, a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateGrid measures parallel model enumeration (DQL evaluate,
// Query 4) at GOMAXPROCS 1 (one worker) vs the machine default.
func BenchmarkEvaluateGrid(b *testing.B) {
	repo, err := dlv.Init(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := repo.Commit(dlv.CommitInput{Name: "lenet", NetDef: zoo.LeNet("lenet")}); err != nil {
		b.Fatal(err)
	}
	eng := newEngine(repo)
	eng.Seed = 9
	eng.RegisterDataset("digits", data.Digits(rand.New(rand.NewSource(9)), 160, 0.05))
	const query = `evaluate m
		from (select m1 where m1.name = "lenet")
		vary config.base_lr in [0.1, 0.01] and config.momentum in [0, 0.9]
		keep top(4, m["loss"], 4)`
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, cfg := range []struct {
		name  string
		procs int
	}{{"seq", 1}, {"par", procs}} {
		b.Run(cfg.name, func(b *testing.B) {
			runtime.GOMAXPROCS(cfg.procs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// DAG executor overhead vs the plain chain (residual model forward).
func BenchmarkDAGForwardSkip(b *testing.B) {
	n, err := dnn.Build(zoo.ResNetSkip("r"), rand.New(rand.NewSource(21)))
	if err != nil {
		b.Fatal(err)
	}
	in := dnn.NewVolume(dnn.Shape{C: 1, H: 12, W: 12})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(in)
	}
}

// Archive creation (candidate measurement + plan optimization + chunk
// writes), matrix-granular vs plane-granular.
func BenchmarkArchiveCreate(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	base := map[string]*tensor.Matrix{
		"conv1": tensor.RandNormal(rng, 16, 40, 0.1),
		"ip1":   tensor.RandNormal(rng, 48, 200, 0.1),
	}
	var snaps []pas.SnapshotIn
	cur := base
	for i := 0; i < 4; i++ {
		snap := pas.SnapshotIn{ID: fmt.Sprintf("s%d", i), Matrices: map[string]*tensor.Matrix{}}
		for _, name := range slices.Sorted(maps.Keys(cur)) { // map order would reseed the fixture per run
			snap.Matrices[name] = cur[name].Perturb(rng, 1e-3)
		}
		snaps = append(snaps, snap)
		cur = snap.Matrices
	}
	for _, cfg := range []struct {
		name  string
		plane bool
	}{{"matrix", false}, {"plane", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dir, err := os.MkdirTemp("", "bench-create-*")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pas.Create(dir, snaps, pas.Options{
					Algorithm: "pas-mt", Alpha: 1.6, PlaneGranularity: cfg.plane,
				}); err != nil {
					b.Fatal(err)
				}
				os.RemoveAll(dir)
			}
		})
	}
}

// sharedLineageArchive trains and archives, under dir, the repository the
// hub-share workload publishes: 4 alexnet-mini versions (a base and three
// fine-tunes, checkpoints every 10 steps) under pas-mt at α 1.6, about 98
// nodes and 294 stored chunks. It returns the archive directory.
func sharedLineageArchive(b *testing.B, dir string) string {
	b.Helper()
	mh, err := core.Init(dir)
	if err != nil {
		b.Fatal(err)
	}
	var parent int64
	for i := 1; i <= 4; i++ {
		opts := core.TrainOptions{Arch: "alexnet-mini", Epochs: 1, LR: 0.02, CheckpointEvery: 10,
			Seed: 7*1000 + int64(i), ParentID: parent}
		if i == 1 {
			opts.Epochs, opts.LR, opts.Seed = 2, 0.1, 20170419
		}
		if parent, err = mh.TrainAndCommit(fmt.Sprintf("alexnet_v%d", i), opts); err != nil {
			b.Fatal(err)
		}
	}
	if err := mh.Archive(dlv.ArchiveOptions{Algorithm: "pas-mt", Alpha: 1.6}); err != nil {
		b.Fatal(err)
	}
	return filepath.Join(dir, ".dlv", "pas")
}

// Opening a pulled archive: read the manifest, decode and validate it, and
// index its nodes — what every pull and every publish probe pays before the
// first chunk is read.
func BenchmarkPASOpen(b *testing.B) {
	dir := sharedLineageArchive(b, b.TempDir())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := pas.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
