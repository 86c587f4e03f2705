package perturb

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"modelhub/internal/data"
	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// oracleCase is one network the GEMM form is checked on, with inputs of both
// signs: the digits are non-negative, the normal draws are not, so a batch
// holding both runs the x⁻ half for some examples only.
type oracleCase struct {
	name string
	def  *dnn.NetDef
	net  *dnn.Network
	ins  []*dnn.Volume
}

// oracleCache holds the cases once built: training the two zoo nets is most
// of this package's test time. Tests in this package do not run in parallel.
var oracleCache []oracleCase

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	if oracleCache == nil {
		oracleCache = buildOracleCases(t)
	}
	return oracleCache
}

func buildOracleCases(t *testing.T) []oracleCase {
	t.Helper()
	def, net := testNet(t, 21)
	res := residualDef()
	resNet, err := dnn.Build(res, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	alex, lenet := zoo.AlexNetMini("alexnet"), zoo.LeNet("lenet")
	digits := func(n int, seed int64) []*dnn.Volume {
		var out []*dnn.Volume
		for _, ex := range data.Digits(rand.New(rand.NewSource(seed)), n, 0.05) {
			out = append(out, ex.Input)
		}
		return out
	}
	normals := func(n int, seed int64, s dnn.Shape) []*dnn.Volume {
		var out []*dnn.Volume
		for i := 0; i < n; i++ {
			out = append(out, randIn(seed+int64(i), s))
		}
		return out
	}
	return []oracleCase{
		{"testNet", def, net, normals(6, 30, dnn.Shape{C: 2, H: 6, W: 6})},
		{"residual", res, resNet, normals(6, 40, dnn.Shape{C: 1, H: 6, W: 6})},
		{"alexnet-mini", alex, trainedNet(t, alex, 23), append(digits(24, 50), normals(8, 60, dnn.Shape{C: 1, H: 12, W: 12})...)},
		{"lenet", lenet, trainedNet(t, lenet, 24), append(digits(24, 70), normals(4, 80, dnn.Shape{C: 1, H: 12, W: 12})...)},
	}
}

// trainedNet builds def and trains it for four epochs on 240 digits, so its
// logits separate the way a real model's do and progressive queries resolve
// at a mix of prefixes.
func trainedNet(t *testing.T, def *dnn.NetDef, seed int64) *dnn.Network {
	t.Helper()
	n, err := dnn.Build(def, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	train := data.Digits(rand.New(rand.NewSource(seed+1)), 240, 0.05)
	if _, err := dnn.Train(n, train, dnn.TrainConfig{Epochs: 4, BatchSize: 16, LR: 0.1, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return n
}

// straddles reports whether any weight interval of w contains zero in its
// interior.
func straddles(w WeightBounds) bool {
	for name, lo := range w.Lo {
		for i, l := range lo.Data() {
			if l < 0 && w.Hi[name].Data()[i] > 0 {
				return true
			}
		}
	}
	return false
}

// scaleOf is the largest bound magnitude of one example's logits, at least 1:
// the unit float32 accumulation error is measured in.
func scaleOf(lo, hi []float32) float64 {
	s := 1.0
	for i := range lo {
		s = math.Max(s, math.Max(math.Abs(float64(lo[i])), math.Abs(float64(hi[i]))))
	}
	return s
}

// The GEMM form agrees with the scalar float64 oracle at every prefix of
// byte-plane bounds, which never straddle zero.
func TestGEMMFormMatchesScalarOracle(t *testing.T) {
	for _, c := range oracleCases(t) {
		ev, err := NewEvaluator(c.def)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSegmentedSource(c.net.Snapshot())
		for prefix := 1; prefix <= 4; prefix++ {
			w, err := fetch(ev.params, src, prefix)
			if err != nil {
				t.Fatal(err)
			}
			if straddles(w) {
				t.Fatalf("%s prefix %d: a byte-plane weight interval straddles zero", c.name, prefix)
			}
			lo, hi, err := ev.ForwardBatch(c.ins, w)
			if err != nil {
				t.Fatal(err)
			}
			for e, in := range c.ins {
				olo, ohi, err := oracleForward(ev, in, w)
				if err != nil {
					t.Fatal(err)
				}
				slack := oracleSlack * scaleOf(olo, ohi)
				for i := range olo {
					if math.Abs(float64(lo[e][i]-olo[i])) > slack || math.Abs(float64(hi[e][i]-ohi[i])) > slack {
						t.Fatalf("%s prefix %d input %d logit %d: gemm [%v,%v], oracle [%v,%v]",
							c.name, prefix, e, i, lo[e][i], hi[e][i], olo[i], ohi[i])
					}
				}
			}
		}
	}
}

// oracleSlack is the float32 accumulation error the GEMM form may show
// against the float64 oracle, as a share of the logits' scale.
const oracleSlack = 5e-4

// Where weight intervals straddle zero (weight ± u, with inputs of both
// signs) the sign-split sum is wider than the per-element product, never
// narrower: it contains the oracle's bounds.
func TestGEMMFormContainsOracleWhenWeightsStraddle(t *testing.T) {
	for _, c := range oracleCases(t) {
		ev, err := NewEvaluator(c.def)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(70))
		for round := 0; round < 4; round++ {
			w := WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
			for name, m := range c.net.Snapshot() {
				lo, hi := m.Clone(), m.Clone()
				for i := range lo.Data() {
					u := float32(rng.Float64() * 0.05)
					lo.Data()[i] -= u
					hi.Data()[i] += u
				}
				w.Lo[name], w.Hi[name] = lo, hi
			}
			if !straddles(w) {
				t.Fatalf("%s: ±u bounds do not straddle zero", c.name)
			}
			lo, hi, err := ev.ForwardBatch(c.ins, w)
			if err != nil {
				t.Fatal(err)
			}
			for e, in := range c.ins {
				olo, ohi, err := oracleForward(ev, in, w)
				if err != nil {
					t.Fatal(err)
				}
				slack := float32(oracleSlack * scaleOf(olo, ohi))
				for i := range olo {
					if lo[e][i] > olo[i]+slack || hi[e][i] < ohi[i]-slack {
						t.Fatalf("%s round %d input %d logit %d: [%v,%v] does not contain oracle [%v,%v]",
							c.name, round, e, i, lo[e][i], hi[e][i], olo[i], ohi[i])
					}
				}
			}
		}
	}
}

// batchProcs are the GOMAXPROCS points the batch tests run at: the batched
// GEMMs are wide enough to go parallel from 2 up.
var batchProcs = []int{1, 2, 4, 8}

// restoreProcs puts GOMAXPROCS back when the test ends.
func restoreProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// subBatches returns the batch shapes each input's bounds must not depend
// on, as index lists into n inputs: all in order, shuffled, every other
// one, and the tail alone.
func subBatches(n int, seed int64) [][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	shuffled := append([]int(nil), all...)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var odd []int
	for i := 1; i < n; i += 2 {
		odd = append(odd, i)
	}
	return [][]int{all, shuffled, odd, all[n-n/4:]}
}

// ForwardBatch gives every input the bits a batch of one gives it, whatever
// else shares the batch and at any GEMM width.
func TestForwardBatchMatchesPerExampleForward(t *testing.T) {
	restoreProcs(t)
	for _, c := range oracleCases(t) {
		ev, err := NewEvaluator(c.def)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSegmentedSource(c.net.Snapshot())
		for prefix := 1; prefix <= 4; prefix++ {
			w, err := fetch(ev.params, src, prefix)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(1)
			wantLo, wantHi := make([][]float32, len(c.ins)), make([][]float32, len(c.ins))
			for i, in := range c.ins {
				if wantLo[i], wantHi[i], err = ev.Forward(in, w); err != nil {
					t.Fatal(err)
				}
			}
			for _, procs := range batchProcs {
				runtime.GOMAXPROCS(procs)
				for _, idx := range subBatches(len(c.ins), int64(prefix)) {
					batch := make([]*dnn.Volume, len(idx))
					for j, i := range idx {
						batch[j] = c.ins[i]
					}
					lo, hi, err := ev.ForwardBatch(batch, w)
					if err != nil {
						t.Fatal(err)
					}
					for j, i := range idx {
						if !sameBits(lo[j], wantLo[i]) || !sameBits(hi[j], wantHi[i]) {
							t.Fatalf("%s prefix %d GOMAXPROCS %d: input %d at batch slot %d of %d differs from its batch of one",
								c.name, prefix, procs, i, j, len(idx))
						}
					}
				}
			}
		}
	}
}

// ProgressiveBatch gives every input the labels, prefix and bound bits a
// one-input Progressive call gives it.
func TestProgressiveBatchMatchesPerExample(t *testing.T) {
	restoreProcs(t)
	mixed := false
	for _, c := range oracleCases(t) {
		ev, err := NewEvaluator(c.def)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSegmentedSource(c.net.Snapshot())
		runtime.GOMAXPROCS(1)
		want := make([]*Result, len(c.ins))
		prefixes := map[int]int{}
		for i, in := range c.ins {
			if want[i], err = Progressive(ev, src, in, 1, 1); err != nil {
				t.Fatal(err)
			}
			prefixes[want[i].PrefixUsed]++
		}
		t.Logf("%s: prefixes used %v", c.name, prefixes)
		mixed = mixed || len(prefixes) > 1
		for _, procs := range batchProcs {
			runtime.GOMAXPROCS(procs)
			for _, idx := range subBatches(len(c.ins), int64(procs)) {
				batch := make([]*dnn.Volume, len(idx))
				for j, i := range idx {
					batch[j] = c.ins[i]
				}
				got, err := ProgressiveBatch(ev, src, batch, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				for j, i := range idx {
					g, w := got[j], want[i]
					if len(g.Labels) != 1 || g.Labels[0] != w.Labels[0] || g.PrefixUsed != w.PrefixUsed ||
						!sameBits(g.Lo, w.Lo) || !sameBits(g.Hi, w.Hi) {
						t.Fatalf("%s GOMAXPROCS %d: input %d batched (labels %v, prefix %d) vs alone (labels %v, prefix %d)",
							c.name, procs, i, g.Labels, g.PrefixUsed, w.Labels, w.PrefixUsed)
					}
				}
			}
		}
	}
	if !mixed {
		t.Fatal("every input of every case resolved at one prefix: no batch shrank between prefixes")
	}
}

func TestProgressiveBatchValidatesKAndStartPrefix(t *testing.T) {
	def, n := testNet(t, 90)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	in := []*dnn.Volume{randIn(91, dnn.Shape{C: 2, H: 6, W: 6})}
	cases := []struct {
		k, start int
		want     string
	}{
		{0, 1, "top-k"},
		{5, 1, "top-k"}, // testNet has 4 logits
		{1, 0, "start prefix"},
		{1, 5, "start prefix"},
	}
	for _, c := range cases {
		_, err := ProgressiveBatch(ev, src, in, c.k, c.start)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("k=%d start=%d: err %v, want one naming %q", c.k, c.start, err, c.want)
		}
	}
	for k := 1; k <= 4; k++ {
		if _, err := ProgressiveBatch(ev, src, in, k, 4); err != nil {
			t.Errorf("k=%d start=4: %v", k, err)
		}
	}
}

// cachedSource serves bounds fetched up front, so a test can count what
// ProgressiveBatch itself allocates.
type cachedSource map[int]WeightBounds

func (c cachedSource) WeightIntervals(layer string, prefix int) (*tensor.Matrix, *tensor.Matrix, error) {
	return c[prefix].Lo[layer], c[prefix].Hi[layer], nil
}

// A warm 50-query ProgressiveBatch reuses the previous call's scratches: what
// it allocates is its results and per-prefix bookkeeping (78–108 KB on
// alexnet-mini at GOMAXPROCS 1–8), not the unrolls, GEMM operands and
// activations of its passes (~6 MB a pass when nothing is reused). The free
// list is deterministic, so this holds under -race too.
func TestProgressiveBatchWarmAllocations(t *testing.T) {
	alex := oracleCases(t)[2]
	ev, err := NewEvaluator(alex.def)
	if err != nil {
		t.Fatal(err)
	}
	seg := NewSegmentedSource(alex.net.Snapshot())
	src := cachedSource{}
	for prefix := 1; prefix <= 4; prefix++ {
		if src[prefix], err = fetch(ev.params, seg, prefix); err != nil {
			t.Fatal(err)
		}
	}
	var ins []*dnn.Volume
	for _, ex := range data.Digits(rand.New(rand.NewSource(92)), 50, 0.05) {
		ins = append(ins, ex.Input)
	}
	run := func() {
		if _, err := ProgressiveBatch(ev, src, ins, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	perCall := (m1.TotalAlloc - m0.TotalAlloc) / runs
	allocs := (m1.Mallocs - m0.Mallocs) / runs
	t.Logf("warm 50-query ProgressiveBatch: %d B, %d allocations per call", perCall, allocs)
	if perCall > 128<<10 {
		t.Fatalf("warm 50-query ProgressiveBatch allocates %d B per call, want <= 128 KiB", perCall)
	}
}

// One Evaluator serves concurrent callers: each call takes its own scratch
// from the pool, and ProgressiveBatch's per-prefix fetch goroutines write
// only their own slots.
func TestEvaluatorConcurrentCallers(t *testing.T) {
	c := oracleCases(t)[3] // lenet: a mix of prefixes
	ev, err := NewEvaluator(c.def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(c.net.Snapshot())
	want, err := ProgressiveBatch(ev, src, c.ins, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idx := subBatches(len(c.ins), int64(g))[g]
			batch := make([]*dnn.Volume, len(idx))
			for j, i := range idx {
				batch[j] = c.ins[i]
			}
			got, err := ProgressiveBatch(ev, src, batch, 1, 1)
			if err != nil {
				t.Error(err)
				return
			}
			for j, i := range idx {
				if got[j].PrefixUsed != want[i].PrefixUsed || !sameBits(got[j].Lo, want[i].Lo) || !sameBits(got[j].Hi, want[i].Hi) {
					t.Errorf("caller %d: input %d differs from the single-caller run", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// ProgressiveBatch splits a prefix's pending inputs into up to GOMAXPROCS
// parts. Fewer inputs than procs make one part per input, with every input's
// bits unchanged; a failing part fails the call with the error a one-part
// pass gives, and every part's goroutine has exited when the call returns.
func TestProgressiveBatchSplitEdges(t *testing.T) {
	restoreProcs(t)
	c := oracleCases(t)[3] // lenet: a mix of prefixes
	ev, err := NewEvaluator(c.def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(c.net.Snapshot())
	three := c.ins[:3]
	runtime.GOMAXPROCS(1)
	want, err := ProgressiveBatch(ev, src, three, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	got, err := ProgressiveBatch(ev, src, three, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range three {
		if got[i].PrefixUsed != want[i].PrefixUsed || !sameBits(got[i].Lo, want[i].Lo) || !sameBits(got[i].Hi, want[i].Hi) {
			t.Fatalf("3 inputs at GOMAXPROCS 8: input %d differs from GOMAXPROCS 1", i)
		}
	}

	// A wrong-shape input in the last part, and weight bounds of the wrong
	// shape, which every part meets at its first affine layer.
	bad := append(append([]*dnn.Volume(nil), c.ins[:7]...), randIn(93, dnn.Shape{C: 2, H: 12, W: 12}))
	w1, err := fetch(ev.params, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	broken := cachedSource{1: WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}}
	for name := range w1.Lo {
		broken[1].Lo[name], broken[1].Hi[name] = w1.Lo[name], w1.Hi[name]
	}
	first := ev.params[0]
	broken[1].Lo[first] = tensor.NewMatrix(1, 1)
	cases := []struct {
		name string
		src  IntervalSource
		w    WeightBounds // the source's bounds at prefix 1
		ins  []*dnn.Volume
	}{
		{"wrong-shape input", src, w1, bad},
		{"wrong-shape weights", broken, broken[1], c.ins[:8]},
	}
	for _, tc := range cases {
		runtime.GOMAXPROCS(1)
		_, _, wantErr := ev.ForwardBatch(tc.ins, tc.w)
		if wantErr == nil {
			t.Fatalf("%s: a one-part pass does not fail", tc.name)
		}
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			before := runtime.NumGoroutine()
			_, err := ProgressiveBatch(ev, tc.src, tc.ins, 1, 1)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s at GOMAXPROCS %d: err %v, want %v", tc.name, procs, err, wantErr)
			}
			// A part's goroutine may still be unwinding past wg.Done.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%s at GOMAXPROCS %d: %d goroutines after the call, %d before", tc.name, procs, n, before)
			}
		}
	}
}
