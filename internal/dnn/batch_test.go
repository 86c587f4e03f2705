package dnn_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"modelhub/internal/data"
	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// batchCase is one architecture with a dataset it accepts.
type batchCase struct {
	def      *dnn.NetDef
	examples []dnn.Example
}

// batchCases covers every zoo architecture, the residual DAG, an
// inception-style concat block and a chain of the remaining layer kinds
// (sigmoid, tanh, average pooling, a mid-network softmax).
func batchCases() []batchCase {
	digits := data.Digits(rand.New(rand.NewSource(51)), 37, 0.05)
	mixed := dnn.ChainDef("mixed", 1, data.DigitSize, data.DigitSize, data.NumDigits,
		dnn.LayerSpec{Name: "conv1", Kind: dnn.KindConv, Out: 4, K: 3, Stride: 2, Pad: 1},
		dnn.LayerSpec{Name: "tanh1", Kind: dnn.KindTanh},
		dnn.LayerSpec{Name: "pool1", Kind: dnn.KindPool, K: 3, Stride: 2, Mode: dnn.PoolAvg},
		dnn.LayerSpec{Name: "conv2", Kind: dnn.KindConv, Out: 6, K: 2},
		dnn.LayerSpec{Name: "sig1", Kind: dnn.KindSigmoid},
		dnn.LayerSpec{Name: "ip1", Kind: dnn.KindFull, Out: 12},
		dnn.LayerSpec{Name: "soft1", Kind: dnn.KindSoftmax},
		dnn.LayerSpec{Name: "ip2", Kind: dnn.KindFull, Out: data.NumDigits},
	)
	concat := &dnn.NetDef{
		Name: "concat", InC: 1, InH: data.DigitSize, InW: data.DigitSize, Labels: data.NumDigits,
		Nodes: []dnn.LayerSpec{
			{Name: "stem", Kind: dnn.KindConv, Out: 3, K: 3, Pad: 1},
			{Name: "a", Kind: dnn.KindConv, Out: 4, K: 3, Pad: 1},
			{Name: "b", Kind: dnn.KindConv, Out: 2, K: 1},
			{Name: "cat", Kind: dnn.KindConcat},
			{Name: "pool", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
			{Name: "ip", Kind: dnn.KindFull, Out: data.NumDigits},
			{Name: "prob", Kind: dnn.KindSoftmax},
		},
		Edges: []dnn.Edge{
			{From: "stem", To: "a"}, {From: "stem", To: "b"},
			{From: "a", To: "cat"}, {From: "b", To: "cat"},
			{From: "cat", To: "pool"}, {From: "pool", To: "ip"}, {From: "ip", To: "prob"},
		},
	}
	return []batchCase{
		{zoo.LeNet("lenet"), digits},
		{zoo.AlexNetMini("alexnet"), digits},
		{zoo.VGGMini("vgg"), digits},
		{zoo.ResNetMini("resnet"), digits},
		{zoo.ResNetSkip("resnet-skip"), digits},
		{zoo.MLP("mlp", 6, 16, 3), data.Blobs(rand.New(rand.NewSource(52)), 37, 3, 6, 0.5)},
		{mixed, digits},
		{concat, digits},
	}
}

// sameWeights reports the first weight whose bits differ, or "".
func sameWeights(a, b map[string]*tensor.Matrix) string {
	for _, name := range slices.Sorted(maps.Keys(a)) {
		x, y := a[name].Data(), b[name].Data()
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return fmt.Sprintf("%s[%d]: %v vs %v", name, i, x[i], y[i])
			}
		}
	}
	return ""
}

// Training on the batched runtime gives the bits the per-example runtime
// gives: every log entry (losses, accuracies), every checkpoint and the
// final weights, at batch 1, 8 (37 examples: a ragged last batch) and 16,
// with momentum and per-layer rates including a frozen layer.
func TestTrainBatchedMatchesPerExampleOracle(t *testing.T) {
	for _, c := range batchCases() {
		var params []string
		for _, n := range c.def.Nodes {
			if n.Parametric() {
				params = append(params, n.Name)
			}
		}
		cfgs := []dnn.TrainConfig{
			{Epochs: 1, BatchSize: 1, LR: 0.01, Momentum: 0.9, LogEvery: 5, Seed: 1},
			{Epochs: 2, BatchSize: 8, LR: 0.1, LogEvery: 2, CheckpointEvery: 3, Seed: 2,
				LayerLR: map[string]float64{params[0]: 0, params[len(params)-1]: 0.02}},
			{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, LogEvery: 1, MaxIters: 5, Seed: 3},
		}
		for ci, cfg := range cfgs {
			build := func() *dnn.Network {
				n, err := dnn.Build(c.def, rand.New(rand.NewSource(int64(60+ci))))
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			want := dnn.OracleTrain(build(), c.examples, cfg)
			got, err := dnn.Train(build(), c.examples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s batch %d", c.def.Name, cfg.BatchSize)
			if len(got.Log) != len(want.Log) || len(got.Log) == 0 {
				t.Fatalf("%s: %d log entries, oracle %d", name, len(got.Log), len(want.Log))
			}
			for i, w := range want.Log {
				if g := got.Log[i]; math.IsNaN(w.Loss) || g.Iter != w.Iter || g.LR != w.LR ||
					math.Float64bits(g.Loss) != math.Float64bits(w.Loss) ||
					math.Float64bits(g.Accuracy) != math.Float64bits(w.Accuracy) {
					t.Fatalf("%s: log entry %d is %+v, oracle %+v", name, i, got.Log[i], want.Log[i])
				}
			}
			if len(got.Checkpoints) != len(want.Checkpoints) {
				t.Fatalf("%s: %d checkpoints, oracle %d", name, len(got.Checkpoints), len(want.Checkpoints))
			}
			for i, cp := range want.Checkpoints {
				if d := sameWeights(got.Checkpoints[i].Weights, cp.Weights); d != "" {
					t.Fatalf("%s: checkpoint %d differs at %s", name, cp.Iter, d)
				}
			}
			if d := sameWeights(got.Final, want.Final); d != "" {
				t.Fatalf("%s: final weights differ at %s", name, d)
			}
		}
	}
}

// Every example's logits are the bits the per-example runtime gives it,
// however the examples are batched — alone, all together, shuffled, every
// other one, the tail — and at any GEMM width.
func TestForwardBatchSplitInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, c := range batchCases() {
		n, err := dnn.Build(c.def, rand.New(rand.NewSource(70)))
		if err != nil {
			t.Fatal(err)
		}
		ins := make([]*dnn.Volume, len(c.examples))
		want := make([]*dnn.Volume, len(ins))
		for i, ex := range c.examples {
			ins[i] = ex.Input
			want[i] = dnn.OracleLogits(n, ex.Input)
		}
		shuffled := rand.New(rand.NewSource(71)).Perm(len(ins))
		var odd []int
		for i := 1; i < len(ins); i += 2 {
			odd = append(odd, i)
		}
		all := make([]int, len(ins))
		for i := range all {
			all[i] = i
		}
		splits := [][]int{all, shuffled, odd, all[len(all)-5:]}
		// Drop the softmax sink so ForwardBatch returns the logits.
		logitsDef := c.def.Clone()
		if last := logitsDef.Nodes[len(logitsDef.Nodes)-1]; last.Kind == dnn.KindSoftmax {
			logitsDef.Nodes = logitsDef.Nodes[:len(logitsDef.Nodes)-1]
			var edges []dnn.Edge
			for _, e := range logitsDef.Edges {
				if e.To != last.Name {
					edges = append(edges, e)
				}
			}
			logitsDef.Edges = edges
		}
		ln, err := dnn.Build(logitsDef, rand.New(rand.NewSource(0)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ln.Restore(n.Snapshot()); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			for i, in := range ins {
				if got := n.Logits(in); !sameBits(got.Data, want[i].Data) {
					t.Fatalf("%s GOMAXPROCS %d: Logits of example %d differs from the oracle", c.def.Name, procs, i)
				}
			}
			for _, idx := range splits {
				batch := make([]*dnn.Volume, len(idx))
				for j, i := range idx {
					batch[j] = ins[i]
				}
				outs := ln.ForwardBatch(batch)
				labels := n.PredictBatch(batch)
				for j, i := range idx {
					if !sameBits(outs[j].Data, want[i].Data) {
						t.Fatalf("%s GOMAXPROCS %d: example %d at slot %d of %d differs from the oracle",
							c.def.Name, procs, i, j, len(idx))
					}
					if p := n.Predict(ins[i]); labels[j] != p {
						t.Fatalf("%s GOMAXPROCS %d: PredictBatch label %d, Predict %d", c.def.Name, procs, labels[j], p)
					}
				}
			}
		}
	}
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

// BenchmarkTrainingStep times one 16-example minibatch step of zoo lenet,
// the work Train does per step: clear the gradients, one batched
// forward/backward, one SGD update.
func BenchmarkTrainingStep(b *testing.B) {
	net, err := dnn.Build(zoo.LeNet("lenet"), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	ins, labels := make([]*dnn.Volume, 16), make([]int, 16)
	for i, ex := range data.Digits(rand.New(rand.NewSource(2)), len(ins), 0.1) {
		ins[i], labels[i] = ex.Input, ex.Label
	}
	opt := &dnn.SGD{LR: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		dnn.LossAndBackwardBatch(net, ins, labels)
		opt.Step(net, len(ins))
	}
}
