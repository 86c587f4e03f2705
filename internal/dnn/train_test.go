package dnn

import (
	"math/rand"
	"testing"

	"modelhub/internal/obs"
)

// tiny separable task: 2D points, label = sign quadrant-ish.
func toyExamples(rng *rand.Rand, n int) []Example {
	out := make([]Example, n)
	for i := range out {
		x := float32(rng.NormFloat64())
		y := float32(rng.NormFloat64())
		label := 0
		if x+y > 0 {
			label = 1
		}
		out[i] = Example{Input: FlatVolume([]float32{x, y}), Label: label}
	}
	return out
}

func toyNet(t *testing.T, seed int64) *Network {
	t.Helper()
	def := ChainDef("toy", 2, 1, 1, 2,
		LayerSpec{Name: "ip1", Kind: KindFull, Out: 8},
		LayerSpec{Name: "relu1", Kind: KindReLU},
		LayerSpec{Name: "ip2", Kind: KindFull, Out: 2},
	)
	n, err := Build(def, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTrainLearnsToyTask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	examples := toyExamples(rng, 400)
	n := toyNet(t, 2)
	before := Evaluate(n, examples)
	res, err := Train(n, examples, TrainConfig{Epochs: 5, BatchSize: 16, LR: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	after := Evaluate(n, examples)
	if after < 0.9 {
		t.Fatalf("training failed to learn: accuracy %v -> %v", before, after)
	}
	if len(res.Log) == 0 {
		t.Fatal("training log must not be empty")
	}
	first, last := res.Log[0], res.Log[len(res.Log)-1]
	if last.Loss >= first.Loss {
		t.Fatalf("loss should decrease: %v -> %v", first.Loss, last.Loss)
	}
}

func TestTrainCheckpointing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	examples := toyExamples(rng, 64)
	n := toyNet(t, 5)
	res, err := Train(n, examples, TrainConfig{Epochs: 2, BatchSize: 8, CheckpointEvery: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 4 { // 8 iters/epoch * 2 / 4
		t.Fatalf("checkpoints = %d", len(res.Checkpoints))
	}
	for i := 1; i < len(res.Checkpoints); i++ {
		if res.Checkpoints[i].Iter <= res.Checkpoints[i-1].Iter {
			t.Fatal("checkpoint iterations must increase")
		}
	}
	// Final weights must match the live network.
	if !res.Final["ip2"].Equal(n.Params()["ip2"]) {
		t.Fatal("final snapshot must equal live weights")
	}
	// Checkpoint weights must be frozen copies, not live views.
	if res.Checkpoints[0].Weights["ip2"].Equal(n.Params()["ip2"]) {
		t.Fatal("early checkpoint should differ from final weights")
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(7))
	ex1 := toyExamples(rng1, 64)
	n1 := toyNet(t, 8)
	r1, err := Train(n1, ex1, TrainConfig{Epochs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(rand.NewSource(7))
	ex2 := toyExamples(rng2, 64)
	n2 := toyNet(t, 8)
	r2, err := Train(n2, ex2, TrainConfig{Epochs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Final["ip1"].Equal(r2.Final["ip1"]) {
		t.Fatal("identical seeds must give identical training runs")
	}
}

func TestTrainEmptyExamples(t *testing.T) {
	n := toyNet(t, 10)
	if _, err := Train(n, nil, TrainConfig{}); err == nil {
		t.Fatal("want error for empty training set")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	n := toyNet(t, 11)
	if acc := Evaluate(n, nil); acc != 0 {
		t.Fatalf("Evaluate(nil) = %v", acc)
	}
}

// Train publishes dnn.train.epochs and dnn.train.examples after every epoch
// while obs is enabled — an epoch cut short by MaxIters counts with the
// examples it ran — and moves neither counter while obs is off.
func TestTrainPublishesEpochMetrics(t *testing.T) {
	epochs, examples := obs.GetCounter("dnn.train.epochs"), obs.GetCounter("dnn.train.examples")
	train := toyExamples(rand.New(rand.NewSource(4)), 40) // 5 minibatches of 8
	for _, tc := range []struct {
		name               string
		on                 bool
		cfg                TrainConfig
		wantEpochs, wantEx int64
	}{
		{"whole epochs", true, TrainConfig{Epochs: 3, BatchSize: 8}, 3, 120},
		{"MaxIters cuts the second epoch", true, TrainConfig{BatchSize: 8, MaxIters: 7}, 2, 56},
		{"obs off", false, TrainConfig{Epochs: 3, BatchSize: 8}, 0, 0},
	} {
		if tc.on {
			obs.Enable()
		}
		e0, x0 := epochs.Value(), examples.Value()
		_, err := Train(toyNet(t, 5), train, tc.cfg)
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		if got := epochs.Value() - e0; got != tc.wantEpochs {
			t.Errorf("%s: dnn.train.epochs rose by %d, want %d", tc.name, got, tc.wantEpochs)
		}
		if got := examples.Value() - x0; got != tc.wantEx {
			t.Errorf("%s: dnn.train.examples rose by %d, want %d", tc.name, got, tc.wantEx)
		}
	}
}
