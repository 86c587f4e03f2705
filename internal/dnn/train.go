package dnn

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"modelhub/internal/obs"
	"modelhub/internal/tensor"
)

// Example is one labelled training or test instance.
type Example struct {
	Input *Volume
	Label int
}

// LogEntry is one measurement row in a training log — the provenance
// metadata DLV extracts into the catalog (paper Sec. III-A: loss and
// accuracy measures at some iterations, dynamic optimizer state).
type LogEntry struct {
	Iter     int
	Loss     float64
	Accuracy float64
	LR       float64
}

// Checkpoint is one snapshot taken during training (paper Fig. 4).
type Checkpoint struct {
	Iter    int
	Weights map[string]*tensor.Matrix
}

// TrainResult aggregates the artifacts of one training run.
type TrainResult struct {
	Log         []LogEntry
	Checkpoints []Checkpoint
	Final       map[string]*tensor.Matrix
}

// TrainConfig drives Train. Zero values get sensible defaults.
type TrainConfig struct {
	// Ctx, when non-nil, parents the run's "dnn.train" span, so training
	// joins the caller's trace (a DQL candidate, a core commit). Nil means
	// the span is a root of its own trace.
	Ctx             context.Context
	Epochs          int
	BatchSize       int
	LR              float64
	Momentum        float64
	CheckpointEvery int // iterations between checkpoints; 0 disables
	LogEvery        int // iterations between log entries; 0 = every 10
	MaxIters        int // stop after this many minibatch steps; 0 = no cap
	// LayerLR overrides the learning rate per layer name (see SGD.LayerLR).
	LayerLR map[string]float64
	Seed    int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.LogEvery == 0 {
		c.LogEvery = 10
	}
	return c
}

// Train runs minibatch SGD over the examples and returns the training log,
// checkpoints, and final weights. The same seed always yields the same run.
func Train(n *Network, examples []Example, cfg TrainConfig) (*TrainResult, error) {
	cfg = cfg.withDefaults()
	if len(examples) == 0 {
		return nil, fmt.Errorf("dnn: no training examples")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := &SGD{LR: cfg.LR, Momentum: cfg.Momentum, LayerLR: cfg.LayerLR}
	res := &TrainResult{}
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	ins := make([]*Volume, 0, cfg.BatchSize)
	labels := make([]int, 0, cfg.BatchSize)
	iter := 0
	var runLoss float64
	var runCorrect, runSeen int
	if cfg.MaxIters > 0 {
		// Enough epochs to reach the iteration budget.
		itersPerEpoch := (len(examples) + cfg.BatchSize - 1) / cfg.BatchSize
		need := (cfg.MaxIters + itersPerEpoch - 1) / itersPerEpoch
		if need > cfg.Epochs {
			cfg.Epochs = need
		}
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	_, span := obs.Start(ctx, "dnn.train")
	defer span.End()
	span.SetAttrInt("dnn.examples", int64(len(examples)))
	span.SetAttrInt("dnn.batch_size", int64(cfg.BatchSize))
	span.SetAttrInt("dnn.epochs", int64(cfg.Epochs))
epochs:
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochStart time.Time
		var epochLoss float64
		var epochCorrect, epochSeen int
		if span != nil {
			epochStart = time.Now()
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			// One batched forward/backward per minibatch.
			n.ZeroGrads()
			ins, labels = ins[:0], labels[:0]
			for _, idx := range order[start:end] {
				ins = append(ins, examples[idx].Input)
				labels = append(labels, examples[idx].Label)
			}
			losses, hits := n.lossAndBackward(ins, labels)
			for e, loss := range losses {
				correct := hits[e]
				runLoss += loss
				runSeen++
				epochLoss += loss
				epochSeen++
				if correct {
					runCorrect++
					epochCorrect++
				}
			}
			opt.Step(n, end-start)
			iter++
			if iter%cfg.LogEvery == 0 {
				res.Log = append(res.Log, LogEntry{
					Iter:     iter,
					Loss:     runLoss / float64(runSeen),
					Accuracy: float64(runCorrect) / float64(runSeen),
					LR:       cfg.LR,
				})
				runLoss, runCorrect, runSeen = 0, 0, 0
			}
			if cfg.CheckpointEvery > 0 && iter%cfg.CheckpointEvery == 0 {
				res.Checkpoints = append(res.Checkpoints, Checkpoint{Iter: iter, Weights: n.Snapshot()})
			}
			if cfg.MaxIters > 0 && iter >= cfg.MaxIters {
				endEpoch(span, epoch, epochLoss, epochCorrect, epochSeen, epochStart)
				break epochs
			}
		}
		endEpoch(span, epoch, epochLoss, epochCorrect, epochSeen, epochStart)
	}
	span.SetAttrInt("dnn.iters", int64(iter))
	res.Final = n.Snapshot()
	return res, nil
}

// endEpoch publishes one epoch's summary (a partial epoch cut short by
// MaxIters included): an "epoch" event on the training span and the
// dnn.train.* metrics. A nil span — obs was off when training began —
// publishes nothing.
func endEpoch(span *obs.Span, epoch int, loss float64, correct, seen int, start time.Time) {
	if span == nil || seen == 0 {
		return
	}
	mean := loss / float64(seen)
	d := time.Since(start)
	span.Event("epoch",
		obs.Attr{Key: "epoch", Value: strconv.Itoa(epoch)},
		obs.Attr{Key: "loss", Value: strconv.FormatFloat(mean, 'g', 6, 64)},
		obs.Attr{Key: "accuracy", Value: strconv.FormatFloat(float64(correct)/float64(seen), 'g', 6, 64)},
		obs.Attr{Key: "examples", Value: strconv.Itoa(seen)},
		obs.Attr{Key: "duration_ns", Value: strconv.FormatInt(d.Nanoseconds(), 10)})
	mTrainEpochs.Inc()
	mTrainExamples.Add(int64(seen))
	mTrainEpochSeconds.Observe(d.Seconds())
	gTrainLoss.Set(mean)
	if secs := d.Seconds(); secs > 0 {
		gTrainExamplesPS.Set(float64(seen) / secs)
	}
}

// Evaluate returns the classification accuracy of n over the examples,
// predicting them in batches of evalChunk on the one network.
func Evaluate(n *Network, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	ins := make([]*Volume, len(examples))
	for i, ex := range examples {
		ins[i] = ex.Input
	}
	correct := 0
	for i, label := range n.PredictBatch(ins) {
		if label == examples[i].Label {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}
