package dnn

import "modelhub/internal/obs"

// Training metrics Train publishes after every epoch while obs is enabled
// (see DESIGN.md §8): epoch and example counters, an epoch-duration
// histogram, and live loss / examples-per-second gauges.
var (
	mTrainEpochs       = obs.GetCounter("dnn.train.epochs")
	mTrainExamples     = obs.GetCounter("dnn.train.examples")
	mTrainEpochSeconds = obs.GetHistogram("dnn.train.epoch_seconds")
	gTrainLoss         = obs.GetFloatGauge("dnn.train.loss")
	gTrainExamplesPS   = obs.GetFloatGauge("dnn.train.examples_per_sec")
)
