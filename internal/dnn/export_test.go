package dnn

// The per-example oracle (oracle_test.go), exported to this package's
// external tests, which train zoo architectures (zoo imports dnn).

// OracleTrain is Train on the per-example runtime.
func OracleTrain(n *Network, examples []Example, cfg TrainConfig) *TrainResult {
	return oracleTrain(n, examples, cfg)
}

// OracleLogits is Logits on the per-example runtime.
func OracleLogits(n *Network, in *Volume) *Volume {
	return newOracle(n).forwardUpTo(in, n.g.Logits).Clone()
}

// LossAndBackwardBatch is the batched forward/backward pass of one Train
// step.
func LossAndBackwardBatch(n *Network, ins []*Volume, labels []int) {
	n.lossAndBackward(ins, labels)
}
