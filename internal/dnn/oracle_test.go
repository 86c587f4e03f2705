package dnn

import (
	"math"
	"math/rand"

	"modelhub/internal/tensor"
)

// This file keeps the per-example runtime the batched layers replaced, as
// the oracle they are checked against: every layer runs one example at a
// time on Volumes, and training runs one forward and one backward per
// example, accumulating gradients example by example. It works on a
// Network's own weight and gradient matrices, so SGD.Step applies to it
// unchanged.

// oracleCache is what one layer's per-example forward leaves for its
// backward.
type oracleCache struct {
	in, out *Volume
	cols    *tensor.Matrix // conv: the im2col unroll of in
	argmax  []int          // max pool: the input index chosen per output
}

// oracle runs a Network's layers one example at a time.
type oracle struct {
	n     *Network
	cache map[string]*oracleCache
	fwd   []*Volume // by graph position
}

func newOracle(n *Network) *oracle {
	return &oracle{n: n, cache: map[string]*oracleCache{}}
}

func (o *oracle) layerForward(l runtimeLayer, in *Volume) *Volume {
	c := &oracleCache{in: in}
	o.cache[l.Spec().Name] = c
	inS, outS := l.InShape(), l.OutShape()
	out := NewVolume(outS)
	switch l := l.(type) {
	case *convLayer:
		k, pad := l.spec.K, l.spec.Pad
		kk, n := inS.C*k*k, outS.H*outS.W
		c.cols = tensor.NewMatrix(kk, n)
		im2col(in.Data, inS, inS.H*inS.W, c.cols.Data(), n, k, l.stride, pad, outS.H, outS.W)
		biasCol := l.w.Cols() - 1
		for oc := 0; oc < outS.C; oc++ {
			b := l.w.Row(oc)[biasCol]
			row := out.Data[oc*n : (oc+1)*n]
			for j := range row {
				row[j] = b
			}
		}
		tensor.GemmStrided(outS.C, n, kk, l.w.Data(), l.w.Cols(), c.cols.Data(), n, out.Data, n, true)
	case *poolLayer:
		k := l.spec.K
		isMax := l.spec.Mode == PoolMax
		c.argmax = make([]int, outS.Size())
		oi := 0
		for ch := 0; ch < outS.C; ch++ {
			for oy := 0; oy < outS.H; oy++ {
				for ox := 0; ox < outS.W; ox++ {
					best, bestIdx := float32(math.Inf(-1)), -1
					var sum float32
					cnt := 0
					for ky := 0; ky < k; ky++ {
						iy := oy*l.stride + ky
						if iy >= inS.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*l.stride + kx
							if ix >= inS.W {
								continue
							}
							idx := (ch*inS.H+iy)*inS.W + ix
							if v := in.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
							sum += in.Data[idx]
							cnt++
						}
					}
					if isMax {
						out.Data[oi] = best
						c.argmax[oi] = bestIdx
					} else {
						out.Data[oi] = sum / float32(cnt)
					}
					oi++
				}
			}
		}
	case *fullLayer:
		biasCol := l.w.Cols() - 1
		for oc := 0; oc < outS.C; oc++ {
			out.Data[oc] = l.w.Row(oc)[biasCol]
		}
		tensor.GemmStrided(outS.C, 1, len(in.Data), l.w.Data(), l.w.Cols(), in.Data, 1, out.Data, 1, true)
	case *actLayer:
		for i, v := range in.Data {
			switch l.spec.Kind {
			case KindReLU:
				if v > 0 {
					out.Data[i] = v
				}
			case KindSigmoid:
				out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
			case KindTanh:
				out.Data[i] = float32(math.Tanh(float64(v)))
			}
		}
	case *softmaxLayer:
		softmaxInto(out.Data, in.Data)
	}
	c.out = out
	return out
}

func (o *oracle) layerBackward(l runtimeLayer, dOut *Volume) *Volume {
	c := o.cache[l.Spec().Name]
	inS, outS := l.InShape(), l.OutShape()
	dIn := NewVolume(inS)
	switch l := l.(type) {
	case *convLayer:
		k, pad := l.spec.K, l.spec.Pad
		kk, n := inS.C*k*k, outS.H*outS.W
		biasCol := l.w.Cols() - 1
		tensor.GemmNTStrided(1, outS.C, kk, n, dOut.Data, n, c.cols.Data(), n, l.g.Data(), l.g.Cols(), true)
		for oc := 0; oc < outS.C; oc++ {
			var s float32
			for _, d := range dOut.Data[oc*n : (oc+1)*n] {
				s += d
			}
			l.g.Row(oc)[biasCol] += s
		}
		dcols := tensor.NewMatrix(kk, n)
		tensor.GemmTNStrided(kk, n, outS.C, l.w.Data(), l.w.Cols(), dOut.Data, n, dcols.Data(), n, false)
		col2im(dcols.Data(), n, dIn.Data, inS, inS.H*inS.W, k, l.stride, pad, outS.H, outS.W)
	case *poolLayer:
		if l.spec.Mode == PoolMax {
			for oi, idx := range c.argmax {
				if idx >= 0 {
					dIn.Data[idx] += dOut.Data[oi]
				}
			}
			break
		}
		k := l.spec.K
		oi := 0
		for ch := 0; ch < outS.C; ch++ {
			for oy := 0; oy < outS.H; oy++ {
				for ox := 0; ox < outS.W; ox++ {
					cnt := 0
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							if oy*l.stride+ky < inS.H && ox*l.stride+kx < inS.W {
								cnt++
							}
						}
					}
					share := dOut.Data[oi] / float32(cnt)
					for ky := 0; ky < k; ky++ {
						iy := oy*l.stride + ky
						for kx := 0; kx < k; kx++ {
							ix := ox*l.stride + kx
							if iy < inS.H && ix < inS.W {
								dIn.Data[(ch*inS.H+iy)*inS.W+ix] += share
							}
						}
					}
					oi++
				}
			}
		}
	case *fullLayer:
		biasCol := l.w.Cols() - 1
		nIn := len(c.in.Data)
		for oc := 0; oc < outS.C; oc++ {
			d := dOut.Data[oc]
			grow := l.g.Row(oc)
			grow[biasCol] += d
			tensor.AddScaled(grow[:nIn], c.in.Data, d)
			tensor.AddScaled(dIn.Data, l.w.Row(oc)[:nIn], d)
		}
	case *actLayer:
		for i, v := range c.out.Data {
			switch l.spec.Kind {
			case KindReLU:
				if v > 0 {
					dIn.Data[i] = dOut.Data[i]
				}
			case KindSigmoid:
				dIn.Data[i] = dOut.Data[i] * v * (1 - v)
			case KindTanh:
				dIn.Data[i] = dOut.Data[i] * (1 - v*v)
			}
		}
	case *softmaxLayer:
		s := c.out.Data
		var dot float64
		for j, d := range dOut.Data {
			dot += float64(d) * float64(s[j])
		}
		for i := range dIn.Data {
			dIn.Data[i] = s[i] * (dOut.Data[i] - float32(dot))
		}
	}
	return dIn
}

// forwardUpTo runs one example through the DAG, stopping after the node at
// position stop.
func (o *oracle) forwardUpTo(in *Volume, stop int) *Volume {
	n := o.n
	o.fwd = make([]*Volume, len(n.g.Nodes))
	for i := 0; ; i++ {
		nd := &n.g.Nodes[i]
		preds := nd.Preds
		x := in
		switch {
		case len(preds) == 1:
			x = o.fwd[preds[0]]
		case len(preds) > 1 && nd.Spec.Kind == KindAdd:
			x = o.fwd[preds[0]].Clone()
			for _, p := range preds[1:] {
				for i, v := range o.fwd[p].Data {
					x.Data[i] += v
				}
			}
		case len(preds) > 1: // concat
			x = NewVolume(nd.In)
			off := 0
			for _, p := range preds {
				off += copy(x.Data[off:], o.fwd[p].Data)
			}
		}
		if l, ok := n.layers[nd.Spec.Name]; ok {
			x = o.layerForward(l, x)
		}
		o.fwd[i] = x
		if i == stop {
			return x
		}
	}
}

// lossAndBackward is the per-example LossAndBackward: the source layer's
// input gradient is computed and dropped, as it was.
func (o *oracle) lossAndBackward(in *Volume, label int) (float64, bool) {
	n := o.n
	logits := o.forwardUpTo(in, n.g.Logits)
	probs := Softmax(logits.Data)
	loss := -math.Log(math.Max(float64(probs[label]), 1e-12))
	correct := argmax(probs) == label
	grad := &Volume{Shape: logits.Shape, Data: probs}
	grad.Data[label] -= 1
	dOut := make([]*Volume, len(n.g.Nodes))
	dOut[n.g.Logits] = grad
	add := func(i int, g []float32) {
		buf := dOut[i]
		if buf == nil {
			buf = NewVolume(n.g.Nodes[i].Out)
			dOut[i] = buf
		}
		for i, v := range g {
			buf.Data[i] += v
		}
	}
	for i := n.g.Logits; i >= 0; i-- {
		g := dOut[i]
		if g == nil {
			continue
		}
		nd := &n.g.Nodes[i]
		dIn := g
		if l, isLayer := n.layers[nd.Spec.Name]; isLayer {
			dIn = o.layerBackward(l, g)
		}
		preds := nd.Preds
		switch {
		case len(preds) == 1:
			add(preds[0], dIn.Data)
		case len(preds) > 1 && nd.Spec.Kind == KindAdd:
			for _, p := range preds {
				add(p, dIn.Data)
			}
		case len(preds) > 1:
			off := 0
			for _, p := range preds {
				size := n.g.Nodes[p].Out.Size()
				add(p, dIn.Data[off:off+size])
				off += size
			}
		}
	}
	return loss, correct
}

// oracleTrain is Train on the per-example runtime: the same shuffles,
// minibatches, SGD steps, log entries and checkpoints, with one
// lossAndBackward per example.
func oracleTrain(n *Network, examples []Example, cfg TrainConfig) *TrainResult {
	cfg = cfg.withDefaults()
	o := newOracle(n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := &SGD{LR: cfg.LR, Momentum: cfg.Momentum, LayerLR: cfg.LayerLR}
	res := &TrainResult{}
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	if cfg.MaxIters > 0 {
		itersPerEpoch := (len(examples) + cfg.BatchSize - 1) / cfg.BatchSize
		cfg.Epochs = max(cfg.Epochs, (cfg.MaxIters+itersPerEpoch-1)/itersPerEpoch)
	}
	iter := 0
	var runLoss float64
	var runCorrect, runSeen int
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			n.ZeroGrads()
			for _, idx := range order[start:end] {
				loss, correct := o.lossAndBackward(examples[idx].Input, examples[idx].Label)
				runLoss += loss
				runSeen++
				if correct {
					runCorrect++
				}
			}
			opt.Step(n, end-start)
			iter++
			if iter%cfg.LogEvery == 0 {
				res.Log = append(res.Log, LogEntry{Iter: iter, Loss: runLoss / float64(runSeen),
					Accuracy: float64(runCorrect) / float64(runSeen), LR: cfg.LR})
				runLoss, runCorrect, runSeen = 0, 0, 0
			}
			if cfg.CheckpointEvery > 0 && iter%cfg.CheckpointEvery == 0 {
				res.Checkpoints = append(res.Checkpoints, Checkpoint{Iter: iter, Weights: n.Snapshot()})
			}
			if cfg.MaxIters > 0 && iter >= cfg.MaxIters {
				res.Final = n.Snapshot()
				return res
			}
		}
	}
	res.Final = n.Snapshot()
	return res
}

// forward1 runs one example through a runtime layer: a batch of one is
// laid out exactly as a Volume. The result aliases the layer's buffer.
func forward1(l runtimeLayer, in *Volume) *Volume {
	return &Volume{Shape: l.OutShape(), Data: l.forward(in.Data, 1)}
}

// backward1 is forward1's backward pass, returning the input gradient.
func backward1(l runtimeLayer, dOut *Volume) *Volume {
	return &Volume{Shape: l.InShape(), Data: l.backward(dOut.Data, true)}
}

// Softmax computes the softmax of logits into a new slice.
func Softmax(logits []float32) []float32 {
	out := make([]float32, len(logits))
	softmaxInto(out, logits)
	return out
}

// At returns the element at (c, y, x).
func (v *Volume) At(c, y, x int) float32 {
	return v.Data[(c*v.Shape.H+y)*v.Shape.W+x]
}

// Clone deep-copies the volume.
func (v *Volume) Clone() *Volume {
	out := NewVolume(v.Shape)
	copy(out.Data, v.Data)
	return out
}
