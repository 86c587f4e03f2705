package perturb

import (
	"math"

	"modelhub/internal/dnn"
)

// The scalar interval evaluator: per-element interval products accumulated
// in float64, one example at a time. It is the oracle the GEMM form in
// interval.go is checked against.

// ivolume is one example's interval feature volume.
type ivolume struct {
	lo, hi []float32
}

func newIVolume(s dnn.Shape) *ivolume {
	return &ivolume{lo: make([]float32, s.Size()), hi: make([]float32, s.Size())}
}

// mulInterval returns the product interval of [al,ah] x [bl,bh].
func mulInterval(al, ah, bl, bh float32) (float32, float32) {
	p1 := float64(al) * float64(bl)
	p2 := float64(al) * float64(bh)
	p3 := float64(ah) * float64(bl)
	p4 := float64(ah) * float64(bh)
	lo := math.Min(math.Min(p1, p2), math.Min(p3, p4))
	hi := math.Max(math.Max(p1, p2), math.Max(p3, p4))
	return float32(lo), float32(hi)
}

// oracleForward is the scalar counterpart of Evaluator.Forward.
func oracleForward(e *Evaluator, in *dnn.Volume, w WeightBounds) (lo, hi []float32, err error) {
	outputs := make([]*ivolume, len(e.g.Nodes))
	for i := 0; i <= e.g.Logits; i++ {
		nd := &e.g.Nodes[i]
		x := oracleInput(e, nd, in, outputs)
		var y *ivolume
		switch nd.Spec.Kind {
		case dnn.KindConv:
			y, err = oracleConv(nd, x, w)
		case dnn.KindFull:
			y, err = oracleFull(nd, x, w)
		case dnn.KindPool:
			y = oraclePool(nd, x)
		case dnn.KindReLU, dnn.KindSigmoid, dnn.KindTanh:
			y = oracleActivate(nd, x)
		default: // add, concat, softmax
			y = x
		}
		if err != nil {
			return nil, nil, err
		}
		outputs[i] = y
	}
	out := outputs[e.g.Logits]
	return out.lo, out.hi, nil
}

func oracleInput(e *Evaluator, nd *dnn.GraphNode, in *dnn.Volume, outputs []*ivolume) *ivolume {
	switch {
	case len(nd.Preds) == 0:
		x := newIVolume(in.Shape)
		copy(x.lo, in.Data)
		copy(x.hi, in.Data)
		return x
	case len(nd.Preds) == 1:
		return outputs[nd.Preds[0]]
	case nd.Spec.Kind == dnn.KindAdd:
		out := newIVolume(nd.In)
		for _, p := range nd.Preds {
			for i := range out.lo {
				out.lo[i] += outputs[p].lo[i]
				out.hi[i] += outputs[p].hi[i]
			}
		}
		return out
	default: // concat
		out := newIVolume(nd.In)
		off := 0
		for _, p := range nd.Preds {
			copy(out.lo[off:], outputs[p].lo)
			copy(out.hi[off:], outputs[p].hi)
			off += len(outputs[p].lo)
		}
		return out
	}
}

func oracleConv(nd *dnn.GraphNode, x *ivolume, w WeightBounds) (*ivolume, error) {
	wl, wh, err := weightRows(nd.Spec, nd.In, w)
	if err != nil {
		return nil, err
	}
	in, out := nd.In, nd.Out
	stride := nd.Spec.Stride
	if stride == 0 {
		stride = 1
	}
	k, pad := nd.Spec.K, nd.Spec.Pad
	biasCol := wl.Cols() - 1
	y := newIVolume(out)
	oi := 0
	for oc := 0; oc < out.C; oc++ {
		rl, rh := wl.Row(oc), wh.Row(oc)
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
				sumLo := float64(rl[biasCol])
				sumHi := float64(rh[biasCol])
				for ic := 0; ic < in.C; ic++ {
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= in.W {
								continue
							}
							wi := (ic*k+ky)*k + kx
							xi := (ic*in.H+iy)*in.W + ix
							l, h := mulInterval(rl[wi], rh[wi], x.lo[xi], x.hi[xi])
							sumLo += float64(l)
							sumHi += float64(h)
						}
					}
				}
				y.lo[oi] = float32(sumLo)
				y.hi[oi] = float32(sumHi)
				oi++
			}
		}
	}
	return y, nil
}

func oracleFull(nd *dnn.GraphNode, x *ivolume, w WeightBounds) (*ivolume, error) {
	wl, wh, err := weightRows(nd.Spec, nd.In, w)
	if err != nil {
		return nil, err
	}
	biasCol := wl.Cols() - 1
	y := newIVolume(nd.Out)
	for o := 0; o < nd.Out.C; o++ {
		rl, rh := wl.Row(o), wh.Row(o)
		sumLo := float64(rl[biasCol])
		sumHi := float64(rh[biasCol])
		for i := range x.lo {
			l, h := mulInterval(rl[i], rh[i], x.lo[i], x.hi[i])
			sumLo += float64(l)
			sumHi += float64(h)
		}
		y.lo[o] = float32(sumLo)
		y.hi[o] = float32(sumHi)
	}
	return y, nil
}

// oraclePool and oracleActivate run the batched kernels on a batch of one:
// neither has a GEMM form, so the oracle has nothing independent to say
// about them.
func oraclePool(nd *dnn.GraphNode, x *ivolume) *ivolume {
	sc := new(scratch)
	y := pool(sc, nd, ivals{lo: x.lo, hi: x.hi}, 1)
	return &ivolume{lo: y.lo, hi: y.hi}
}

func oracleActivate(nd *dnn.GraphNode, x *ivolume) *ivolume {
	sc := new(scratch)
	y := activate(sc, nd.Spec.Kind, ivals{lo: x.lo, hi: x.hi})
	return &ivolume{lo: y.lo, hi: y.hi}
}
