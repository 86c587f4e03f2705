package dnn

import (
	"fmt"
	"math"

	"modelhub/internal/tensor"
)

// runtimeLayer is a built, executable layer. Forward caches whatever the
// subsequent Backward call needs, so a runtime layer is not safe for
// concurrent use; clone the Network per goroutine instead.
type runtimeLayer interface {
	Spec() LayerSpec
	InShape() Shape
	OutShape() Shape
	Forward(in *Volume) *Volume
	Backward(dOut *Volume) *Volume
	// Weights returns the learnable parameter matrix (bias folded in as the
	// last column) or nil for non-parametric layers.
	Weights() *tensor.Matrix
	// Grad returns the accumulated weight gradient, or nil.
	Grad() *tensor.Matrix
	// release returns the layer's scratch buffers (activations, gradient
	// volumes, im2col unrolls) to the shared arena pool; see scratch.go.
	release()
}

// buildLayer constructs the runtime layer for a spec at a given input shape.
func buildLayer(spec LayerSpec, in Shape) (runtimeLayer, error) {
	out, err := spec.OutShape(in)
	if err != nil {
		return nil, err
	}
	base := layerBase{spec: spec, in: in, out: out}
	switch spec.Kind {
	case KindConv:
		stride := spec.Stride
		if stride == 0 {
			stride = 1
		}
		rows, cols, err := spec.ParamShape(in)
		if err != nil {
			return nil, err
		}
		return &convLayer{layerBase: base, stride: stride,
			w: tensor.NewMatrix(rows, cols), g: tensor.NewMatrix(rows, cols)}, nil
	case KindPool:
		stride := spec.Stride
		if stride == 0 {
			stride = spec.K
		}
		return &poolLayer{layerBase: base, stride: stride}, nil
	case KindFull:
		rows, cols, err := spec.ParamShape(in)
		if err != nil {
			return nil, err
		}
		return &fullLayer{layerBase: base,
			w: tensor.NewMatrix(rows, cols), g: tensor.NewMatrix(rows, cols)}, nil
	case KindReLU, KindSigmoid, KindTanh:
		return &actLayer{layerBase: base}, nil
	case KindSoftmax:
		return &softmaxLayer{layerBase: base}, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrNetDef, spec.Kind)
	}
}

type layerBase struct {
	spec LayerSpec
	in   Shape
	out  Shape
}

func (b *layerBase) Spec() LayerSpec         { return b.spec }
func (b *layerBase) InShape() Shape          { return b.in }
func (b *layerBase) OutShape() Shape         { return b.out }
func (b *layerBase) Weights() *tensor.Matrix { return nil }
func (b *layerBase) Grad() *tensor.Matrix    { return nil }
func (b *layerBase) release()                {}

// ---------- convolution ----------

type convLayer struct {
	layerBase
	stride int
	w, g   *tensor.Matrix
	// cols holds the im2col unroll of the last input (C·k·k × outH·outW);
	// dcols the matching gradient buffer. Both are lazily allocated once per
	// layer and reused across examples, so steady-state training and batched
	// evaluation do no per-example column allocation. Forward fills cols and
	// Backward consumes it, so the forward pass's unroll doubles as the dW
	// operand for free.
	cols, dcols *tensor.Matrix
	// outBuf/dInBuf are the layer's persistent activation and input-gradient
	// volumes (scratch.go); dInBuf is a col2im scatter-add target and is
	// zeroed on reuse.
	outBuf, dInBuf *Volume
}

func (l *convLayer) Weights() *tensor.Matrix { return l.w }
func (l *convLayer) Grad() *tensor.Matrix    { return l.g }

func (l *convLayer) release() {
	releaseMatrix(&l.cols)
	releaseMatrix(&l.dcols)
	releaseVolume(&l.outBuf)
	releaseVolume(&l.dInBuf)
}

func (l *convLayer) Forward(in *Volume) *Volume {
	k, pad := l.spec.K, l.spec.Pad
	kk := l.in.C * k * k   // contraction depth (weight columns sans bias)
	n := l.out.H * l.out.W // output pixels
	cols := scratchMatrix(&l.cols, kk, n)
	im2col(in, cols, k, l.stride, pad, l.out.H, l.out.W)
	// Bias seed below writes every output element, so no zero-on-reuse.
	out := scratchVolume(&l.outBuf, l.out, false)
	// Seed each output row with its bias, then accumulate W·cols on top:
	// per-element summation order (bias first, then k ascending) matches the
	// six-loop reference (im2col_test.go) bit-for-bit.
	biasCol := l.w.Cols() - 1
	for oc := 0; oc < l.out.C; oc++ {
		b := l.w.Row(oc)[biasCol]
		row := out.Data[oc*n : (oc+1)*n]
		for j := range row {
			row[j] = b
		}
	}
	tensor.GemmStrided(l.out.C, n, kk, l.w.Data(), l.w.Cols(), cols.Data(), n, out.Data, n, true)
	return out
}

func (l *convLayer) Backward(dOut *Volume) *Volume {
	k, pad := l.spec.K, l.spec.Pad
	kk := l.in.C * k * k
	n := l.out.H * l.out.W
	biasCol := l.w.Cols() - 1
	// dW += dOut · colsᵀ, reusing the unroll the forward pass left behind.
	tensor.GemmNTStrided(l.out.C, kk, n, dOut.Data, n, l.cols.Data(), n, l.g.Data(), l.g.Cols(), true)
	for oc := 0; oc < l.out.C; oc++ {
		var s float32
		for _, d := range dOut.Data[oc*n : (oc+1)*n] {
			s += d
		}
		l.g.Row(oc)[biasCol] += s
	}
	// dIn = col2im(Wᵀ · dOut).
	dcols := scratchMatrix(&l.dcols, kk, n)
	tensor.GemmTNStrided(kk, n, l.out.C, l.w.Data(), l.w.Cols(), dOut.Data, n, dcols.Data(), n, false)
	dIn := scratchVolume(&l.dInBuf, l.in, true) // col2im scatter-adds
	col2im(dcols, dIn, k, l.stride, pad, l.out.H, l.out.W)
	return dIn
}

// ---------- pooling ----------

type poolLayer struct {
	layerBase
	stride         int
	argmax         []int // for MAX: input index chosen per output element
	lastIn         *Volume
	outBuf, dInBuf *Volume
}

func (l *poolLayer) release() {
	releaseVolume(&l.outBuf)
	releaseVolume(&l.dInBuf)
	l.argmax = nil
	l.lastIn = nil
}

func (l *poolLayer) Forward(in *Volume) *Volume {
	l.lastIn = in
	// Every output element (and argmax entry) is assigned below.
	out := scratchVolume(&l.outBuf, l.out, false)
	k := l.spec.K
	isMax := l.spec.Mode == PoolMax
	if isMax {
		if sz := l.out.Size(); cap(l.argmax) >= sz {
			l.argmax = l.argmax[:sz]
		} else {
			l.argmax = make([]int, sz)
		}
	}
	oi := 0
	for c := 0; c < l.out.C; c++ {
		for oy := 0; oy < l.out.H; oy++ {
			for ox := 0; ox < l.out.W; ox++ {
				if isMax {
					best := float32(math.Inf(-1))
					bestIdx := -1
					for ky := 0; ky < k; ky++ {
						iy := oy*l.stride + ky
						if iy >= l.in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*l.stride + kx
							if ix >= l.in.W {
								continue
							}
							idx := (c*l.in.H+iy)*l.in.W + ix
							if v := in.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					out.Data[oi] = best
					l.argmax[oi] = bestIdx
				} else {
					var sum float32
					n := 0
					for ky := 0; ky < k; ky++ {
						iy := oy*l.stride + ky
						if iy >= l.in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*l.stride + kx
							if ix >= l.in.W {
								continue
							}
							sum += in.At(c, iy, ix)
							n++
						}
					}
					out.Data[oi] = sum / float32(n)
				}
				oi++
			}
		}
	}
	return out
}

func (l *poolLayer) Backward(dOut *Volume) *Volume {
	dIn := scratchVolume(&l.dInBuf, l.in, true) // scatter-add target
	k := l.spec.K
	if l.spec.Mode == PoolMax {
		for oi, idx := range l.argmax {
			if idx >= 0 {
				dIn.Data[idx] += dOut.Data[oi]
			}
		}
		return dIn
	}
	oi := 0
	for c := 0; c < l.out.C; c++ {
		for oy := 0; oy < l.out.H; oy++ {
			for ox := 0; ox < l.out.W; ox++ {
				// Count window size (borders may be smaller).
				n := 0
				for ky := 0; ky < k; ky++ {
					if oy*l.stride+ky < l.in.H {
						for kx := 0; kx < k; kx++ {
							if ox*l.stride+kx < l.in.W {
								n++
							}
						}
					}
				}
				share := dOut.Data[oi] / float32(n)
				for ky := 0; ky < k; ky++ {
					iy := oy*l.stride + ky
					if iy >= l.in.H {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*l.stride + kx
						if ix >= l.in.W {
							continue
						}
						dIn.Data[(c*l.in.H+iy)*l.in.W+ix] += share
					}
				}
				oi++
			}
		}
	}
	return dIn
}

// ---------- fully connected ----------

type fullLayer struct {
	layerBase
	w, g           *tensor.Matrix
	lastIn         *Volume
	outBuf, dInBuf *Volume
}

func (l *fullLayer) Weights() *tensor.Matrix { return l.w }
func (l *fullLayer) Grad() *tensor.Matrix    { return l.g }

func (l *fullLayer) release() {
	releaseVolume(&l.outBuf)
	releaseVolume(&l.dInBuf)
	l.lastIn = nil
}

func (l *fullLayer) Forward(in *Volume) *Volume {
	l.lastIn = in
	// Bias seed writes every output element before the accumulating GEMM.
	out := scratchVolume(&l.outBuf, l.out, false)
	biasCol := l.w.Cols() - 1
	nIn := len(in.Data)
	// Seed with biases, then one matrix-vector GEMM: summation order (bias
	// first, then inputs ascending) matches the previous scalar loop.
	for o := 0; o < l.out.C; o++ {
		out.Data[o] = l.w.Row(o)[biasCol]
	}
	tensor.GemmStrided(l.out.C, 1, nIn, l.w.Data(), l.w.Cols(), in.Data, 1, out.Data, 1, true)
	return out
}

func (l *fullLayer) Backward(dOut *Volume) *Volume {
	in := l.lastIn
	dIn := scratchVolume(&l.dInBuf, l.in, true) // AddScaled accumulates

	biasCol := l.w.Cols() - 1
	nIn := len(in.Data)
	for o := 0; o < l.out.C; o++ {
		d := dOut.Data[o]
		row := l.w.Row(o)
		grow := l.g.Row(o)
		grow[biasCol] += d
		tensor.AddScaled(grow[:nIn], in.Data, d)
		tensor.AddScaled(dIn.Data, row[:nIn], d)
	}
	return dIn
}

// ---------- activations ----------

type actLayer struct {
	layerBase
	lastOut        *Volume
	outBuf, dInBuf *Volume
}

func (l *actLayer) release() {
	releaseVolume(&l.outBuf)
	releaseVolume(&l.dInBuf)
	l.lastOut = nil
}

func (l *actLayer) Forward(in *Volume) *Volume {
	// Each branch assigns every element (ReLU writes explicit zeros), so the
	// reused buffer needs no clearing.
	out := scratchVolume(&l.outBuf, l.out, false)
	switch l.spec.Kind {
	case KindReLU:
		for i, v := range in.Data {
			if v > 0 {
				out.Data[i] = v
			} else {
				out.Data[i] = 0
			}
		}
	case KindSigmoid:
		for i, v := range in.Data {
			out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case KindTanh:
		for i, v := range in.Data {
			out.Data[i] = float32(math.Tanh(float64(v)))
		}
	}
	l.lastOut = out
	return out
}

func (l *actLayer) Backward(dOut *Volume) *Volume {
	dIn := scratchVolume(&l.dInBuf, l.in, false) // every element assigned
	out := l.lastOut
	switch l.spec.Kind {
	case KindReLU:
		for i, v := range out.Data {
			if v > 0 {
				dIn.Data[i] = dOut.Data[i]
			} else {
				dIn.Data[i] = 0
			}
		}
	case KindSigmoid:
		for i, v := range out.Data {
			dIn.Data[i] = dOut.Data[i] * v * (1 - v)
		}
	case KindTanh:
		for i, v := range out.Data {
			dIn.Data[i] = dOut.Data[i] * (1 - v*v)
		}
	}
	return dIn
}

// ---------- softmax ----------

type softmaxLayer struct {
	layerBase
	lastOut        *Volume
	outBuf, dInBuf *Volume
}

func (l *softmaxLayer) release() {
	releaseVolume(&l.outBuf)
	releaseVolume(&l.dInBuf)
	l.lastOut = nil
}

// softmaxInto writes the softmax of logits into dst (len(dst) must equal
// len(logits)), with the usual max-subtraction for numerical stability.
func softmaxInto(dst, logits []float32) {
	mx := float32(math.Inf(-1))
	for _, v := range logits {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - mx))
		dst[i] = float32(e)
		sum += e
	}
	for i := range dst {
		dst[i] = float32(float64(dst[i]) / sum)
	}
}

// Softmax computes the softmax of logits into a new slice.
func Softmax(logits []float32) []float32 {
	out := make([]float32, len(logits))
	softmaxInto(out, logits)
	return out
}

func (l *softmaxLayer) Forward(in *Volume) *Volume {
	out := scratchVolume(&l.outBuf, l.out, false) // softmaxInto assigns all
	softmaxInto(out.Data, in.Data)
	l.lastOut = out
	return out
}

func (l *softmaxLayer) Backward(dOut *Volume) *Volume {
	// dIn_i = s_i * (dOut_i - sum_j dOut_j * s_j)
	s := l.lastOut.Data
	var dot float64
	for j, d := range dOut.Data {
		dot += float64(d) * float64(s[j])
	}
	dIn := scratchVolume(&l.dInBuf, l.in, false) // every element assigned
	for i := range dIn.Data {
		dIn.Data[i] = s[i] * (dOut.Data[i] - float32(dot))
	}
	return dIn
}
