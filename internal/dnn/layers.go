package dnn

import (
	"fmt"
	"math"
	"slices"

	"modelhub/internal/tensor"
)

// runtimeLayer is a built, executable layer. It runs a batch of b examples
// at once, laid out [C][b][H·W]: channel-major, and within each channel
// plane the examples one after another. forward caches whatever the
// following backward needs, so a runtime layer is not safe for concurrent
// use; clone the Network per goroutine instead.
type runtimeLayer interface {
	Spec() LayerSpec
	InShape() Shape
	OutShape() Shape
	// forward returns the layer's output for a batch of b inputs. The
	// buffer is the layer's own, valid until its next forward.
	forward(in []float32, b int) []float32
	// backward accumulates the weight gradients of the last forward's batch
	// under the output gradient dOut and, when needIn is set, returns the
	// input gradient (the layer's own buffer), else nil.
	backward(dOut []float32, needIn bool) []float32
	// Weights returns the learnable parameter matrix (bias folded in as the
	// last column) or nil for non-parametric layers.
	Weights() *tensor.Matrix
	// Grad returns the accumulated weight gradient, or nil.
	Grad() *tensor.Matrix
	// release returns the layer's scratch buffers (activations, gradients,
	// im2col unrolls) to the shared arena pool; see scratch.go.
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

// layerBase carries a layer's spec and shapes, the batch size of its last
// forward, and its output and input-gradient buffers.
type layerBase struct {
	spec           LayerSpec
	in, out        Shape
	b              int
	outBuf, dInBuf []float32
}

func (l *layerBase) Spec() LayerSpec         { return l.spec }
func (l *layerBase) InShape() Shape          { return l.in }
func (l *layerBase) OutShape() Shape         { return l.out }
func (l *layerBase) Weights() *tensor.Matrix { return nil }
func (l *layerBase) Grad() *tensor.Matrix    { return nil }

func (l *layerBase) release() {
	releaseFloats(&l.outBuf)
	releaseFloats(&l.dInBuf)
}

// output returns the output buffer for a batch of b, not cleared: every
// layer writes each output element.
func (l *layerBase) output(b int) []float32 {
	l.b = b
	return scratchFloats(&l.outBuf, l.out.Size()*b, false)
}

// inGrad returns the input-gradient buffer for the last batch.
func (l *layerBase) inGrad(zero bool) []float32 {
	return scratchFloats(&l.dInBuf, l.in.Size()*l.b, zero)
}

// seedBias writes each output's bias (w's last column) across its n-wide
// row of out: the first term of every element's sum, before the GEMM's.
func seedBias(out []float32, w *tensor.Matrix, n int) {
	for o := 0; o < w.Rows(); o++ {
		bias := w.At(o, w.Cols()-1)
		for j := range out[o*n : (o+1)*n] {
			out[o*n+j] = bias
		}
	}
}

// ---------- convolution ----------

type convLayer struct {
	layerBase
	stride int
	w, g   *tensor.Matrix
	// cols holds the im2col unroll of the last batch (C·k·k × b·outH·outW,
	// each example's pixels a block of columns); dcols the matching
	// gradient, which the dX step consumes. Backward reuses the forward
	// unroll as the dW operand.
	cols, dcols []float32
}

func (l *convLayer) Weights() *tensor.Matrix { return l.w }
func (l *convLayer) Grad() *tensor.Matrix    { return l.g }

func (l *convLayer) release() {
	l.layerBase.release()
	releaseFloats(&l.cols)
	releaseFloats(&l.dcols)
}

func (l *convLayer) forward(in []float32, b int) []float32 {
	k, pad := l.spec.K, l.spec.Pad
	kk := l.in.C * k * k     // contraction depth (weight columns sans bias)
	pix := l.out.H * l.out.W // output pixels per example
	hw := l.in.H * l.in.W    // input pixels per example
	n := b * pix             // GEMM width: the whole batch
	cols := scratchFloats(&l.cols, kk*n, false)
	if sameSize(k, l.stride, pad) {
		im2colSame(in, l.in, b, cols, k)
	} else {
		for e := 0; e < b; e++ {
			im2col(in[e*hw:], l.in, b*hw, cols[e*pix:], n, k, l.stride, pad, l.out.H, l.out.W)
		}
	}
	// Seed each output row with its bias, then accumulate W·cols on top:
	// per element, bias first and then k ascending, the six-loop
	// reference's order (im2col_test.go). The seed writes every element.
	out := l.output(b)
	seedBias(out, l.w, n)
	tensor.GemmStrided(l.out.C, n, kk, l.w.Data(), l.w.Cols(), cols, n, out, n, true)
	return out
}

func (l *convLayer) backward(dOut []float32, needIn bool) []float32 {
	k, pad := l.spec.K, l.spec.Pad
	kk := l.in.C * k * k
	pix := l.out.H * l.out.W
	hw := l.in.H * l.in.W
	n := l.b * pix
	// dW and the bias gradient stay per-example partial sums, added into g
	// in example order: each example's Cout × kk block is summed over its
	// own pixels from zero, then added once. Folding the batch into the
	// GEMM's depth would re-associate those sums.
	tensor.GemmNTStrided(l.b, l.out.C, kk, pix, dOut, n, l.cols, n, l.g.Data(), l.g.Cols(), true)
	biasGrad(l.g, dOut, l.b, pix)
	if !needIn {
		return nil
	}
	// dIn = col2im(Wᵀ · dOut), one GEMM over the batch.
	dcols := scratchFloats(&l.dcols, kk*n, false)
	tensor.GemmTNStrided(kk, n, l.out.C, l.w.Data(), l.w.Cols(), dOut, n, dcols, n, false)
	dIn := l.inGrad(true) // col2im scatter-adds
	if sameSize(k, l.stride, pad) {
		col2imSame(dcols, dIn, l.in, l.b, k)
		return dIn
	}
	for e := 0; e < l.b; e++ {
		col2im(dcols[e*pix:], n, dIn[e*hw:], l.in, l.b*hw, k, l.stride, pad, l.out.H, l.out.W)
	}
	return dIn
}

// biasGrad adds each example's bias gradient into g's last column, in
// example order: per output channel, the sum from zero of the example's
// pix-wide block of its dOut row. Four channels are summed side by side, so
// four dependency chains run at once; no single sum is reordered.
func biasGrad(g *tensor.Matrix, dOut []float32, b, pix int) {
	gd, gc, n := g.Data(), g.Cols(), b*pix
	for e := 0; e < b; e++ {
		oc := 0
		for ; oc+4 <= g.Rows(); oc += 4 {
			r0 := dOut[oc*n+e*pix : oc*n+(e+1)*pix]
			r1 := dOut[(oc+1)*n+e*pix : (oc+1)*n+(e+1)*pix][:len(r0)]
			r2 := dOut[(oc+2)*n+e*pix : (oc+2)*n+(e+1)*pix][:len(r0)]
			r3 := dOut[(oc+3)*n+e*pix : (oc+3)*n+(e+1)*pix][:len(r0)]
			var s0, s1, s2, s3 float32
			for p, d := range r0 {
				s0 += d
				s1 += r1[p]
				s2 += r2[p]
				s3 += r3[p]
			}
			gd[(oc+1)*gc-1] += s0
			gd[(oc+2)*gc-1] += s1
			gd[(oc+3)*gc-1] += s2
			gd[(oc+4)*gc-1] += s3
		}
		for ; oc < g.Rows(); oc++ {
			var s float32
			for _, d := range dOut[oc*n+e*pix : oc*n+(e+1)*pix] {
				s += d
			}
			gd[(oc+1)*gc-1] += s
		}
	}
}

// ---------- pooling ----------

// poolLayer pools each (channel, example) plane independently, so a batch
// is simply C·b planes.
type poolLayer struct {
	layerBase
	stride int
	argmax []int32 // for MAX: input index chosen per output element, or −1
}

func (l *poolLayer) release() {
	l.layerBase.release()
	l.argmax = nil
}

// forward pools every window in output order: plane by plane, then rows,
// then columns. Border windows may be smaller than k × k. MAX keeps the
// first index holding the window's largest value: a strict > from −Inf, so
// of equal values (±0 included) the first wins, NaN never does, and a window
// of only NaN and −Inf records −1 and outputs −Inf.
func (l *poolLayer) forward(in []float32, b int) []float32 {
	out := l.output(b) // every output element is assigned below
	k, s, h, w := l.spec.K, l.stride, l.in.H, l.in.W
	in = in[:l.in.C*b*h*w]
	isMax := l.spec.Mode == PoolMax
	if isMax {
		l.argmax = slices.Grow(l.argmax[:0], len(out))[:len(out)]
		if k == 2 && s == 2 && h%2 == 0 && w%2 == 0 {
			maxPool2x2(in, out, l.argmax, w)
			return out
		}
	}
	oi := 0
	for plane := 0; plane < len(in); plane += h * w {
		for oy := 0; oy < l.out.H; oy++ {
			y0, y1 := oy*s, min(oy*s+k, h)
			for ox := 0; ox < l.out.W; ox++ {
				x0, x1 := ox*s, min(ox*s+k, w)
				if isMax {
					best, idx := uint32(negInfBits), int32(-1)
					for row := plane + y0*w; row < plane+y1*w; row += w {
						for ix, v := range in[row+x0 : row+x1] {
							best, idx = maxCell(best, idx, v, row+x0+ix)
						}
					}
					out[oi], l.argmax[oi] = math.Float32frombits(best), idx
				} else {
					var sum float32
					for row := plane + y0*w; row < plane+y1*w; row += w {
						for _, v := range in[row+x0 : row+x1] {
							sum += v
						}
					}
					out[oi] = sum / float32((y1-y0)*(x1-x0))
				}
				oi++
			}
		}
	}
	return out
}

// negInfBits is −Inf's bit pattern, where every max scan starts.
const negInfBits = 0xff800000

// maxPool2x2 is forward's MAX over 2×2 windows at stride 2, in being whole
// pairs of w-wide rows: the pools of every zoo net. It is the generic loop
// unrolled over one window's four cells, with no loop left inside a window.
func maxPool2x2(in, out []float32, argmax []int32, w int) {
	oi := 0
	for r := 0; r < len(in); r += 2 * w {
		row0, row1 := in[r:r+w], in[r+w:r+2*w]
		for x := 0; x+1 < len(row0); x += 2 {
			best, idx := uint32(negInfBits), int32(-1)
			best, idx = maxCell(best, idx, row0[x], r+x)
			best, idx = maxCell(best, idx, row0[x+1], r+x+1)
			best, idx = maxCell(best, idx, row1[x], r+w+x)
			best, idx = maxCell(best, idx, row1[x+1], r+w+x+1)
			out[oi], argmax[oi] = math.Float32frombits(best), idx
			oi++
		}
	}
}

// maxCell is one step of the max scan: input i, holding v, replaces the best
// so far only when v > best. The data-dependent branch this would be
// mispredicts on about every other cell of ReLU outputs, so the best is
// kept as bits and v's bits are taken before the compare: both assignments
// then compile to conditional moves (with a float32 best, Go branches).
func maxCell(best uint32, idx int32, v float32, i int) (uint32, int32) {
	bits := math.Float32bits(v)
	if v > math.Float32frombits(best) {
		best, idx = bits, int32(i)
	}
	return best, idx
}

func (l *poolLayer) backward(dOut []float32, needIn bool) []float32 {
	if !needIn {
		return nil
	}
	dIn := l.inGrad(true) // scatter-add target
	if l.spec.Mode == PoolMax {
		for oi, idx := range l.argmax {
			if idx >= 0 {
				dIn[idx] += dOut[oi]
			}
		}
		return dIn
	}
	// AVG: each output's gradient spreads evenly over its window.
	k, s, h, w := l.spec.K, l.stride, l.in.H, l.in.W
	oi := 0
	for plane := 0; plane < l.in.C*l.b*h*w; plane += h * w {
		for oy := 0; oy < l.out.H; oy++ {
			y0, y1 := oy*s, min(oy*s+k, h)
			for ox := 0; ox < l.out.W; ox++ {
				x0, x1 := ox*s, min(ox*s+k, w)
				share := dOut[oi] / float32((y1-y0)*(x1-x0))
				for row := plane + y0*w; row < plane+y1*w; row += w {
					for ix := row + x0; ix < row+x1; ix++ {
						dIn[ix] += share
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
	w, g *tensor.Matrix
	// xt holds the last batch's inputs as b rows in Volume order, the dW
	// operand; xBuf their in × b transpose, the forward operand, when the
	// input has more than one pixel per channel (with one, the input buffer
	// already is that matrix).
	xt, xBuf []float32
}

func (l *fullLayer) Weights() *tensor.Matrix { return l.w }
func (l *fullLayer) Grad() *tensor.Matrix    { return l.g }

func (l *fullLayer) release() {
	l.layerBase.release()
	releaseFloats(&l.xBuf)
	releaseFloats(&l.xt)
}

func (l *fullLayer) forward(in []float32, b int) []float32 {
	nIn := l.in.Size()
	xt := scratchFloats(&l.xt, b*nIn, false)
	for e := 0; e < b; e++ {
		copyExample(xt[e*nIn:(e+1)*nIn], in, l.in, b, e, false)
	}
	x := in
	if l.in.H*l.in.W > 1 {
		x = scratchFloats(&l.xBuf, nIn*b, false)
		for i := range x {
			x[i] = xt[i%b*nIn+i/b]
		}
	}
	// Seed with biases, then one GEMM over the batch: per element, bias
	// first and then inputs ascending. The seed writes every element.
	out := l.output(b)
	seedBias(out, l.w, b)
	tensor.GemmStrided(l.out.C, b, nIn, l.w.Data(), l.w.Cols(), x, b, out, b, true)
	return out
}

func (l *fullLayer) backward(dOut []float32, needIn bool) []float32 {
	b, nIn := l.b, l.in.Size()
	gd, gc := l.g.Data(), l.g.Cols()
	// dW += dOut · xt with the batch as the GEMM's depth: each weight's
	// gradient adds d·x one example at a time, in example order.
	tensor.GemmStrided(l.out.C, nIn, b, dOut, b, l.xt, nIn, gd, gc, true)
	for o := 0; o < l.out.C; o++ {
		for _, d := range dOut[o*b : (o+1)*b] {
			gd[o*gc+gc-1] += d
		}
	}
	if !needIn {
		return nil
	}
	// dIn = Wᵀ · dOut, one example per row: per element, zero plus each
	// output's term in order.
	dxt := scratchFloats(&l.xt, b*nIn, false) // xt is spent
	tensor.GemmTNStrided(b, nIn, l.out.C, dOut, b, l.w.Data(), l.w.Cols(), dxt, nIn, false)
	dIn := l.inGrad(false) // every example is copied in
	for e := 0; e < b; e++ {
		copyExample(dxt[e*nIn:(e+1)*nIn], dIn, l.in, b, e, true)
	}
	return dIn
}

// ---------- activations ----------

type actLayer struct {
	layerBase
}

// positiveMask is all ones when v > 0 and zero for NaN, ±0 and negatives,
// without the branch that mispredicts on every other ReLU input: v > 0
// exactly when v's bits less one, unsigned, are below +Inf's, and the sign
// of that difference in 64 bits is the mask. A masked element is +0, as
// under the branch. perturb's interval ReLU uses the same rule.
func positiveMask(v float32) uint32 {
	return uint32((int64(math.Float32bits(v)-1) - 0x7f800000) >> 63)
}

func (l *actLayer) forward(in []float32, b int) []float32 {
	// Each case assigns every element (ReLU writes masked zeros), so the
	// reused buffer needs no clearing.
	out := l.output(b)
	switch l.spec.Kind {
	case KindReLU:
		for i, v := range in {
			out[i] = math.Float32frombits(math.Float32bits(v) & positiveMask(v))
		}
	case KindSigmoid:
		for i, v := range in {
			out[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case KindTanh:
		for i, v := range in {
			out[i] = float32(math.Tanh(float64(v)))
		}
	}
	return out
}

func (l *actLayer) backward(dOut []float32, needIn bool) []float32 {
	if !needIn {
		return nil
	}
	dIn := l.inGrad(false) // every element assigned
	switch l.spec.Kind {
	case KindReLU:
		for i, v := range l.outBuf {
			dIn[i] = math.Float32frombits(math.Float32bits(dOut[i]) & positiveMask(v))
		}
	case KindSigmoid:
		for i, v := range l.outBuf {
			dIn[i] = dOut[i] * v * (1 - v)
		}
	case KindTanh:
		for i, v := range l.outBuf {
			dIn[i] = dOut[i] * (1 - v*v)
		}
	}
	return dIn
}

// ---------- softmax ----------

// softmaxLayer normalizes each example's whole volume. An example's
// elements are strided through the batch: forward gathers each into ex.
type softmaxLayer struct {
	layerBase
	ex []float32
}

func (l *softmaxLayer) release() {
	l.layerBase.release()
	releaseFloats(&l.ex)
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

func (l *softmaxLayer) forward(in []float32, b int) []float32 {
	out := l.output(b) // every example's elements are assigned
	ex := scratchFloats(&l.ex, l.in.Size(), false)
	for e := 0; e < b; e++ {
		copyExample(ex, in, l.in, b, e, false)
		softmaxInto(ex, ex)
		copyExample(ex, out, l.in, b, e, true)
	}
	return out
}

func (l *softmaxLayer) backward(dOut []float32, needIn bool) []float32 {
	if !needIn {
		return nil
	}
	// dIn_i = s_i * (dOut_i - sum_j dOut_j * s_j), per example.
	dIn := l.inGrad(false) // every example's elements are assigned
	s, hw := l.outBuf, l.in.H*l.in.W
	for e := 0; e < l.b; e++ {
		at := func(i int) int { return (i/hw*l.b+e)*hw + i%hw } // element i of example e
		var dot float64
		for j := 0; j < l.in.Size(); j++ {
			dot += float64(dOut[at(j)]) * float64(s[at(j)])
		}
		for i := 0; i < l.in.Size(); i++ {
			dIn[at(i)] = s[at(i)] * (dOut[at(i)] - float32(dot))
		}
	}
	return dIn
}
