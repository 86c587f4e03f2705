// Package perturb implements the paper's progressive model evaluation
// scheme (Sec. IV-D): evaluate a DNN forward pass while every weight is
// only known to lie in an interval (because only the high-order byte planes
// were retrieved), propagate the perturbation through every layer, and use
// the Lemma-4 determinism condition to decide whether the prediction is
// already certain or whether lower-order byte planes must be fetched.
package perturb

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
)

// WeightBounds carries the lo/hi matrices of every parametric layer.
type WeightBounds struct {
	Lo, Hi map[string]*tensor.Matrix
}

// ExactWeights wraps a concrete snapshot as degenerate bounds.
func ExactWeights(w map[string]*tensor.Matrix) WeightBounds {
	return WeightBounds{Lo: w, Hi: w}
}

// Evaluator runs interval forward passes of a network definition under
// uncertain weights (paper Problem 2). It runs the same graph as the dnn DAG
// executor: chains are the common case; add/concat merge nodes propagate
// intervals by interval addition and concatenation. An Evaluator is
// read-only after construction, so concurrent passes may share one.
type Evaluator struct {
	g *dnn.Graph
	// params lists the parametric layers in definition order.
	params []string
}

// NewEvaluator works out the definition's graph.
func NewEvaluator(def *dnn.NetDef) (*Evaluator, error) {
	g, err := def.Graph()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{g: g}
	for _, l := range def.Nodes {
		if l.Parametric() {
			e.params = append(e.params, l.Name)
		}
	}
	return e, nil
}

// Forward is ForwardBatch for one input.
func (e *Evaluator) Forward(in *dnn.Volume, w WeightBounds) (lo, hi []float32, err error) {
	los, his, err := e.ForwardBatch([]*dnn.Volume{in}, w)
	if err != nil {
		return nil, nil, err
	}
	return los[0], his[0], nil
}

// ForwardBatch propagates every input through the DAG under the weight bounds
// and returns the interval of every output logit, per input. A trailing
// softmax layer is skipped: softmax preserves the ordering of logits, so
// Lemma 4 applies to the logits directly.
//
// Each input's bounds are bit-identical however the batch is composed: every
// output element is summed in a fixed order that does not depend on the other
// columns of its GEMM, and a sign-split term skipped for one batch but not
// another would add only zeros (see affine).
func (e *Evaluator) ForwardBatch(ins []*dnn.Volume, w WeightBounds) (lo, hi [][]float32, err error) {
	sc := getScratch()
	defer sc.release()
	return e.forward(sc, ins, w)
}

// forward is ForwardBatch on a caller-held scratch, which it rewinds first.
func (e *Evaluator) forward(sc *scratch, ins []*dnn.Volume, w WeightBounds) (lo, hi [][]float32, err error) {
	if err := e.checkShapes(ins); err != nil {
		return nil, nil, err
	}
	if len(ins) == 0 {
		return nil, nil, nil
	}
	sc.used = 0
	b := len(ins)
	vals := make([]ivals, e.g.Logits+1)
	for i := range vals {
		nd := &e.g.Nodes[i]
		x := e.nodeInput(sc, nd, ins, vals)
		switch nd.Spec.Kind {
		case dnn.KindConv, dnn.KindFull:
			vals[i], err = affine(sc, nd, x, b, w)
		case dnn.KindPool:
			vals[i] = pool(sc, nd, x, b)
		case dnn.KindReLU, dnn.KindSigmoid, dnn.KindTanh:
			vals[i] = activate(sc, nd.Spec.Kind, x)
		case dnn.KindAdd, dnn.KindConcat, dnn.KindSoftmax:
			// nodeInput already merged the predecessors; a softmax before the
			// logits node preserves ordering, as above.
			vals[i] = x
		default:
			err = fmt.Errorf("perturb: unsupported layer kind %q", nd.Spec.Kind)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	n := e.g.Nodes[e.g.Logits].Out.Size()
	return perExample(vals[e.g.Logits].lo, b, n), perExample(vals[e.g.Logits].hi, b, n), nil
}

// checkShapes reports the first input whose shape is not the network's.
func (e *Evaluator) checkShapes(ins []*dnn.Volume) error {
	want := e.g.Nodes[e.g.Source].In
	for i, in := range ins {
		if in.Shape != want {
			return fmt.Errorf("perturb: input %d shape %v, want %v", i, in.Shape, want)
		}
	}
	return nil
}

// perExample copies a logits batch out of scratch, one slice per input.
func perExample(v []float32, b, n int) [][]float32 {
	flat := append([]float32(nil), v[:b*n]...)
	out := make([][]float32, b)
	for e := range out {
		out[e] = flat[e*n : (e+1)*n : (e+1)*n]
	}
	return out
}

// ivals is a batch of interval volumes, example-major: example e's volume is
// lo[e·size : (e+1)·size] (hi likewise), channel-major inside. lo and hi may
// alias when the values are exact.
type ivals struct{ lo, hi []float32 }

// nodeInput assembles a node's interval input from its predecessors,
// merging for add (interval sums) and concat (per-example concatenation).
func (e *Evaluator) nodeInput(sc *scratch, nd *dnn.GraphNode, ins []*dnn.Volume, vals []ivals) ivals {
	switch {
	case len(nd.Preds) == 0:
		size := nd.In.Size()
		x := sc.floats(len(ins) * size)
		for i, in := range ins {
			copy(x[i*size:], in.Data)
		}
		return ivals{lo: x, hi: x}
	case len(nd.Preds) == 1:
		return vals[nd.Preds[0]]
	case nd.Spec.Kind == dnn.KindAdd:
		first := vals[nd.Preds[0]]
		y := ivals{lo: sc.floats(len(first.lo)), hi: sc.floats(len(first.hi))}
		copy(y.lo, first.lo)
		copy(y.hi, first.hi)
		for _, p := range nd.Preds[1:] {
			pv := vals[p]
			for i := range y.lo {
				y.lo[i] += pv.lo[i]
				y.hi[i] += pv.hi[i]
			}
		}
		return y
	default: // concat
		size := nd.In.Size()
		y := ivals{lo: sc.floats(len(ins) * size), hi: sc.floats(len(ins) * size)}
		off := 0
		for _, p := range nd.Preds {
			pv, psize := vals[p], e.g.Nodes[p].Out.Size()
			for i := range ins {
				copy(y.lo[i*size+off:], pv.lo[i*psize:(i+1)*psize])
				copy(y.hi[i*size+off:], pv.hi[i*psize:(i+1)*psize])
			}
			off += psize
		}
		return y
	}
}

func weightRows(spec dnn.LayerSpec, in dnn.Shape, w WeightBounds) (lo, hi *tensor.Matrix, err error) {
	rows, cols, err := spec.ParamShape(in)
	if err != nil {
		return nil, nil, err
	}
	lo, okLo := w.Lo[spec.Name]
	hi, okHi := w.Hi[spec.Name]
	if !okLo || !okHi {
		return nil, nil, fmt.Errorf("perturb: missing weight bounds for layer %q", spec.Name)
	}
	if lo.Rows() != rows || lo.Cols() != cols || hi.Rows() != rows || hi.Cols() != cols {
		return nil, nil, fmt.Errorf("perturb: weight bounds for %q are %dx%d, want %dx%d",
			spec.Name, lo.Rows(), lo.Cols(), rows, cols)
	}
	return lo, hi, nil
}

// affine runs a conv or full layer over the whole batch as one GEMM on
// sign-split operands. With w⁺ = max(w,0), w⁻ = min(w,0) and likewise for x,
//
//	lo = Wl⁺·xl⁺ + Wl⁻·xh⁺ + Wh⁺·xl⁻ + Wh⁻·xh⁻
//	hi = Wh⁺·xh⁺ + Wh⁻·xl⁺ + Wl⁺·xh⁻ + Wl⁻·xl⁻
//
// In real arithmetic this is the interval product summed over k whenever no
// weight interval straddles zero — byte-plane bounds never do, the sign bit
// being in plane 1 — and contains it otherwise. The lo and hi rows are stacked
// into one 2·Cout × 4K operand against one 4K × (batch·pixels) unroll (a full
// layer is a conv with one output pixel) whose rows run (xl⁺_t, xh⁺_t) for
// every t, then (xl⁻_t, xh⁻_t). That order pairs the terms so that exact
// weights and inputs give lo == hi, and puts the x⁻ half last: when no input
// bound is negative — every layer after a ReLU — it is all zero and the GEMM
// stops at 2K. Whether it is skipped depends on the whole batch, which
// leaves every example's bits alone: an example with no negative input adds
// only ±0 there, to a sum that already holds a W⁺·x⁺ term, which is +0 or
// positive, so the sum is not −0 and adding zeros leaves it unchanged.
func affine(sc *scratch, nd *dnn.GraphNode, x ivals, b int, w WeightBounds) (ivals, error) {
	wl, wh, err := weightRows(nd.Spec, nd.In, w)
	if err != nil {
		return ivals{}, err
	}
	in, out := nd.In, nd.Out
	kh, kw, stride, pad := in.H, in.W, 1, 0 // full: one window over the input
	if nd.Spec.Kind == dnn.KindConv {
		kh, kw, pad = nd.Spec.K, nd.Spec.K, nd.Spec.Pad
		if nd.Spec.Stride > 0 {
			stride = nd.Spec.Stride
		}
	}
	kk := wl.Cols() - 1 // in.C·kh·kw; the last column is the bias
	cout, pixels := out.C, out.H*out.W
	n := b * pixels
	// Both bounds are scanned: rounding can leave hi an ulp below lo.
	neg := hasNegative(x.lo) || hasNegative(x.hi)
	depth := 2 * kk
	if neg {
		depth = 4 * kk
	}

	a := sc.floats(2 * cout * depth)
	for oc := 0; oc < cout; oc++ {
		rl, rh := wl.Row(oc), wh.Row(oc)
		alo := a[oc*depth : (oc+1)*depth]
		ahi := a[(cout+oc)*depth : (cout+oc+1)*depth]
		for t := 0; t < kk; t++ {
			lp, ln := signSplit(rl[t])
			hp, hn := signSplit(rh[t])
			alo[2*t], alo[2*t+1] = lp, ln // × xl⁺, xh⁺
			ahi[2*t], ahi[2*t+1] = hn, hp
			if neg {
				alo[2*kk+2*t], alo[2*kk+2*t+1] = hp, hn // × xl⁻, xh⁻
				ahi[2*kk+2*t], ahi[2*kk+2*t+1] = ln, lp
			}
		}
	}

	// Until the GEMM writes it, c holds unroll's sign-split planes: one
	// input channel's, 2 or 4 parts of b planes each.
	split := depth / kk * b * in.H * in.W
	cols, c := sc.floats(depth*n), sc.floats(max(2*cout*n, split))
	unroll(cols, c[:split], x, in, b, kh, kw, stride, pad, out.H, out.W, neg)

	// Seed each row with its bias, then accumulate: bias first, then k
	// ascending, the order the dnn layers use.
	c = c[:2*cout*n]
	for oc := 0; oc < cout; oc++ {
		fill(c[oc*n:(oc+1)*n], wl.At(oc, kk))
		fill(c[(cout+oc)*n:(cout+oc+1)*n], wh.At(oc, kk))
	}
	tensor.GemmStrided(2*cout, n, depth, a, depth, cols, n, c, n, true)

	// C is channel-major over the batch; activations are example-major.
	y := ivals{lo: sc.floats(b * out.Size()), hi: sc.floats(b * out.Size())}
	for e := 0; e < b; e++ {
		for oc := 0; oc < cout; oc++ {
			dst := e*out.Size() + oc*pixels
			src := oc*n + e*pixels
			copy(y.lo[dst:dst+pixels], c[src:src+pixels])
			copy(y.hi[dst:dst+pixels], c[cout*n+src:cout*n+src+pixels])
		}
	}
	return y, nil
}

func hasNegative(v []float32) bool {
	for _, x := range v {
		if x < 0 {
			return true
		}
	}
	return false
}

func fill(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// signSplit returns (max(v,0), min(v,0)) with +0 for the zero part, NaN
// giving (+0, +0). It masks v's bits instead of branching on the sign, which
// mispredicts about every other element of a post-ReLU unroll; v < 0 is
// exactly -v > 0.
func signSplit(v float32) (pos, neg float32) {
	b := math.Float32bits(v)
	return math.Float32frombits(b & positiveMask(v)), math.Float32frombits(b & positiveMask(-v))
}

// positiveMask is all ones when v > 0 and zero for NaN, ±0 and negatives,
// without a branch: v > 0 exactly when v's bits less one, unsigned, are
// below +Inf's, and the sign of that difference in 64 bits is the mask.
// dnn's ReLU uses the same rule.
func positiveMask(v float32) uint32 {
	return uint32((int64(math.Float32bits(v)-1) - 0x7f800000) >> 63)
}

// unroll writes the sign-split im2col of a batch into cols: for window
// offset t = (ic·kh+ky)·kw+kx, rows 2t and 2t+1 hold xl⁺ and xh⁺ and, when
// neg, rows 2K+2t and 2K+2t+1 hold xl⁻ and xh⁻; column e·outH·outW + oy·outW
// + ox reads example e at (ic, oy·stride+ky-pad, ox·stride+kx-pad), or +0 in
// the padding. Every cell is written.
//
// One channel at a time, each input element is sign-split once into 2 or 4
// parts in buf (scratch of 2 or 4 · b·H·W floats), each holding the
// channel's b planes back to back as dnn lays out a batch. A row of a
// same-size convolution (stride 1, pad (k−1)/2) is then one part shifted by
// (ky−pad, kx−pad): one dnn.ShiftPlanes call. signSplit(0) is (+0, +0), so
// the padding it clears holds what a split of the zero padding would.
func unroll(cols, buf []float32, x ivals, in dnn.Shape, b, kh, kw, stride, pad, outH, outW int, neg bool) {
	kk := in.C * kh * kw
	n := b * outH * outW
	nParts := 2
	if neg {
		nParts = 4
	}
	cb := b * in.H * in.W // one channel's planes
	// Part q holds xl⁺, xh⁺, xl⁻, xh⁻ in turn; part q of offset t goes to
	// row rowOf[q] + 2t.
	rowOf := [4]int{0, 1, 2 * kk, 2*kk + 1}
	same := kh == kw && stride == 1 && 2*pad == kh-1
	t := 0
	for ic := 0; ic < in.C; ic++ {
		splitChannel(buf, x, in, b, ic, neg)
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for q := range nParts {
					r := rowOf[q] + 2*t
					dst, src := cols[r*n:(r+1)*n], buf[q*cb:(q+1)*cb]
					if same {
						dnn.ShiftPlanes(dst, src, in.H, in.W, ky-pad, kx-pad)
					} else {
						gather(dst, src, in, b, ky, kx, stride, pad, outH, outW)
					}
				}
				t++
			}
		}
	}
}

// splitChannel sign-splits channel ic of the example-major batch x into
// the consecutive parts of buf, each b planes long: xl⁺, xh⁺ and, when neg,
// xl⁻ and xh⁻. Example e's plane is at e·H·W within each part.
func splitChannel(buf []float32, x ivals, in dnn.Shape, b, ic int, neg bool) {
	size, plane := in.Size(), in.H*in.W
	cb := b * plane
	for e := 0; e < b; e++ {
		src, dst := e*size+ic*plane, e*plane
		lo, hi := x.lo[src:src+plane], x.hi[src:src+plane]
		lp, hp := buf[dst:dst+plane], buf[cb+dst:cb+dst+plane]
		if !neg {
			for i := range lo {
				lp[i], _ = signSplit(lo[i])
				hp[i], _ = signSplit(hi[i])
			}
			continue
		}
		ln, hn := buf[2*cb+dst:2*cb+dst+plane], buf[3*cb+dst:3*cb+dst+plane]
		for i := range lo {
			lp[i], ln[i] = signSplit(lo[i])
			hp[i], hn[i] = signSplit(hi[i])
		}
	}
}

// gather writes one unroll row for window offset (ky, kx) from a channel's
// b planes, at any stride and pad: column e·outH·outW + oy·outW + ox reads
// plane e at (oy·stride+ky-pad, ox·stride+kx-pad), or +0 in the padding.
func gather(dst, src []float32, in dnn.Shape, b, ky, kx, stride, pad, outH, outW int) {
	plane := in.H * in.W
	j := 0
	for e := 0; e < b; e++ {
		p := src[e*plane : (e+1)*plane]
		for oy := 0; oy < outH; oy++ {
			iy := oy*stride + ky - pad
			for ox := 0; ox < outW; ox++ {
				ix := ox*stride + kx - pad
				var v float32
				if iy >= 0 && iy < in.H && ix >= 0 && ix < in.W {
					v = p[iy*in.W+ix]
				}
				dst[j] = v
				j++
			}
		}
	}
}

// pool takes each window's max (or mean) of both bounds, windows in output
// order; border windows may be smaller than k × k.
func pool(sc *scratch, nd *dnn.GraphNode, x ivals, b int) ivals {
	in, out := nd.In, nd.Out
	stride := nd.Spec.Stride
	if stride == 0 {
		stride = nd.Spec.K
	}
	k, isMax := nd.Spec.K, nd.Spec.Mode == dnn.PoolMax
	y := ivals{lo: sc.floats(b * out.Size()), hi: sc.floats(b * out.Size())}
	oi := 0
	for plane := 0; plane < b*in.Size(); plane += in.H * in.W {
		for oy := 0; oy < out.H; oy++ {
			y0, y1 := oy*stride, min(oy*stride+k, in.H)
			for ox := 0; ox < out.W; ox++ {
				x0, x1 := ox*stride, min(ox*stride+k, in.W)
				if isMax {
					maxLo, maxHi := float32(math.Inf(-1)), float32(math.Inf(-1))
					for row := plane + y0*in.W; row < plane+y1*in.W; row += in.W {
						for xi := row + x0; xi < row+x1; xi++ {
							if x.lo[xi] > maxLo {
								maxLo = x.lo[xi]
							}
							if x.hi[xi] > maxHi {
								maxHi = x.hi[xi]
							}
						}
					}
					y.lo[oi], y.hi[oi] = maxLo, maxHi
				} else {
					var sumLo, sumHi float64
					for row := plane + y0*in.W; row < plane+y1*in.W; row += in.W {
						for xi := row + x0; xi < row+x1; xi++ {
							sumLo += float64(x.lo[xi])
							sumHi += float64(x.hi[xi])
						}
					}
					cnt := float64((y1 - y0) * (x1 - x0))
					y.lo[oi], y.hi[oi] = float32(sumLo/cnt), float32(sumHi/cnt)
				}
				oi++
			}
		}
	}
	return y
}

// activate applies a monotone activation to both bounds. ReLU gives +0
// wherever v > 0 fails, NaN included, as dnn's does.
func activate(sc *scratch, kind string, x ivals) ivals {
	y := ivals{lo: sc.floats(len(x.lo)), hi: sc.floats(len(x.hi))}
	switch kind {
	case dnn.KindReLU:
		for i, v := range x.lo {
			y.lo[i] = math.Float32frombits(math.Float32bits(v) & positiveMask(v))
			y.hi[i] = math.Float32frombits(math.Float32bits(x.hi[i]) & positiveMask(x.hi[i]))
		}
	case dnn.KindSigmoid:
		for i := range x.lo {
			y.lo[i] = float32(1 / (1 + math.Exp(-float64(x.lo[i]))))
			y.hi[i] = float32(1 / (1 + math.Exp(-float64(x.hi[i]))))
		}
	case dnn.KindTanh:
		for i := range x.lo {
			y.lo[i] = float32(math.Tanh(float64(x.lo[i])))
			y.hi[i] = float32(math.Tanh(float64(x.hi[i])))
		}
	}
	return y
}

// scratch is the buffer set of one interval pass. Buffers are handed out in
// request order and keep their capacity across passes, so the next pass — the
// next prefix of a ProgressiveBatch call, which holds its scratches
// throughout, or the next call, which takes them from the free list — re-runs
// the same request sequence without allocating. Every consumer writes each
// element it hands on, so buffers are not cleared.
type scratch struct {
	bufs [][]float32
	used int
}

// idleScratch is a last-in-first-out free list of at most GOMAXPROCS
// scratches. Unlike a sync.Pool's per-P slots, it hands a caller back the
// scratch it released last even when the caller, having waited for its
// parts, resumed on another P.
var idleScratch struct {
	sync.Mutex
	free []*scratch
}

func getScratch() *scratch {
	idleScratch.Lock()
	defer idleScratch.Unlock()
	n := len(idleScratch.free)
	if n == 0 {
		return new(scratch)
	}
	s := idleScratch.free[n-1]
	idleScratch.free = slices.Delete(idleScratch.free, n-1, n)
	return s
}

// release puts s on top of the free list, dropping the oldest past GOMAXPROCS.
func (s *scratch) release() {
	idleScratch.Lock()
	defer idleScratch.Unlock()
	idleScratch.free = append(idleScratch.free, s)
	if over := len(idleScratch.free) - runtime.GOMAXPROCS(0); over > 0 {
		idleScratch.free = slices.Delete(idleScratch.free, 0, over)
	}
}

func (s *scratch) floats(n int) []float32 {
	if s.used == len(s.bufs) {
		s.bufs = append(s.bufs, nil)
	}
	if cap(s.bufs[s.used]) < n {
		s.bufs[s.used] = make([]float32, n)
	}
	s.used++
	return s.bufs[s.used-1][:n]
}
