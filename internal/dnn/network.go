package dnn

import (
	"fmt"
	"math"
	"math/rand"

	"modelhub/internal/tensor"
)

// Network is a built, runnable DNN: the layer DAG of a NetDef with
// allocated weight matrices. Chains are the common case (paper Table I);
// general DAGs with add/concat merge nodes (residual/skip connections) run
// through the same executor. Forward/Backward cache state, so a Network is
// not safe for concurrent use.
type Network struct {
	Def       *NetDef
	g         *Graph
	layers    map[string]runtimeLayer // ordinary (non-merge) nodes only
	layerList []runtimeLayer          // ordinary layers in execution order
	// b is the batch size of the latest forward pass and fwd its node
	// outputs by graph position, kept for gradient routing through merge
	// nodes. Every batch buffer is laid out [C][b][H·W] (layers.go).
	b   int
	fwd [][]float32
	// Persistent scratch (scratch.go), which ReleaseScratch returns to the
	// shared arena pool: the packed network input, merge-node inputs and
	// backward gradient accumulators by graph position, the fused-loss
	// logits gradient and one example's scores.
	inBuf    []float32
	mergeBuf [][]float32
	bwdBuf   [][]float32
	gradBuf  []float32
	ex       []float32
}

// evalChunk is how many examples one batched forward pass carries when
// evaluating or predicting over a list of inputs.
const evalChunk = 32

// Build constructs a runtime network for def, initializing all weights with
// Xavier initialization from rng (pass a deterministic source for
// reproducible experiments).
func Build(def *NetDef, rng *rand.Rand) (*Network, error) {
	g, err := def.Graph()
	if err != nil {
		return nil, err
	}
	n := &Network{
		Def:      def,
		g:        g,
		layers:   map[string]runtimeLayer{},
		fwd:      make([][]float32, len(g.Nodes)),
		mergeBuf: make([][]float32, len(g.Nodes)),
		bwdBuf:   make([][]float32, len(g.Nodes)),
	}
	for _, nd := range g.Nodes {
		if nd.Spec.Kind == KindAdd || nd.Spec.Kind == KindConcat {
			continue
		}
		l, err := buildLayer(nd.Spec, nd.In)
		if err != nil {
			return nil, err
		}
		if w := l.Weights(); w != nil {
			fanIn := w.Cols() - 1
			fanOut := w.Rows()
			init := tensor.XavierInit(rng, w.Rows(), w.Cols(), fanIn, fanOut)
			copy(w.Data(), init.Data())
			// Zero the bias column.
			for r := 0; r < w.Rows(); r++ {
				w.Set(r, w.Cols()-1, 0)
			}
		}
		n.layers[nd.Spec.Name] = l
		n.layerList = append(n.layerList, l)
	}
	if last := g.Nodes[g.Sink].Out; def.Labels > 0 && last.Size() != def.Labels {
		return nil, fmt.Errorf("%w: final layer produces %d outputs, want %d labels", ErrNetDef, last.Size(), def.Labels)
	}
	return n, nil
}

// nodeInput assembles the batch input of the node at position pos from the
// forward cache.
func (n *Network) nodeInput(pos int, in []float32) []float32 {
	nd := &n.g.Nodes[pos]
	preds := nd.Preds
	switch {
	case len(preds) == 0:
		return in
	case len(preds) == 1:
		return n.fwd[preds[0]]
	case nd.Spec.Kind == KindAdd:
		// Copy the first predecessor, then add the rest: identical sums to
		// zero-then-accumulate, with no zero-on-reuse needed.
		out := scratchFloats(&n.mergeBuf[pos], nd.In.Size()*n.b, false)
		copy(out, n.fwd[preds[0]])
		for _, p := range preds[1:] {
			for i, v := range n.fwd[p] {
				out[i] += v
			}
		}
		return out
	default: // concat along C is an append in the channel-major layout
		out := scratchFloats(&n.mergeBuf[pos], nd.In.Size()*n.b, false)
		off := 0
		for _, p := range preds {
			off += copy(out[off:], n.fwd[p])
		}
		return out
	}
}

// forward runs the batch through nodes in order, stopping after the node at
// position stop (inclusive), and returns its output buffer. It panics if an
// input's size is not the network's input size.
func (n *Network) forward(ins []*Volume, stop int) []float32 {
	n.b = len(ins)
	s := n.g.Nodes[n.g.Source].In
	in := scratchFloats(&n.inBuf, s.Size()*n.b, false)
	for e, v := range ins {
		if len(v.Data) != s.Size() {
			panic(fmt.Sprintf("dnn: input %d has %d values, network %q takes %v", e, len(v.Data), n.Def.Name, s))
		}
		copyExample(v.Data, in, s, n.b, e, true)
	}
	for i := 0; ; i++ {
		x := n.nodeInput(i, in)
		if l, ok := n.layers[n.g.Nodes[i].Spec.Name]; ok {
			x = l.forward(x, n.b)
		}
		n.fwd[i] = x
		if i == stop {
			return x
		}
	}
}

// forwardBatch runs the inputs up to the node at position stop, evalChunk
// examples per batched pass, and returns caller-owned copies of each input's
// output: every layer runs one GEMM per chunk instead of one per example.
func (n *Network) forwardBatch(ins []*Volume, stop int) []*Volume {
	s := n.g.Nodes[stop].Out
	outs := make([]*Volume, len(ins))
	for lo := 0; lo < len(ins); lo += evalChunk {
		chunk := ins[lo:min(lo+evalChunk, len(ins))]
		out := n.forward(chunk, stop)
		for e := range chunk {
			outs[lo+e] = NewVolume(s)
			copyExample(outs[lo+e].Data, out, s, len(chunk), e, false)
		}
	}
	return outs
}

// Forward runs the full DAG on an input volume and returns the output. The
// returned volume is the caller's: it is a copy of the (small) sink
// activation, detached from the network's internal scratch buffers, so it
// survives subsequent passes.
func (n *Network) Forward(in *Volume) *Volume {
	return n.forwardBatch([]*Volume{in}, n.g.Sink)[0]
}

// Logits runs the DAG but stops before a trailing softmax layer, returning
// raw scores — what the fused softmax-cross-entropy loss consumes. Like
// Forward, the returned volume is a caller-owned copy.
func (n *Network) Logits(in *Volume) *Volume {
	return n.forwardBatch([]*Volume{in}, n.g.Logits)[0]
}

// Predict returns the argmax label for an input.
func (n *Network) Predict(in *Volume) int {
	return argmax(n.Forward(in).Data)
}

// argmax returns the index of the first largest value.
func argmax(v []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// ForwardBatch runs the full DAG on the inputs and returns caller-owned
// outputs, evalChunk inputs per batched pass. Each output is bit-identical
// to Forward on its input alone.
func (n *Network) ForwardBatch(ins []*Volume) []*Volume {
	return n.forwardBatch(ins, n.g.Sink)
}

// PredictBatch returns the argmax label for each input, batched like
// ForwardBatch.
func (n *Network) PredictBatch(ins []*Volume) []int {
	labels := make([]int, len(ins))
	for i, out := range n.ForwardBatch(ins) {
		labels[i] = argmax(out.Data)
	}
	return labels
}

// LossAndBackward computes softmax cross-entropy loss of the input against
// the true label and backpropagates, accumulating weight gradients. It
// returns the loss and whether the prediction was correct. It is a batch
// of one; Train runs whole minibatches.
func (n *Network) LossAndBackward(in *Volume, label int) (loss float64, correct bool) {
	losses, hits := n.lossAndBackward([]*Volume{in}, []int{label})
	return losses[0], hits[0]
}

// lossAndBackward runs one forward and one backward pass over a batch,
// accumulating the weight gradients of every example into the layers'
// gradients in example order. It returns each example's softmax
// cross-entropy loss and whether its prediction was correct.
func (n *Network) lossAndBackward(ins []*Volume, labels []int) (losses []float64, hits []bool) {
	logits := n.forward(ins, n.g.Logits)
	s, b := n.g.Nodes[n.g.Logits].Out, n.b
	probs := scratchFloats(&n.ex, s.Size(), false)
	grad := scratchFloats(&n.gradBuf, s.Size()*b, false) // every example scattered
	losses, hits = make([]float64, b), make([]bool, b)
	for e, label := range labels {
		copyExample(probs, logits, s, b, e, false)
		softmaxInto(probs, probs)
		losses[e] = -math.Log(math.Max(float64(probs[label]), 1e-12))
		hits[e] = argmax(probs) == label
		// Fused softmax + CE gradient: dLogits = probs - onehot(label).
		probs[label] -= 1
		copyExample(probs, grad, s, b, e, true)
	}

	// Reverse-topological gradient routing from the logits node (the nodes
	// after it carry no loss gradient). dOut accumulates per node position,
	// nil until the first gradient arrives; an entry may be another node's
	// input-gradient buffer, which its owner does not touch again until the
	// next pass.
	dOut := make([][]float32, len(n.g.Nodes))
	dOut[n.g.Logits] = grad
	for i := n.g.Logits; i >= 0; i-- {
		g := dOut[i]
		if g == nil {
			continue
		}
		nd := &n.g.Nodes[i]
		preds := nd.Preds
		dIn := g // merge nodes route gradients below
		if l, isLayer := n.layers[nd.Spec.Name]; isLayer {
			// The source's input gradient would be dropped: skip it.
			dIn = l.backward(g, len(preds) > 0)
		}
		switch {
		case len(preds) == 0:
		case len(preds) == 1:
			if dOut[preds[0]] == nil {
				// First gradient into a chain node: route the buffer itself
				// instead of adding it to zeros. Only a −0 differs from
				// +0 + −0, and every consumer sums from +0 (DESIGN §3c).
				dOut[preds[0]] = dIn
				break
			}
			n.accumulate(dOut, preds[0], dIn)
		case nd.Spec.Kind == KindAdd:
			for _, p := range preds {
				n.accumulate(dOut, p, dIn)
			}
		default: // concat: split by predecessor channel spans
			off := 0
			for _, p := range preds {
				size := n.g.Nodes[p].Out.Size() * b
				n.accumulate(dOut, p, dIn[off:off+size])
				off += size
			}
		}
	}
	return losses, hits
}

// accumulate adds grad into the dOut buffer of the node at position pos,
// acquiring the node's persistent accumulator (zeroed on first touch of the
// pass) when the routing table has no entry yet.
func (n *Network) accumulate(dOut [][]float32, pos int, grad []float32) {
	buf := dOut[pos]
	if buf == nil {
		buf = scratchFloats(&n.bwdBuf[pos], len(grad), true)
		dOut[pos] = buf
	}
	for i, v := range grad {
		buf[i] += v
	}
}

// ReleaseScratch returns all of the network's scratch buffers — layer
// activations, gradient volumes, im2col unrolls, merge and accumulator
// buffers — to the shared arena pool and drops the forward cache. Call it
// when retiring a network other workers may build successors of (e.g. a DQL
// candidate after its grid cell finishes); the network remains fully usable,
// it simply re-acquires scratch on the next pass.
func (n *Network) ReleaseScratch() {
	for _, l := range n.layerList {
		l.release()
	}
	for i := range n.mergeBuf {
		releaseFloats(&n.mergeBuf[i])
		releaseFloats(&n.bwdBuf[i])
	}
	releaseFloats(&n.inBuf)
	releaseFloats(&n.gradBuf)
	releaseFloats(&n.ex)
	clear(n.fwd)
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.layerList {
		if g := l.Grad(); g != nil {
			for i := range g.Data() {
				g.Data()[i] = 0
			}
		}
	}
}

// SGD holds the optimizer hyperparameters the paper's metadata records.
type SGD struct {
	LR       float64
	Momentum float64
	// LayerLR overrides the learning rate for specific layers by name — the
	// per-layer tuning dimension DQL's `config.net["conv*"].lr` varies
	// (paper Query 4). A rate of 0 freezes the layer.
	LayerLR  map[string]float64
	velocity map[string]*tensor.Matrix
}

// Step applies one SGD update using the gradients accumulated over
// batchSize examples.
func (s *SGD) Step(n *Network, batchSize int) {
	if s.velocity == nil {
		s.velocity = make(map[string]*tensor.Matrix)
	}
	inv := 1.0 / float64(batchSize)
	for _, l := range n.layerList {
		w, g := l.Weights(), l.Grad()
		if w == nil {
			continue
		}
		name := l.Spec().Name
		lr := s.LR
		if override, ok := s.LayerLR[name]; ok {
			lr = override
		}
		v, ok := s.velocity[name]
		if !ok {
			v = tensor.NewMatrix(w.Rows(), w.Cols())
			s.velocity[name] = v
		}
		wd, gd, vd := w.Data(), g.Data(), v.Data()
		for i := range wd {
			grad := float64(gd[i]) * inv
			vd[i] = float32(s.Momentum*float64(vd[i]) - lr*grad)
			wd[i] += vd[i]
		}
	}
}

// Params returns the named learnable weight matrices in execution order.
// The matrices are live views: mutating them mutates the network.
func (n *Network) Params() map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix)
	for _, l := range n.layerList {
		if w := l.Weights(); w != nil {
			out[l.Spec().Name] = w
		}
	}
	return out
}

// ParamCount returns the total number of learnable floats (|W| in Table I).
func (n *Network) ParamCount() int {
	total := 0
	for _, l := range n.layerList {
		if w := l.Weights(); w != nil {
			total += w.Len()
		}
	}
	return total
}

// Snapshot deep-copies the current weights, keyed by layer name. This is
// the unit PAS archives (paper Fig. 4: a snapshot is a named list of float
// matrices).
func (n *Network) Snapshot() map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix)
	for name, w := range n.Params() {
		out[name] = w.Clone()
	}
	return out
}

// Restore copies the given snapshot into the network weights. Every
// parametric layer must be present with matching shape.
func (n *Network) Restore(snap map[string]*tensor.Matrix) error {
	for _, l := range n.layerList {
		w := l.Weights()
		if w == nil {
			continue
		}
		src, ok := snap[l.Spec().Name]
		if !ok {
			return fmt.Errorf("dnn: snapshot missing weights for layer %q", l.Spec().Name)
		}
		if !src.SameShape(w) {
			return fmt.Errorf("dnn: snapshot weights for %q are %dx%d, want %dx%d",
				l.Spec().Name, src.Rows(), src.Cols(), w.Rows(), w.Cols())
		}
		copy(w.Data(), src.Data())
	}
	return nil
}

// Clone returns an independent copy of the network (same definition and
// weights, separate caches), for concurrent inference: a Network is not
// safe for concurrent use, so clone one per goroutine.
func (n *Network) Clone() (*Network, error) {
	// The rng only seeds throwaway weights; Restore overwrites them.
	c, err := Build(n.Def, rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, err
	}
	if err := c.Restore(n.Snapshot()); err != nil {
		return nil, err
	}
	return c, nil
}
