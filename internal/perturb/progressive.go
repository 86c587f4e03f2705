package perturb

import (
	"fmt"
	"runtime"
	"sort"

	"modelhub/internal/dnn"
	"modelhub/internal/floatenc"
	"modelhub/internal/par"
	"modelhub/internal/tensor"
)

// TopKDetermined implements the Lemma-4 determinism condition, generalized
// to top-k: given output intervals, it reports whether a set S of k indices
// is certainly the top-k result — i.e. the smallest lower bound inside S
// strictly exceeds the largest upper bound outside S (the "matched index
// value range does not overlap with the k+1 index value range"). When
// determined, the members of S are returned ordered by descending lower
// bound.
func TopKDetermined(lo, hi []float32, k int) (bool, []int) {
	n := len(lo)
	if k <= 0 || k > n {
		return false, nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return lo[idx[a]] > lo[idx[b]] })
	top := idx[:k]
	minLo := lo[top[k-1]]
	for _, j := range idx[k:] {
		if hi[j] >= minLo {
			return false, nil
		}
	}
	return true, append([]int(nil), top...)
}

// IntervalSource supplies weight bounds at increasing byte-plane prefixes —
// pas.Store satisfies this via a small adapter. Prefix 4 must return exact
// (degenerate) intervals. ProgressiveBatch asks for several layers at once, so
// an IntervalSource must be safe for concurrent use.
type IntervalSource interface {
	// WeightIntervals returns the lo/hi bound matrices of the named layer
	// when only the first `prefix` byte planes are read.
	WeightIntervals(layer string, prefix int) (lo, hi *tensor.Matrix, err error)
}

// Result describes one progressive evaluation.
type Result struct {
	// Labels is the determined top-k label set, best first.
	Labels []int
	// PrefixUsed is the number of byte planes that had to be read.
	PrefixUsed int
	// Lo, Hi are the final logit intervals.
	Lo, Hi []float32
}

// Progressive is ProgressiveBatch for one input.
func Progressive(ev *Evaluator, src IntervalSource, in *dnn.Volume, k, startPrefix int) (*Result, error) {
	res, err := ProgressiveBatch(ev, src, []*dnn.Volume{in}, k, startPrefix)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// ProgressiveBatch runs the paper's progressive query for every input:
// evaluate with startPrefix byte planes; while some input's top-k prediction
// is not determined, fetch one more plane and re-run those inputs only. Each
// layer is fetched once per prefix, and each prefix's pending inputs run as
// up to GOMAXPROCS batched interval passes side by side (forwardParts). An
// input's result does not depend on which others share the call or its part.
// Prefix 4 yields exact weights, where determination is guaranteed up to exact
// ties (broken by index order, matching dnn.Network.Predict).
func ProgressiveBatch(ev *Evaluator, src IntervalSource, ins []*dnn.Volume, k, startPrefix int) ([]*Result, error) {
	if n := ev.g.Nodes[ev.g.Logits].Out.Size(); k < 1 || k > n {
		return nil, fmt.Errorf("perturb: top-k needs 1 <= k <= %d logits, got %d", n, k)
	}
	if startPrefix < 1 || startPrefix > floatenc.NumPlanes {
		return nil, fmt.Errorf("perturb: start prefix %d outside 1..%d", startPrefix, floatenc.NumPlanes)
	}
	if err := ev.checkShapes(ins); err != nil {
		return nil, err
	}
	out := make([]*Result, len(ins))
	pending := make([]int, len(ins))
	for i := range pending {
		pending[i] = i
	}
	batch := make([]*dnn.Volume, 0, len(ins))
	// One scratch per part for the whole call; released in reverse, they
	// come back in the same order next call.
	scs := make([]*scratch, min(runtime.GOMAXPROCS(0), len(ins)))
	for p := range scs {
		scs[p] = getScratch()
		defer scs[p].release()
	}
	for prefix := startPrefix; len(pending) > 0; prefix++ {
		w, err := fetch(ev.params, src, prefix)
		if err != nil {
			return nil, err
		}
		batch = batch[:0]
		for _, i := range pending {
			batch = append(batch, ins[i])
		}
		lo, hi, err := ev.forwardParts(scs, batch, w)
		if err != nil {
			return nil, err
		}
		undetermined := pending[:0]
		for j, i := range pending {
			if ok, labels := TopKDetermined(lo[j], hi[j], k); ok {
				out[i] = &Result{Labels: labels, PrefixUsed: prefix, Lo: lo[j], Hi: hi[j]}
			} else if prefix == floatenc.NumPlanes {
				// Exact weights but tied logits: fall back to argsort by value,
				// the same order a plain forward pass would produce.
				out[i] = &Result{Labels: argsortDesc(lo[j])[:k], PrefixUsed: prefix, Lo: lo[j], Hi: hi[j]}
			} else {
				undetermined = append(undetermined, i)
			}
		}
		pending = undetermined
	}
	return out, nil
}

// forwardParts runs the interval pass of a batch as up to len(scs)
// contiguous parts side by side (par.For), one scratch each, and returns the
// logit bounds in batch order. The split is exact: forward gives an input
// the same bits whatever batch it shares.
func (e *Evaluator) forwardParts(scs []*scratch, batch []*dnn.Volume, w WeightBounds) (lo, hi [][]float32, err error) {
	n := min(len(scs), len(batch))
	lo, hi = make([][]float32, len(batch)), make([][]float32, len(batch))
	err = par.For(n, n, func(p int) error {
		from, to := p*len(batch)/n, (p+1)*len(batch)/n
		l, h, err := e.forward(scs[p], batch[from:to], w)
		copy(lo[from:to], l)
		copy(hi[from:to], h)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return lo, hi, nil
}

// fetch reads every named layer at a prefix, GOMAXPROCS layers at a time
// (par.For): a store-backed source decodes planes on each call.
func fetch(layers []string, src IntervalSource, prefix int) (WeightBounds, error) {
	lo, hi := make([]*tensor.Matrix, len(layers)), make([]*tensor.Matrix, len(layers))
	err := par.For(len(layers), runtime.GOMAXPROCS(0), func(i int) (err error) {
		lo[i], hi[i], err = src.WeightIntervals(layers[i], prefix)
		return err
	})
	if err != nil {
		return WeightBounds{}, err
	}
	w := WeightBounds{Lo: make(map[string]*tensor.Matrix, len(layers)), Hi: make(map[string]*tensor.Matrix, len(layers))}
	for i, name := range layers {
		w.Lo[name], w.Hi[name] = lo[i], hi[i]
	}
	return w, nil
}

func argsortDesc(v []float32) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx
}
