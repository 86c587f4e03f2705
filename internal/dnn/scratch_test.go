package dnn

import (
	"math/rand"
	"reflect"
	"testing"
)

// freshCopy builds a new network carrying n's weights and accumulated
// gradients and none of its buffers.
func freshCopy(t *testing.T, n *Network) *Network {
	t.Helper()
	c, err := Build(lenetDef(), rand.New(rand.NewSource(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(n.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i, l := range n.layerList {
		if g := l.Grad(); g != nil {
			copy(c.layerList[i].Grad().Data(), g.Data())
		}
	}
	return c
}

// trainSnapshot trains a lenet on a fixed toy stream and returns the final
// weights. With fresh set, every example runs on a newly built network, so
// no pass ever sees a reused scratch buffer.
func trainSnapshot(t *testing.T, fresh bool) map[string][]float32 {
	t.Helper()
	n, err := Build(lenetDef(), rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sgd := &SGD{LR: 0.05}
	for step := 0; step < 12; step++ {
		n.ZeroGrads()
		for b := 0; b < 4; b++ {
			in := randVolume(rng, Shape{C: 1, H: 12, W: 12})
			if fresh {
				n = freshCopy(t, n)
			}
			n.LossAndBackward(in, rng.Intn(10))
		}
		sgd.Step(n, 4)
	}
	out := map[string][]float32{}
	for name, w := range n.Params() {
		out[name] = append([]float32(nil), w.Data()...)
	}
	return out
}

// TestScratchPoolingBitIdentical: pooling moves buffers, never math — a
// long-lived network reusing its scratch across every example must end on
// the same bits as training that allocates everything anew per example.
func TestScratchPoolingBitIdentical(t *testing.T) {
	pooled := trainSnapshot(t, false)
	fresh := trainSnapshot(t, true)
	for name, want := range fresh {
		got := pooled[name]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("layer %q weight %d: pooled %v != fresh %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestScratchPoolingCutsAllocs: once the persistent buffers are warm, a
// training step allocates only its per-call bookkeeping (the gradient
// routing maps) — the point of the arena. A step that allocated any layer's
// output or gradient volume would cost two objects per layer pass; the pin
// is fewer objects than passes.
func TestScratchPoolingCutsAllocs(t *testing.T) {
	n, err := Build(lenetDef(), rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	in := randVolume(rand.New(rand.NewSource(44)), Shape{C: 1, H: 12, W: 12})
	step := func() { n.LossAndBackward(in, 3) }
	step() // warm the persistent buffers

	passes := 2 * len(n.layerList) // forward + backward
	if allocs := testing.AllocsPerRun(20, step); allocs >= float64(passes) {
		t.Fatalf("steady-state training step allocates %.0f objects over %d layer passes — arena not engaging", allocs, passes)
	}
}

// TestReleaseScratchKeepsNetworkUsable: releasing scratch hands buffers back
// to the pool but the network must keep producing identical outputs.
func TestReleaseScratchKeepsNetworkUsable(t *testing.T) {
	n, err := Build(lenetDef(), rand.New(rand.NewSource(45)))
	if err != nil {
		t.Fatal(err)
	}
	in := randVolume(rand.New(rand.NewSource(46)), Shape{C: 1, H: 12, W: 12})
	before := n.Forward(in)
	n.ReleaseScratch()
	after := n.Forward(in)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("output %d changed across ReleaseScratch: %v vs %v", i, before.Data[i], after.Data[i])
		}
	}
	n.ZeroGrads()
	n.LossAndBackward(in, 1) // must not panic on re-acquired buffers
}

// TestScratchSizeClasses pins the arena's size-class rules: requests round
// up to a power-of-two capacity, returned arenas are recycled, and
// odd-capacity slices are dropped rather than pooled.
func TestScratchSizeClasses(t *testing.T) {
	s := getFloats(100)
	if len(s) != 100 || cap(s) != 128 {
		t.Fatalf("getFloats(100): len %d cap %d, want 100/128", len(s), cap(s))
	}
	for i := range s {
		s[i] = 7
	}
	putFloats(s)
	s2 := getFloats(90)
	if cap(s2) != 128 {
		t.Fatalf("recycled cap = %d, want 128", cap(s2))
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %v", i, v)
		}
	}
	// Odd capacities must be dropped, not pooled.
	putFloats(make([]float32, 100))
	// Oversized requests fall through to plain make.
	huge := getFloats((1 << scratchMaxBits) + 1)
	if len(huge) != (1<<scratchMaxBits)+1 {
		t.Fatalf("oversized request len = %d", len(huge))
	}
	putFloats(huge)
}

// TestScratchPoolingCutsAllocsPerMinibatch: the same pin for one batched
// training step over a minibatch of 16, the unit Train runs: its
// allocations do not grow with the batch.
func TestScratchPoolingCutsAllocsPerMinibatch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	n, err := Build(lenetDef(), rand.New(rand.NewSource(47)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(48))
	ins, labels := make([]*Volume, 16), make([]int, 16)
	for i := range ins {
		ins[i], labels[i] = randVolume(rng, Shape{C: 1, H: 12, W: 12}), rng.Intn(10)
	}
	step := func() { n.lossAndBackward(ins, labels) }
	step()
	passes := 2 * len(n.layerList)
	if allocs := testing.AllocsPerRun(20, step); allocs >= float64(passes) {
		t.Fatalf("steady-state minibatch step allocates %.0f objects over %d layer passes — arena not engaging", allocs, passes)
	}
}

// TestReleaseScratchReturnsEveryBuffer: after a training step and a
// forward pass, ReleaseScratch leaves no arena buffer in any layer's or the network's
// float slots, so everything taken from the pool goes back to it.
func TestReleaseScratchReturnsEveryBuffer(t *testing.T) {
	n, err := Build(lenetDef(), rand.New(rand.NewSource(49)))
	if err != nil {
		t.Fatal(err)
	}
	in := randVolume(rand.New(rand.NewSource(50)), Shape{C: 1, H: 12, W: 12})
	n.LossAndBackward(in, 2) // stops at the logits
	n.Forward(in)            // runs the softmax too
	n.ReleaseScratch()
	floats := reflect.TypeOf([]float32(nil))
	var check func(owner string, v reflect.Value)
	check = func(owner string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), owner+"."+v.Type().Field(i).Name
			switch {
			case f.Type() == floats && f.Cap() > 0:
				t.Errorf("%s still holds %d floats after ReleaseScratch", name, f.Cap())
			case f.Kind() == reflect.Struct:
				check(name, f)
			}
		}
	}
	check("Network", reflect.ValueOf(n).Elem())
	for _, l := range n.layerList {
		check(l.Spec().Name, reflect.ValueOf(l).Elem())
	}
	for i := range n.mergeBuf {
		if n.mergeBuf[i] != nil || n.bwdBuf[i] != nil {
			t.Errorf("merge or accumulator buffers kept after ReleaseScratch")
		}
	}
}
