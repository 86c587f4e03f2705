package dnn

import "fmt"

// Shape is the extent of a feature volume: channels x height x width.
// Fully-connected activations use C = length, H = W = 1.
type Shape struct {
	C, H, W int
}

// Size returns the total number of elements.
func (s Shape) Size() int { return s.C * s.H * s.W }

// String renders "CxHxW".
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Volume is a dense feature map laid out channel-major: index (c, y, x) is
// Data[(c*H+y)*W+x].
type Volume struct {
	Shape Shape
	Data  []float32
}

// NewVolume allocates a zeroed volume.
func NewVolume(s Shape) *Volume {
	return &Volume{Shape: s, Data: make([]float32, s.Size())}
}

// Set assigns the element at (c, y, x).
func (v *Volume) Set(c, y, x int, val float32) {
	v.Data[(c*v.Shape.H+y)*v.Shape.W+x] = val
}

// FlatVolume wraps a plain vector as a Cx1x1 volume without copying.
func FlatVolume(data []float32) *Volume {
	return &Volume{Shape: Shape{C: len(data), H: 1, W: 1}, Data: data}
}

// copyExample copies example e of a batch of b laid out [C][b][H·W] (the
// layout runtime layers work in) into vol, in Volume order — or, with
// toBatch set, vol into the batch.
func copyExample(vol, batch []float32, s Shape, b, e int, toBatch bool) {
	hw := s.H * s.W
	for c := 0; c < s.C; c++ {
		v, at := vol[c*hw:(c+1)*hw], batch[(c*b+e)*hw:(c*b+e+1)*hw]
		if toBatch {
			copy(at, v)
		} else {
			copy(v, at)
		}
	}
}

// outDim computes the spatial output extent of a window op.
func outDim(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// OutShape computes the output shape of a layer spec applied to input shape
// in, or an error if the configuration cannot apply.
func (l LayerSpec) OutShape(in Shape) (Shape, error) {
	switch l.Kind {
	case KindConv:
		stride := l.Stride
		if stride == 0 {
			stride = 1
		}
		oh := outDim(in.H, l.K, stride, l.Pad)
		ow := outDim(in.W, l.K, stride, l.Pad)
		if oh <= 0 || ow <= 0 {
			return Shape{}, fmt.Errorf("%w: conv %q output %dx%d from input %v", ErrNetDef, l.Name, oh, ow, in)
		}
		return Shape{C: l.Out, H: oh, W: ow}, nil
	case KindPool:
		stride := l.Stride
		if stride == 0 {
			stride = l.K
		}
		oh := outDim(in.H, l.K, stride, 0)
		ow := outDim(in.W, l.K, stride, 0)
		if oh <= 0 || ow <= 0 {
			return Shape{}, fmt.Errorf("%w: pool %q output %dx%d from input %v", ErrNetDef, l.Name, oh, ow, in)
		}
		return Shape{C: in.C, H: oh, W: ow}, nil
	case KindFull:
		return Shape{C: l.Out, H: 1, W: 1}, nil
	case KindReLU, KindSigmoid, KindTanh, KindSoftmax:
		return in, nil
	case KindAdd, KindConcat:
		// in is the merged input, which NetDef.Graph works out (concat sums
		// predecessor channels).
		return in, nil
	default:
		return Shape{}, fmt.Errorf("%w: unknown kind %q", ErrNetDef, l.Kind)
	}
}

// ParamShape returns the weight-matrix and bias dimensions of a parametric
// layer given its input shape. Weights are stored as a single float matrix
// per layer (out x in*k*k for conv, out x in for full), matching the paper's
// view of parameters as a collection of float matrices; the bias is folded
// in as one extra column (paper footnote 2: W' x + b == (W', b) (x, 1)).
func (l LayerSpec) ParamShape(in Shape) (rows, cols int, err error) {
	switch l.Kind {
	case KindConv:
		return l.Out, in.C*l.K*l.K + 1, nil
	case KindFull:
		return l.Out, in.Size() + 1, nil
	default:
		return 0, 0, fmt.Errorf("dnn: layer %q (%s) has no parameters", l.Name, l.Kind)
	}
}
