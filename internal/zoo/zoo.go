// Package zoo provides named reference architectures mirroring the shapes
// of the paper's Table I at laptop scale. The architectural *regular
// expressions* (conv/pool/full chains) are preserved; channel counts and
// spatial extents are reduced so models train in seconds on the synthetic
// digit task (see DESIGN.md substitution table).
package zoo

import (
	"fmt"

	"modelhub/internal/data"
	"modelhub/internal/dnn"
)

// LeNet returns a (Lconv Lpool){2} Lip{2} network — the paper's Fig. 2 —
// sized for the synthetic digit task.
func LeNet(name string) *dnn.NetDef {
	return dnn.ChainDef(name, 1, data.DigitSize, data.DigitSize, data.NumDigits,
		dnn.LayerSpec{Name: "conv1", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "pool1", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "conv2", Kind: dnn.KindConv, Out: 16, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "pool2", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "ip1", Kind: dnn.KindFull, Out: 48},
		dnn.LayerSpec{Name: "relu1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "ip2", Kind: dnn.KindFull, Out: data.NumDigits},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
}

// AlexNetMini follows (Lconv Lpool){2} (Lconv{2} Lpool) Lip{3}, a reduced
// AlexNet-shaped chain that still fits 12x12 inputs.
func AlexNetMini(name string) *dnn.NetDef {
	return dnn.ChainDef(name, 1, data.DigitSize, data.DigitSize, data.NumDigits,
		dnn.LayerSpec{Name: "conv1", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "pool1", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "conv2", Kind: dnn.KindConv, Out: 16, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu2", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "pool2", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "conv3", Kind: dnn.KindConv, Out: 24, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu3", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "conv4", Kind: dnn.KindConv, Out: 24, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu4", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "pool3", Kind: dnn.KindPool, K: 3, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "fc5", Kind: dnn.KindFull, Out: 64},
		dnn.LayerSpec{Name: "relu5", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "fc6", Kind: dnn.KindFull, Out: 32},
		dnn.LayerSpec{Name: "relu6", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "fc7", Kind: dnn.KindFull, Out: data.NumDigits},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
}

// VGGMini follows (Lconv{2} Lpool){2} Lip{3}, a reduced VGG-shaped chain.
func VGGMini(name string) *dnn.NetDef {
	return dnn.ChainDef(name, 1, data.DigitSize, data.DigitSize, data.NumDigits,
		dnn.LayerSpec{Name: "conv1_1", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu1_1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "conv1_2", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu1_2", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "pool1", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "conv2_1", Kind: dnn.KindConv, Out: 16, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu2_1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "conv2_2", Kind: dnn.KindConv, Out: 16, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu2_2", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "pool2", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "fc6", Kind: dnn.KindFull, Out: 64},
		dnn.LayerSpec{Name: "relu6", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "fc7", Kind: dnn.KindFull, Out: 48},
		dnn.LayerSpec{Name: "relu7", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "fc8", Kind: dnn.KindFull, Out: data.NumDigits},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
}

// ResNetMini follows (LconvLpool)(Lconv){N}LpoolLip — the paper's Table I
// ResNet row renders the 150-conv backbone in exactly this regex family
// (skip connections are invisible at the layer-chain granularity the paper
// models). N=8 here keeps it trainable in seconds.
func ResNetMini(name string) *dnn.NetDef {
	nodes := []dnn.LayerSpec{
		{Name: "conv1", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
		{Name: "pool1", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
	}
	for i := 2; i <= 9; i++ {
		nodes = append(nodes,
			dnn.LayerSpec{Name: fmt.Sprintf("conv%d", i), Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			dnn.LayerSpec{Name: fmt.Sprintf("relu%d", i), Kind: dnn.KindReLU},
		)
	}
	nodes = append(nodes,
		dnn.LayerSpec{Name: "pool2", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolAvg},
		dnn.LayerSpec{Name: "fc", Kind: dnn.KindFull, Out: data.NumDigits},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
	return dnn.ChainDef(name, 1, data.DigitSize, data.DigitSize, data.NumDigits, nodes...)
}

// ResNetSkip is a residual network with true skip connections (add merge
// nodes), exercising the DAG executor: two residual blocks over a conv stem,
// average-pooled into a classifier.
func ResNetSkip(name string) *dnn.NetDef {
	def := &dnn.NetDef{
		Name: name, InC: 1, InH: data.DigitSize, InW: data.DigitSize, Labels: data.NumDigits,
		Nodes: []dnn.LayerSpec{
			{Name: "stem", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Name: "stem_relu", Kind: dnn.KindReLU},
			// Block 1.
			{Name: "b1_conv1", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Name: "b1_relu1", Kind: dnn.KindReLU},
			{Name: "b1_conv2", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Name: "b1_add", Kind: dnn.KindAdd},
			{Name: "b1_relu2", Kind: dnn.KindReLU},
			// Block 2.
			{Name: "b2_conv1", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Name: "b2_relu1", Kind: dnn.KindReLU},
			{Name: "b2_conv2", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Name: "b2_add", Kind: dnn.KindAdd},
			{Name: "b2_relu2", Kind: dnn.KindReLU},
			// Head.
			{Name: "pool", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolAvg},
			{Name: "fc", Kind: dnn.KindFull, Out: data.NumDigits},
			{Name: "prob", Kind: dnn.KindSoftmax},
		},
		Edges: []dnn.Edge{
			{From: "stem", To: "stem_relu"},
			{From: "stem_relu", To: "b1_conv1"},
			{From: "b1_conv1", To: "b1_relu1"},
			{From: "b1_relu1", To: "b1_conv2"},
			{From: "stem_relu", To: "b1_add"}, // skip
			{From: "b1_conv2", To: "b1_add"},
			{From: "b1_add", To: "b1_relu2"},
			{From: "b1_relu2", To: "b2_conv1"},
			{From: "b2_conv1", To: "b2_relu1"},
			{From: "b2_relu1", To: "b2_conv2"},
			{From: "b1_relu2", To: "b2_add"}, // skip
			{From: "b2_conv2", To: "b2_add"},
			{From: "b2_add", To: "b2_relu2"},
			{From: "b2_relu2", To: "pool"},
			{From: "pool", To: "fc"},
			{From: "fc", To: "prob"},
		},
	}
	return def
}

// MLP returns a two-hidden-layer perceptron for the Blobs task.
func MLP(name string, dim, hidden, classes int) *dnn.NetDef {
	return dnn.ChainDef(name, dim, 1, 1, classes,
		dnn.LayerSpec{Name: "ip1", Kind: dnn.KindFull, Out: hidden},
		dnn.LayerSpec{Name: "relu1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "ip2", Kind: dnn.KindFull, Out: hidden / 2},
		dnn.LayerSpec{Name: "relu2", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "ip3", Kind: dnn.KindFull, Out: classes},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
}

// TableIEntry is one row of the paper's Table I: a well-known architecture
// described as a layer regular expression with its parameter count.
type TableIEntry struct {
	Model string
	Regex string
	Flops float64 // |W|, number of learned float parameters
}

// TableI reproduces the paper's Table I verbatim.
func TableI() []TableIEntry {
	return []TableIEntry{
		{Model: "LeNet", Regex: "(LconvLpool){2}Lip{2}", Flops: 4.31e5},
		{Model: "AlexNet", Regex: "(LconvLpool){2}(Lconv{2}Lpool){2}Lip{3}", Flops: 6e7},
		{Model: "VGG", Regex: "(Lconv{2}Lpool){2}(Lconv{4}Lpool){3}Lip{3}", Flops: 1.96e10},
		{Model: "ResNet", Regex: "(LconvLpool)(Lconv){150}LpoolLip", Flops: 1.13e10},
	}
}

// ArchRegex renders a NetDef's layers in topological order in the paper's
// regular-expression style, e.g. "(LconvLpool){2}Lip{2}". Activation, merge
// and softmax layers are omitted, as in the paper.
func ArchRegex(def *dnn.NetDef) (string, error) {
	order, err := def.TopoOrder()
	if err != nil {
		return "", err
	}
	var toks []string
	for _, name := range order {
		switch def.Node(name).Kind {
		case dnn.KindConv:
			toks = append(toks, "Lconv")
		case dnn.KindPool:
			toks = append(toks, "Lpool")
		case dnn.KindFull:
			toks = append(toks, "Lip")
		}
	}
	// First run-length encode repeated tokens into units ("Lconv{2}"), then
	// fold repeated unit windows into groups ("(Lconv{2}Lpool){2}").
	var units []string
	for i := 0; i < len(toks); {
		n := 1
		for i+n < len(toks) && toks[i+n] == toks[i] {
			n++
		}
		if n > 1 {
			units = append(units, fmt.Sprintf("%s{%d}", toks[i], n))
		} else {
			units = append(units, toks[i])
		}
		i += n
	}
	out := ""
	for i := 0; i < len(units); {
		folded := false
		for w := 2; w <= 3 && !folded; w++ {
			if i+2*w > len(units) || !windowsEqual(units, i, i+w, w) {
				continue
			}
			n := 2
			for i+(n+1)*w <= len(units) && windowsEqual(units, i, i+n*w, w) {
				n++
			}
			group := ""
			for _, u := range units[i : i+w] {
				group += u
			}
			out += fmt.Sprintf("(%s){%d}", group, n)
			i += n * w
			folded = true
		}
		if !folded {
			out += units[i]
			i++
		}
	}
	return out, nil
}

// windowsEqual reports whether units[a:a+w] == units[b:b+w].
func windowsEqual(units []string, a, b, w int) bool {
	for k := 0; k < w; k++ {
		if units[a+k] != units[b+k] {
			return false
		}
	}
	return true
}
