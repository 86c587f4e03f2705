// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V): Fig 6(a)-(d), Table IV and Table V, plus the
// background Table I. Each experiment is a pure function returning
// structured rows plus a printer that emits the same series the paper
// reports, so the cmd/mhbench harness and the root bench_test.go share one
// implementation. Absolute numbers differ from the paper (different
// hardware and substituted substrate — see DESIGN.md); the comparisons and
// trends are the reproduction target.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"modelhub/internal/data"
	"modelhub/internal/dnn"
	"modelhub/internal/floatenc"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// Meta identifies the hardware and runtime a result came from. The metrics
// snapshot mhbench -metrics writes embeds one, so numbers are attributable:
// a run on a 1-vCPU container and one on a 16-core workstation are different
// claims and must say so.
type Meta struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Timestamp  string `json:"timestamp"`
}

// RunMeta captures the current process's hardware/runtime identity.
func RunMeta() Meta {
	return Meta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceAt returns what retrieving src at a byte-plane prefix must yield —
// the matrices themselves at prefix 4, their truncation below — so retrieval
// experiments check against the archive's input, not against another
// retrieval.
func sourceAt(src map[string]*tensor.Matrix, prefix int) (map[string]*tensor.Matrix, error) {
	if prefix >= floatenc.NumPlanes {
		return src, nil
	}
	out := make(map[string]*tensor.Matrix, len(src))
	for name, m := range src {
		t, err := floatenc.Segment(m).Truncated(prefix)
		if err != nil {
			return nil, err
		}
		out[name] = t
	}
	return out, nil
}

// sameWeights reports the first matrix of got that is missing from or differs
// from want.
func sameWeights(got, want map[string]*tensor.Matrix) error {
	if len(got) != len(want) {
		return fmt.Errorf("retrieved %d matrices, source has %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !g.Equal(w) {
			return fmt.Errorf("matrix %s differs from the source", name)
		}
	}
	return nil
}

// TrainedModel is a shared fixture: an architecture trained on the digit
// task with its held-out test set.
type TrainedModel struct {
	Name    string
	Def     *dnn.NetDef
	Net     *dnn.Network
	Test    []dnn.Example
	BaseAcc float64
}

// TrainFixture trains one zoo architecture deterministically. Size controls
// the dataset size; epochs the training length.
func TrainFixture(arch string, size, epochs int, seed int64) (*TrainedModel, error) {
	var def *dnn.NetDef
	switch arch {
	case "lenet":
		def = zoo.LeNet(arch)
	case "alexnet-mini":
		def = zoo.AlexNetMini(arch)
	case "vgg-mini":
		def = zoo.VGGMini(arch)
	case "resnet-mini":
		def = zoo.ResNetMini(arch)
	default:
		return nil, fmt.Errorf("experiments: unknown arch %q", arch)
	}
	rng := rand.New(rand.NewSource(seed))
	examples := data.Digits(rng, size, 0.05)
	train, test := data.Split(examples, 0.8)
	net, err := dnn.Build(def, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	if _, err := dnn.Train(net, train, dnn.TrainConfig{
		Epochs: epochs, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: seed + 2,
	}); err != nil {
		return nil, err
	}
	return &TrainedModel{
		Name: arch, Def: def, Net: net, Test: test,
		BaseAcc: dnn.Evaluate(net, test),
	}, nil
}

// FineTune continues training a copy of m with a lower learning rate for a
// few steps, returning the new weights — the fine-tuned-relative workload.
func FineTune(m *TrainedModel, iters int, seed int64) (map[string]*tensor.Matrix, error) {
	net, err := dnn.Build(m.Def, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	if err := net.Restore(m.Net.Snapshot()); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	examples := data.Digits(rng, 200, 0.05)
	if _, err := dnn.Train(net, examples, dnn.TrainConfig{
		Epochs: 1, BatchSize: 16, LR: 0.01, MaxIters: iters, Seed: seed + 2,
	}); err != nil {
		return nil, err
	}
	return net.Snapshot(), nil
}

// snapshotRawBytes sums the float32 byte size of a snapshot.
func snapshotRawBytes(w map[string]*tensor.Matrix) int {
	total := 0
	for _, m := range w {
		total += 4 * m.Len()
	}
	return total
}

// restoreEval evaluates accuracy of def with the given weights.
func restoreEval(def *dnn.NetDef, w map[string]*tensor.Matrix, test []dnn.Example) (float64, error) {
	net, err := dnn.Build(def, rand.New(rand.NewSource(0)))
	if err != nil {
		return 0, err
	}
	if err := net.Restore(w); err != nil {
		return 0, err
	}
	return dnn.Evaluate(net, test), nil
}

// fprintf renders one report line. Experiment reports stream to stdout or
// in-memory builders; a write failure cannot be handled mid-table.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...) //mhlint:ignore errcheck report streams are best-effort by design
}
