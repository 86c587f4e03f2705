package main

// api.go is the only file of the benchmark that imports modelhub/internal/...
// It binds the program's public functions the workloads and probes call, so a
// later rename or signature change shows up here and nowhere else. Methods
// reached through these types (Repo.WeightsCtx, Repo.CommitCtx, Engine.Run,
// ...) are listed in README.md next to the symbols below.

import (
	"context"
	"math/rand"

	"modelhub/internal/core"
	"modelhub/internal/delta"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/dql"
	"modelhub/internal/floatenc"
	"modelhub/internal/hub"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/perturb"
	"modelhub/internal/tensor"
)

// Types the benchmark names in its own signatures.
type (
	Hub            = core.ModelHub
	TrainOptions   = core.TrainOptions
	ArchiveOptions = dlv.ArchiveOptions
	CommitInput    = dlv.CommitInput
	Checkpoint     = dnn.Checkpoint
	Example        = dnn.Example
	NetDef         = dnn.NetDef
	Matrix         = tensor.Matrix
	ClusterConfig  = hub.ClusterConfig
	SnapshotIn     = pas.SnapshotIn
	// Weights is one snapshot: layer name to weight matrix.
	Weights = map[string]*tensor.Matrix
)

const (
	latestSnap   = dlv.LatestSnap
	digestHeader = hub.DigestHeader
)

// Workload surface: what dlv and modelhub-server call.
var (
	initRepo   = core.Init
	openRepo   = core.Open
	heldOutSet = core.TestSet
	newServer  = hub.NewServer
	newGateway = hub.NewGateway
)

func publishRepo(ctx context.Context, m *Hub, remote, name string) error {
	return m.PublishWith(ctx, remote, name, hub.Options{})
}

func pullRepo(ctx context.Context, remote, name, dir string) (*Hub, error) {
	return core.PullWith(ctx, remote, name, dir, hub.Options{})
}

// Probe surface: single layers called directly in the traced run.
var (
	packRepo       = hub.PackRepo
	unpackRepo     = hub.UnpackRepo
	pasOpen        = pas.Open
	segmentMatrix  = floatenc.Segment
	compressedSize = floatenc.CompressedSize
	measureMatrix  = delta.MeasureMatrix
	gemm           = tensor.Gemm
	newMatrix      = tensor.NewMatrix
	evaluateNet    = dnn.Evaluate
	newEvaluator   = perturb.NewEvaluator
	exactWeights   = perturb.ExactWeights
	progressive    = perturb.Progressive
	segmentedSrc   = perturb.NewSegmentedSource
	obsEnable      = obs.Enable
	obsDisable     = obs.Disable
	// The registry as JSON: the same document modelhub-server serves at /metrics.
	obsSnapshotJSON = obs.SnapshotJSON
)

func pasCreate(dir string, snaps []SnapshotIn) (*pas.Store, error) {
	return pas.Create(dir, snaps, pas.Options{Algorithm: "pas-mt", Alpha: 1.6})
}

func pasGetSnapshot(ctx context.Context, st *pas.Store, id string, prefix int) (Weights, error) {
	return st.GetSnapshotCtx(ctx, id, prefix, pas.Concurrent)
}

func deltaCompute(base, target *Matrix) error {
	_, err := delta.Compute(delta.XOR, base, target)
	return err
}

func deltaFootprint(base, target *Matrix) (delta.Footprint, error) {
	return delta.MeasureDelta(delta.XOR, base, target, true)
}

func randMatrix(seed int64, rows, cols int) *Matrix {
	return tensor.RandNormal(rand.New(rand.NewSource(seed)), rows, cols, 0.05)
}

func buildNet(def *NetDef, seed int64) (*dnn.Network, error) {
	return dnn.Build(def, rand.New(rand.NewSource(seed)))
}

// trainNet runs one epoch of minibatch SGD at the defaults dlv train uses.
func trainNet(net *dnn.Network, examples []Example, seed int64) error {
	_, err := dnn.Train(net, examples, dnn.TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Seed: seed})
	return err
}

func parseDQL(text string) error {
	_, err := dql.Parse(text)
	return err
}

// intervalSource adapts a repository's WeightIntervals to perturb's source.
func intervalSource(f func(layer string, prefix int) (lo, hi *Matrix, err error)) perturb.IntervalSource {
	return perturb.SourceFunc(f)
}
