// Package core is the ModelHub facade: one documented entry point wiring
// the DLV version control system and its catalog, the DQL engine, the PAS
// parameter archive, and the hub client together (paper Fig. 3).
// The command-line tool and the examples program against this API.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"modelhub/internal/data"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/dql"
	"modelhub/internal/hub"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/zoo"
)

// ModelHub is an opened workspace: a local DLV repository plus the DQL
// engine bound to it.
type ModelHub struct {
	Repo   *dlv.Repo
	Engine *dql.Engine
}

// Init creates a new repository in dir and returns the workspace.
func Init(dir string) (*ModelHub, error) {
	repo, err := dlv.Init(dir)
	if err != nil {
		return nil, err
	}
	return wrap(repo), nil
}

// Open opens an existing repository in dir.
func Open(dir string) (*ModelHub, error) {
	repo, err := dlv.Open(dir)
	if err != nil {
		return nil, err
	}
	return wrap(repo), nil
}

// digits is the default evaluation dataset, the synthetic digit task, built
// once per process and registered on every handle. Handles share it
// read-only: training shuffles an index order and data.Split re-slices, so
// nothing writes an example.
var digits = sync.OnceValue(func() []dnn.Example {
	return data.Digits(rand.New(rand.NewSource(12345)), 400, 0.05)
})

func wrap(repo *dlv.Repo) *ModelHub {
	mh := &ModelHub{Repo: repo, Engine: dql.NewEngine(repo)}
	// Callers can register more datasets via mh.Engine.RegisterDataset.
	mh.Engine.RegisterDataset("digits", digits())
	return mh
}

// Arch resolves a named reference architecture from the model zoo.
func Arch(name string) (*dnn.NetDef, error) {
	switch name {
	case "lenet":
		return zoo.LeNet(name), nil
	case "alexnet-mini":
		return zoo.AlexNetMini(name), nil
	case "vgg-mini":
		return zoo.VGGMini(name), nil
	case "resnet-mini":
		return zoo.ResNetMini(name), nil
	case "resnet-skip":
		return zoo.ResNetSkip(name), nil
	default:
		return nil, fmt.Errorf("core: unknown architecture %q (lenet, alexnet-mini, vgg-mini, resnet-mini, resnet-skip)", name)
	}
}

// trainBatch is TrainAndCommit's minibatch size, recorded as the version's
// "batch" hyperparameter.
const trainBatch = 16

// TrainOptions configure TrainAndCommit.
type TrainOptions struct {
	Arch            string // zoo architecture name
	Epochs          int
	LR              float64
	Momentum        float64
	CheckpointEvery int
	Examples        int
	Seed            int64
	ParentID        int64
	Msg             string
}

// TrainAndCommit trains a zoo architecture on the synthetic digit task and
// commits the resulting model version, returning its id — the create/update
// + train/test + evaluate loop of the paper's Fig. 1 in one call. The whole
// loop runs under one "core.train_and_commit" trace: parent checkout,
// training epochs, and the commit are all child spans.
func (m *ModelHub) TrainAndCommit(name string, opts TrainOptions) (id int64, err error) {
	ctx, span := obs.Start(context.Background(), "core.train_and_commit")
	span.SetAttr("core.model", name)
	defer func() {
		if err != nil {
			span.SetError()
		}
		span.End()
	}()
	if opts.Arch == "" {
		opts.Arch = "lenet"
	}
	if opts.Epochs == 0 {
		opts.Epochs = 2
	}
	if opts.LR == 0 {
		opts.LR = 0.1
	}
	if opts.Examples == 0 {
		opts.Examples = 400
	}
	def, err := Arch(opts.Arch)
	if err != nil {
		return 0, err
	}
	def.Name = name
	rng := rand.New(rand.NewSource(opts.Seed))
	examples := data.Digits(rng, opts.Examples, 0.05)
	train, test := data.Split(examples, 0.8)
	net, err := dnn.Build(def, rand.New(rand.NewSource(opts.Seed+1)))
	if err != nil {
		return 0, err
	}
	span.SetAttr("core.arch", opts.Arch)
	if opts.ParentID != 0 {
		parent, err := m.Repo.WeightsCtx(ctx, opts.ParentID, dlv.LatestSnap, 4)
		if err != nil {
			return 0, err
		}
		for lname, dst := range net.Params() {
			if src, ok := parent[lname]; ok && src.SameShape(dst) {
				copy(dst.Data(), src.Data())
			}
		}
	}
	res, err := dnn.Train(net, train, dnn.TrainConfig{
		Ctx:             ctx,
		Epochs:          opts.Epochs,
		BatchSize:       trainBatch,
		LR:              opts.LR,
		Momentum:        opts.Momentum,
		CheckpointEvery: opts.CheckpointEvery,
		Seed:            opts.Seed + 2,
	})
	if err != nil {
		return 0, err
	}
	return m.Repo.CommitCtx(ctx, dlv.CommitInput{
		Name:   name,
		Msg:    opts.Msg,
		NetDef: def,
		Hyper: map[string]string{
			"base_lr":  fmt.Sprintf("%g", opts.LR),
			"momentum": fmt.Sprintf("%g", opts.Momentum),
			"batch":    fmt.Sprintf("%d", trainBatch),
			"arch":     opts.Arch,
		},
		Log:         res.Log,
		Checkpoints: res.Checkpoints,
		Final:       res.Final,
		Accuracy:    dnn.Evaluate(net, test),
		ParentID:    opts.ParentID,
	})
}

// Query runs a DQL statement (dlv query).
func (m *ModelHub) Query(text string) (*dql.Result, error) {
	return m.Engine.Run(text)
}

// Archive consolidates all versions into the PAS store (dlv archive).
func (m *ModelHub) Archive(opts dlv.ArchiveOptions) error {
	_, err := m.Repo.Archive(opts)
	return err
}

// Repack re-plans every archived version globally with the archive's
// recorded settings (dlv repack).
func (m *ModelHub) Repack() (*pas.Store, error) {
	return m.Repo.Repack()
}

// PublishWith uploads the repository to a hub server (dlv publish) with
// explicit transfer options (timeouts, stall watchdog, retry policy) and a
// caller context: cancelling ctx aborts the in-flight upload.
func (m *ModelHub) PublishWith(ctx context.Context, remote, name string, o hub.Options) error {
	c := hub.NewClientWith(remote, o)
	// The client and its transport live for this one operation: without the
	// close, its keep-alive connection would hold a socket on both sides
	// until the idle timeout.
	defer c.HTTP.CloseIdleConnections()
	return c.Publish(ctx, m.Repo.Root(), name)
}

// SearchWith queries a hub server (dlv search) with explicit transfer
// options and a caller context.
func SearchWith(ctx context.Context, remote, q string, o hub.Options) ([]hub.RepoInfo, error) {
	c := hub.NewClientWith(remote, o)
	defer c.HTTP.CloseIdleConnections()
	return c.Search(ctx, q)
}

// PullWith downloads a published repository into dir and opens it (dlv
// pull) with explicit transfer options and a caller context: cancelling ctx
// aborts the download mid-stream or mid-backoff.
func PullWith(ctx context.Context, remote, name, dir string, o hub.Options) (*ModelHub, error) {
	c := hub.NewClientWith(remote, o)
	defer c.HTTP.CloseIdleConnections()
	if err := c.Pull(ctx, name, dir); err != nil {
		return nil, err
	}
	return Open(dir)
}

// TestSet returns a deterministic held-out digit set for eval commands.
func TestSet(n int, seed int64) []dnn.Example {
	return data.Digits(rand.New(rand.NewSource(seed)), n, 0.05)
}
