// Package synth generates the synthetic evaluation datasets of the paper's
// Sec. V-A. SD simulates an automated modeler iterating on a prediction
// task: a state machine that repeatedly derives new model versions from
// existing ones (hyperparameter fine-tuning, label-domain changes, small
// architecture tweaks), warm-starting each from its parent's weights and
// actually training it, checkpointing along the way. The result is a DLV
// repository whose parameter matrices have the similarity structure PAS
// exploits. RD derives parameterized storage-graph families (varying delta
// ratios, group sizes, model counts) for scaling experiments.
package synth

import (
	"fmt"
	"math/rand"

	"modelhub/internal/data"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/pas"
	"modelhub/internal/zoo"
)

// SDConfig sizes the SD repository. The paper's SD has 54 versions x 10
// snapshots of a VGG-scale model; defaults here are laptop-scale and the
// knobs scale up.
type SDConfig struct {
	Versions            int // number of model versions (default 8)
	SnapshotsPerVersion int // checkpoints per version incl. latest (default 4)
	ItersPerSnapshot    int // training iterations between checkpoints (default 8)
	TrainExamples       int // dataset size (default 300)
	Seed                int64
}

func (c SDConfig) withDefaults() SDConfig {
	if c.Versions == 0 {
		c.Versions = 8
	}
	if c.SnapshotsPerVersion == 0 {
		c.SnapshotsPerVersion = 4
	}
	if c.ItersPerSnapshot == 0 {
		c.ItersPerSnapshot = 8
	}
	if c.TrainExamples == 0 {
		c.TrainExamples = 300
	}
	return c
}

// GenerateSD drives the automated modeler and returns the populated
// repository rooted at root.
func GenerateSD(root string, cfg SDConfig) (*dlv.Repo, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	repo, err := dlv.Init(root)
	if err != nil {
		return nil, err
	}
	examples := data.Digits(rng, cfg.TrainExamples, 0.05)
	train, test := data.Split(examples, 0.8)

	type versionInfo struct {
		id  int64
		def *dnn.NetDef
	}
	var versions []versionInfo

	trainAndCommit := func(name string, def *dnn.NetDef, warm map[string]*dnn.Network, parent int64, lr float64) error {
		net, err := dnn.Build(def, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return err
		}
		if parentNet, ok := warm["net"]; ok && parentNet != nil {
			warmStart(net, parentNet)
		}
		iters := cfg.ItersPerSnapshot * cfg.SnapshotsPerVersion
		res, err := dnn.Train(net, train, dnn.TrainConfig{
			Epochs:          1,
			BatchSize:       16,
			LR:              lr,
			Momentum:        0.9,
			MaxIters:        iters,
			CheckpointEvery: cfg.ItersPerSnapshot,
			LogEvery:        cfg.ItersPerSnapshot,
			Seed:            rng.Int63(),
		})
		if err != nil {
			return err
		}
		// Keep SnapshotsPerVersion-1 checkpoints plus the latest snapshot.
		ckpts := res.Checkpoints
		if len(ckpts) >= cfg.SnapshotsPerVersion {
			ckpts = ckpts[:cfg.SnapshotsPerVersion-1]
		}
		id, err := repo.Commit(dlv.CommitInput{
			Name:        name,
			Msg:         fmt.Sprintf("automated modeler: %s", name),
			NetDef:      def,
			Hyper:       map[string]string{"base_lr": fmt.Sprintf("%g", lr), "momentum": "0.9"},
			Log:         res.Log,
			Checkpoints: ckpts,
			Final:       res.Final,
			Accuracy:    dnn.Evaluate(net, test),
			ParentID:    parent,
		})
		if err != nil {
			return err
		}
		versions = append(versions, versionInfo{id: id, def: def})
		warm["committed"] = net
		return nil
	}

	// Seed version: train the base architecture from scratch.
	base := zoo.LeNet("sd-base")
	scratch := map[string]*dnn.Network{}
	if err := trainAndCommit("sd-base", base, scratch, 0, 0.05); err != nil {
		return nil, err
	}

	moves := []string{"finetune-lr", "widen-fc", "toggle-activation"}
	for vi := 1; vi < cfg.Versions; vi++ {
		// Prefer recent parents, like a modeler iterating on the newest model.
		parent := versions[len(versions)-1-rng.Intn(min(3, len(versions)))]
		parentNet, err := netFromRepo(repo, parent.id, parent.def)
		if err != nil {
			return nil, err
		}
		move := moves[rng.Intn(len(moves))]
		def := parent.def.Clone()
		name := fmt.Sprintf("sd-v%02d-%s", vi, move)
		def.Name = name
		lr := []float64{0.05, 0.02, 0.01}[rng.Intn(3)]
		switch move {
		case "finetune-lr":
			// Same architecture, new hyperparameters.
		case "widen-fc":
			if n := def.Node("ip1"); n != nil {
				n.Out += 8 * (1 + rng.Intn(2))
			}
		case "toggle-activation":
			if n := def.Node("relu1"); n != nil {
				if n.Kind == dnn.KindReLU {
					n.Kind = dnn.KindTanh
				} else {
					n.Kind = dnn.KindReLU
				}
			}
		}
		warm := map[string]*dnn.Network{"net": parentNet}
		if err := trainAndCommit(name, def, warm, parent.id, lr); err != nil {
			return nil, err
		}
	}
	return repo, nil
}

// warmStart copies parent weights into net wherever layer names and shapes
// match — the fine-tuning initialization of the paper's Sec. II.
func warmStart(net, parent *dnn.Network) {
	src := parent.Params()
	for name, dst := range net.Params() {
		if from, ok := src[name]; ok && from.SameShape(dst) {
			copy(dst.Data(), from.Data())
		}
	}
}

// netFromRepo rebuilds a committed version's network with its final weights.
func netFromRepo(repo *dlv.Repo, id int64, def *dnn.NetDef) (*dnn.Network, error) {
	weights, err := repo.Weights(id, dlv.LatestSnap, 4)
	if err != nil {
		return nil, err
	}
	net, err := dnn.Build(def, rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, err
	}
	if err := net.Restore(weights); err != nil {
		return nil, err
	}
	return net, nil
}

// RDConfig parameterizes the derived storage-graph family (paper: "based on
// SD, we vary the delta ratios, group sizes, and number of models").
type RDConfig struct {
	Snapshots           int     // number of snapshot groups (default 20)
	MatricesPerSnapshot int     // group size (default 4)
	DeltaRatio          float64 // delta cost / materialization cost (default 0.2)
	ExtraEdges          int     // random extra delta candidates (default 2x snapshots)
	Seed                int64
}

func (c RDConfig) withDefaults() RDConfig {
	if c.Snapshots == 0 {
		c.Snapshots = 20
	}
	if c.MatricesPerSnapshot == 0 {
		c.MatricesPerSnapshot = 4
	}
	if c.DeltaRatio == 0 {
		c.DeltaRatio = 0.2
	}
	if c.ExtraEdges == 0 {
		c.ExtraEdges = 2 * c.Snapshots
	}
	return c
}

// GenerateRD builds a synthetic matrix storage graph shaped like an SD
// archive: every matrix has a materialization edge from ν0, chain deltas
// link the same matrix across consecutive snapshots at the configured delta
// ratio, and random cross edges emulate fine-tuned relatives.
func GenerateRD(cfg RDConfig) *pas.Graph {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Snapshots * cfg.MatricesPerSnapshot
	g := pas.NewGraph(n)
	node := func(snap, mat int) pas.NodeID {
		return pas.NodeID(snap*cfg.MatricesPerSnapshot + mat + 1)
	}
	for s := 0; s < cfg.Snapshots; s++ {
		var group []pas.NodeID
		for m := 0; m < cfg.MatricesPerSnapshot; m++ {
			v := node(s, m)
			group = append(group, v)
			matCost := 8 + rng.Float64()*4 // materialized compressed size
			g.AddEdge(pas.Root, v, matCost, matCost)
			if s > 0 {
				d := matCost * cfg.DeltaRatio * (0.75 + rng.Float64()*0.5)
				g.AddSymmetricEdge(node(s-1, m), v, d, d)
			}
		}
		g.AddSnapshot(fmt.Sprintf("s%03d", s), group, 0)
	}
	for i := 0; i < cfg.ExtraEdges; i++ {
		a := pas.NodeID(1 + rng.Intn(n))
		b := pas.NodeID(1 + rng.Intn(n))
		if a == b {
			continue
		}
		d := (8 + rng.Float64()*4) * cfg.DeltaRatio * (1 + rng.Float64())
		g.AddSymmetricEdge(a, b, d, d)
	}
	return g
}
