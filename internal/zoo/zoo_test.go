package zoo

import (
	"math/rand"
	"slices"
	"testing"

	"modelhub/internal/data"
	"modelhub/internal/dnn"
)

func TestArchitecturesBuild(t *testing.T) {
	defs := []*dnn.NetDef{LeNet("lenet"), AlexNetMini("alex"), VGGMini("vgg"), ResNetMini("resnet"), MLP("mlp", 10, 32, 4)}
	for _, def := range defs {
		if err := def.Validate(); err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		n, err := dnn.Build(def, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: build: %v", def.Name, err)
		}
		if n.ParamCount() == 0 {
			t.Fatalf("%s: no parameters", def.Name)
		}
	}
}

func TestLeNetForward(t *testing.T) {
	n, err := dnn.Build(LeNet("lenet"), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	in := dnn.NewVolume(dnn.Shape{C: 1, H: 12, W: 12})
	out := n.Forward(in)
	if out.Shape.Size() != 10 {
		t.Fatalf("output size = %d", out.Shape.Size())
	}
}

func TestArchRegex(t *testing.T) {
	got, err := ArchRegex(LeNet("lenet"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "(LconvLpool){2}Lip{2}" {
		t.Fatalf("LeNet regex = %q", got)
	}
	got, err = ArchRegex(VGGMini("vgg"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "(Lconv{2}Lpool){2}Lip{3}" {
		t.Fatalf("VGGMini regex = %q", got)
	}
}

func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 4 || rows[0].Model != "LeNet" || rows[0].Flops != 4.31e5 {
		t.Fatalf("TableI = %+v", rows)
	}
}

func TestLeNetMatchesPaperRegex(t *testing.T) {
	// The mini LeNet must have the same architecture regex as the paper's
	// Table I row.
	got, err := ArchRegex(LeNet("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got != TableI()[0].Regex {
		t.Fatalf("LeNet regex %q != Table I %q", got, TableI()[0].Regex)
	}
}

func TestResNetMiniRegexFamily(t *testing.T) {
	got, err := ArchRegex(ResNetMini("r"))
	if err != nil {
		t.Fatal(err)
	}
	want := "(LconvLpool)Lconv{8}LpoolLip"
	// Our run-length encoder renders the leading pair without a group when
	// it does not repeat; accept either spelling of the same chain.
	alt := "LconvLpoolLconv{8}LpoolLip"
	if got != want && got != alt {
		t.Fatalf("ResNetMini regex = %q", got)
	}
}

func TestResNetSkipBuildsAndRuns(t *testing.T) {
	def := ResNetSkip("resnet-skip")
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	// Skip connections make it a real DAG: some node merges two inputs.
	g, err := def.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(g.Nodes, func(nd dnn.GraphNode) bool { return len(nd.Preds) > 1 }) {
		t.Fatal("skip network has no merge node")
	}
	n, err := dnn.Build(def, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	in := dnn.NewVolume(dnn.Shape{C: 1, H: 12, W: 12})
	if out := n.Forward(in); out.Shape.Size() != 10 {
		t.Fatalf("output size = %d", out.Shape.Size())
	}
}

func TestResNetSkipLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	rng := rand.New(rand.NewSource(10))
	examples := data.Digits(rng, 400, 0.05)
	train, test := data.Split(examples, 0.8)
	n, err := dnn.Build(ResNetSkip("r"), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnn.Train(n, train, dnn.TrainConfig{Epochs: 6, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	if acc := dnn.Evaluate(n, test); acc < 0.8 {
		t.Fatalf("skip resnet failed to learn: %v", acc)
	}
}
