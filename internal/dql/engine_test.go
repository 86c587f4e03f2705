package dql

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"modelhub/internal/data"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/zoo"
)

// populated builds a repository with a few model versions that mirror the
// paper's examples: alexnet-style variants and a lenet.
func populated(t *testing.T) (*dlv.Repo, *Engine) {
	t.Helper()
	repo, err := dlv.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	commit := func(name string, def *dnn.NetDef, acc float64) int64 {
		id, err := repo.Commit(dlv.CommitInput{
			Name: name, NetDef: def, Accuracy: acc,
			Hyper: map[string]string{"base_lr": "0.1"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	commit("alexnet_v1", zoo.AlexNetMini("alexnet_v1"), 0.6)
	commit("alexnet_v2", zoo.AlexNetMini("alexnet_v2"), 0.7)
	commit("lenet", zoo.LeNet("lenet"), 0.95)
	// An AVG-pool variant for Query 3: lenet with avg pools.
	avg := zoo.LeNet("lenet-avgv1")
	for i := range avg.Nodes {
		if avg.Nodes[i].Kind == dnn.KindPool {
			avg.Nodes[i].Mode = dnn.PoolAvg
		}
	}
	commit("lenet-avgv1", avg, 0.9)
	eng := NewEngine(repo)
	rng := rand.New(rand.NewSource(1))
	eng.RegisterDataset("digits", data.Digits(rng, 200, 0.05))
	return repo, eng
}

func TestSelectByNameAndAccuracy(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`select m1 where m1.name like "alexnet_%"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 2 {
		t.Fatalf("versions = %d", len(res.Versions))
	}
	res, err = eng.Run(`select m where m.accuracy >= 0.9`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 2 {
		t.Fatalf("accuracy filter = %d", len(res.Versions))
	}
	res, err = eng.Run(`select m where m.accuracy >= 0.9 and m.name = "lenet"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 1 || res.Versions[0].Name != "lenet" {
		t.Fatalf("conjunction = %v", res.Versions)
	}
}

// LIKE selects by name with both wildcards, anchored at both ends, and is
// refused on a numeric attribute.
func TestSelectNameLike(t *testing.T) {
	_, eng := populated(t)
	for q, want := range map[string][]string{
		`select m where m.name like "alexnet_%"`: {"alexnet_v1", "alexnet_v2"},
		`select m where m.name like "%_v1"`:      {"alexnet_v1", "lenet-avgv1"},
		`select m where m.name like "%-avgv_"`:   {"lenet-avgv1"},
		`select m where m.name like "lene_"`:     {"lenet"},
		`select m where m.name like "lenet"`:     {"lenet"},
		`select m where m.name like "net%"`:      nil,
	} {
		res, err := eng.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got []string
		for _, v := range res.Versions {
			got = append(got, v.Name)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s = %v, want %v", q, got, want)
		}
	}
	if _, err := eng.Run(`select m where m.accuracy like "0.%"`); !errors.Is(err, ErrQuery) {
		t.Fatalf("LIKE on accuracy = %v, want ErrQuery", err)
	}
}

func TestSelectGraphCondition(t *testing.T) {
	_, eng := populated(t)
	// Query-1 analog: models whose conv layers feed MAX pools.
	res, err := eng.Run(`select m where m.name like "lenet%" and m["conv[1,2]"].next has POOL("MAX")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 1 || res.Versions[0].Name != "lenet" {
		t.Fatalf("graph cond = %v", res.Versions)
	}
	// AVG variant matches the AVG template.
	res, err = eng.Run(`select m where m["conv[1,2]"].next has POOL("AVG")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 1 || res.Versions[0].Name != "lenet-avgv1" {
		t.Fatalf("avg cond = %v", res.Versions)
	}
	// prev traversal.
	res, err = eng.Run(`select m where m.name = "lenet" and m["pool1"].prev has CONV`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 1 {
		t.Fatalf("prev cond = %v", res.Versions)
	}
	// Negation.
	res, err = eng.Run(`select m where m.name = "lenet" and m["ip1"].next not has POOL`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 1 {
		t.Fatalf("negated cond = %v", res.Versions)
	}
}

func TestSelectMetadataFallback(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`select m where m.base_lr = "0.1"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 4 {
		t.Fatalf("metadata cond = %d", len(res.Versions))
	}
}

func TestSelectTypeMismatch(t *testing.T) {
	_, eng := populated(t)
	if _, err := eng.Run(`select m where m.accuracy = "high"`); !errors.Is(err, ErrQuery) {
		t.Fatal("string vs numeric attribute must error")
	}
}

// Query-2 analog: slice the conv trunk out of lenet.
func TestSliceSubNetwork(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`slice m2 from m1
		where m1.name = "lenet"
		mutate m2.input = m1["conv1"] and m2.output = m1["ip1"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Defs) != 1 {
		t.Fatalf("defs = %d", len(res.Defs))
	}
	def := res.Defs[0]
	if def.Node("conv1") == nil || def.Node("ip1") == nil || def.Node("ip2") != nil || def.Node("prob") != nil {
		t.Fatalf("slice kept wrong nodes: %+v", def.Nodes)
	}
	// The slice starts at conv1, so the input shape is the original input.
	if def.InC != 1 || def.InH != data.DigitSize {
		t.Fatalf("slice input shape = %dx%dx%d", def.InC, def.InH, def.InW)
	}
	// Slice must be buildable.
	if _, err := dnn.Build(def, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
}

func TestSliceMidNetworkShape(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`slice s from m
		where m.name = "lenet"
		mutate s.input = m["conv2"] and s.output = m["ip2"]`)
	if err != nil {
		t.Fatal(err)
	}
	def := res.Defs[0]
	// conv2's input is the pooled conv1 output: 8 channels at 6x6.
	if def.InC != 8 || def.InH != 6 || def.InW != 6 {
		t.Fatalf("mid-slice input shape = %dx%dx%d", def.InC, def.InH, def.InW)
	}
	if def.Labels != data.NumDigits {
		t.Fatalf("slice labels = %d", def.Labels)
	}
}

func TestSliceErrors(t *testing.T) {
	_, eng := populated(t)
	if _, err := eng.Run(`slice s from m where m.name = "lenet" mutate s.input = m["conv*"] and s.output = m["ip2"]`); !errors.Is(err, ErrQuery) {
		t.Fatal("ambiguous selector must error")
	}
	if _, err := eng.Run(`slice s from m where m.name = "lenet" mutate s.input = m["ip2"] and s.output = m["conv1"]`); !errors.Is(err, ErrQuery) {
		t.Fatal("no-path slice must error")
	}
}

// Query 2 on a DAG model: a slice whose boundary lies inside or beyond a
// skip block builds, and its input shape is the start node's input shape in
// the model's graph.
func TestSliceOnDAG(t *testing.T) {
	check := func(sliced *dnn.NetDef, start string, want dnn.Shape) {
		t.Helper()
		if _, err := dnn.Build(sliced, rand.New(rand.NewSource(1))); err != nil {
			t.Fatalf("slice %s from %s must build: %v", sliced.Name, start, err)
		}
		if got := (dnn.Shape{C: sliced.InC, H: sliced.InH, W: sliced.InW}); got != want {
			t.Fatalf("slice %s from %s takes %v, want %v", sliced.Name, start, got, want)
		}
	}
	repo, err := dlv.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	skip := zoo.ResNetSkip("resnet-skip")
	if _, err := repo.Commit(dlv.CommitInput{Name: "resnet-skip", NetDef: skip}); err != nil {
		t.Fatal(err)
	}
	g, err := skip.Graph()
	if err != nil {
		t.Fatal(err)
	}
	inShape := map[string]dnn.Shape{}
	for _, nd := range g.Nodes {
		inShape[nd.Spec.Name] = nd.In
	}
	eng := NewEngine(repo)
	for _, c := range []struct{ start, end string }{{"pool", "fc"}, {"b1_conv1", "b1_add"}} {
		res, err := eng.Run(`slice s from m where m.name = "resnet-skip" mutate s.input = m["` +
			c.start + `"] and s.output = m["` + c.end + `"]`)
		if err != nil {
			t.Fatalf("%s..%s: %v", c.start, c.end, err)
		}
		check(res.Defs[0], c.start, inShape[c.start])
	}
	// Property: every node of every zoo model starts a slice to its sink.
	for _, def := range []*dnn.NetDef{zoo.LeNet("lenet"), zoo.AlexNetMini("alex"), zoo.VGGMini("vgg"),
		zoo.ResNetMini("resnet"), zoo.ResNetSkip("skip"), zoo.MLP("mlp", 10, 32, 4)} {
		g, err := def.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range g.Nodes {
			sliced, err := sliceDef(def, nd.Spec.Name, g.Nodes[g.Sink].Spec.Name, def.Name+"-s")
			if err != nil {
				t.Fatalf("%s from %s: %v", def.Name, nd.Spec.Name, err)
			}
			check(sliced, nd.Spec.Name, nd.In)
		}
	}
}

// Query-3 analog: insert a ReLU after every conv followed by an AVG pool.
func TestConstructInsert(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`construct m2 from m1
		where m1.name like "lenet-avgv1%" and m1["conv*($1)"].next has POOL("AVG")
		mutate m1["conv*($1)"].insert = RELU("actv$1")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Defs) != 1 {
		t.Fatalf("defs = %d", len(res.Defs))
	}
	def := res.Defs[0]
	if def.Node("actv1") == nil || def.Node("actv2") == nil {
		t.Fatalf("inserted relus missing: %+v", def.Nodes)
	}
	// conv1 -> relu1 -> pool1 now.
	if next := def.Next("conv1"); len(next) != 1 || next[0] != "actv1" {
		t.Fatalf("conv1 next = %v", next)
	}
	if next := def.Next("actv1"); len(next) != 1 || next[0] != "pool1" {
		t.Fatalf("actv1 next = %v", next)
	}
	// Constructed model must build and run.
	if _, err := dnn.Build(def, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
}

func TestConstructDelete(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`construct m2 from m1
		where m1.name = "lenet"
		mutate m1["ip1"].delete = RELU`)
	if err != nil {
		t.Fatal(err)
	}
	def := res.Defs[0]
	if def.Node("relu1") != nil {
		t.Fatal("relu1 should be deleted")
	}
	if next := def.Next("ip1"); len(next) != 1 || next[0] != "ip2" {
		t.Fatalf("bypass edge wrong: %v", next)
	}
	if _, err := dnn.Build(def, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}
}

func TestConstructNoChangeYieldsNothing(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`construct m2 from m1
		where m1.name = "lenet"
		mutate m1["ghost*"].insert = RELU("r")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Defs) != 0 {
		t.Fatalf("unchanged construct must yield nothing, got %d", len(res.Defs))
	}
}

func TestConstructInsertParametricRejected(t *testing.T) {
	_, eng := populated(t)
	if _, err := eng.Run(`construct m2 from m1 where m1.name = "lenet" mutate m1["conv1"].insert = CONV("x")`); !errors.Is(err, ErrQuery) {
		t.Fatal("parametric insert must error")
	}
}

// Query-4 analog: enumerate lenet variants over a small lr grid and keep
// the best by loss.
func TestEvaluateGridSearch(t *testing.T) {
	_, eng := populated(t)
	if err := eng.RegisterQuery("variants", `select m where m.name = "lenet"`); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(`evaluate m
		from "variants"
		vary config.base_lr in [0.1, 0.001]
		keep top(1, m["loss"], 12)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	best := res.Candidates[0]
	if best.Config.BaseLR != 0.1 && best.Config.BaseLR != 0.001 {
		t.Fatalf("config = %+v", best.Config)
	}
	if best.Loss <= 0 {
		t.Fatalf("loss = %v", best.Loss)
	}
}

func TestEvaluateNestedConstruct(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`evaluate m
		from (construct c from m1 where m1.name = "lenet-avgv1" mutate m1["conv*($1)"].insert = TANH("tanh$1"))
		vary config.base_lr in [0.05]
		keep top(3, m["acc"], 10)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	if res.Candidates[0].Def.Node("tanh1") == nil {
		t.Fatal("evaluated def must be the constructed variant")
	}
}

func TestEvaluateKeepAbove(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`evaluate m
		from (select m1 where m1.name = "lenet")
		vary config.base_lr in [0.1]
		keep above(2.0, m["acc"], 5)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 0 {
		t.Fatal("no candidate can exceed accuracy 2.0")
	}
}

func TestEvaluateAutoGrid(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`evaluate m
		from (select m1 where m1.name = "lenet")
		vary config.momentum auto
		keep top(10, m["loss"], 5)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 { // auto grid for momentum has 2 points
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
}

func TestEvaluateErrors(t *testing.T) {
	_, eng := populated(t)
	if _, err := eng.Run(`evaluate m from "missing" keep top(1, m["loss"], 5)`); !errors.Is(err, ErrQuery) {
		t.Fatal("unknown named query must error")
	}
	if _, err := eng.Run(`evaluate m from (select m1 where m1.name = "zzz") keep top(1, m["loss"], 5)`); !errors.Is(err, ErrQuery) {
		t.Fatal("empty candidate set must error")
	}
	if _, err := eng.Run(`evaluate m from (select m1 where m1.name = "lenet") vary config.wat in [1] keep top(1, m["loss"], 5)`); !errors.Is(err, ErrQuery) {
		t.Fatal("unknown config key must error")
	}
	if _, err := eng.Run(`evaluate m from (select m1 where m1.name = "lenet") vary config.input_data in ["nope"] keep top(1, m["loss"], 5)`); !errors.Is(err, ErrQuery) {
		t.Fatal("unknown dataset must error")
	}
}

func TestRegisterQueryBadSyntax(t *testing.T) {
	_, eng := populated(t)
	if err := eng.RegisterQuery("bad", "selec t"); err == nil {
		t.Fatal("bad named query must error at registration")
	}
}

// Paper Query 4's per-layer dimension: vary config.net["conv*"].lr.
func TestEvaluatePerLayerLR(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`evaluate m
		from (select m1 where m1.name = "lenet")
		vary config.net["conv*"].lr in [0.1, 0]
		keep top(5, m["loss"], 8)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	seen := map[float64]bool{}
	for _, c := range res.Candidates {
		lr, ok := c.Config.NetLR["conv*"]
		if !ok {
			t.Fatalf("candidate missing net lr: %+v", c.Config)
		}
		seen[lr] = true
	}
	if !seen[0.1] || !seen[0] {
		t.Fatalf("grid points missing: %v", seen)
	}
}

func TestEvaluatePerLayerLRAuto(t *testing.T) {
	_, eng := populated(t)
	res, err := eng.Run(`evaluate m
		from (select m1 where m1.name = "lenet")
		vary config.net["ip*"].lr auto
		keep top(10, m["loss"], 5)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 3 { // auto grid has 3 points
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
}

func TestEvaluatePerLayerLRNoMatch(t *testing.T) {
	_, eng := populated(t)
	if _, err := eng.Run(`evaluate m
		from (select m1 where m1.name = "lenet")
		vary config.net["ghost*"].lr in [0.1]
		keep top(1, m["loss"], 5)`); !errors.Is(err, ErrQuery) {
		t.Fatal("unmatched net lr selector must error")
	}
}

// Construct on a DAG model: inserting after a fan-out node must splice the
// new node into every outgoing edge, and the result must still build.
func TestConstructInsertOnDAG(t *testing.T) {
	repo, err := dlv.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Commit(dlv.CommitInput{
		Name: "resnet-skip", NetDef: zoo.ResNetSkip("resnet-skip"),
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(repo)
	res, err := eng.Run(`construct c from m
		where m.name = "resnet-skip"
		mutate m["stem_relu"].insert = TANH("post_stem")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Defs) != 1 {
		t.Fatalf("defs = %d", len(res.Defs))
	}
	def := res.Defs[0]
	// stem_relu fanned out to b1_conv1 AND the b1_add skip; both must now
	// route through the inserted node.
	if next := def.Next("stem_relu"); len(next) != 1 || next[0] != "post_stem" {
		t.Fatalf("stem_relu next = %v", next)
	}
	after := def.Next("post_stem")
	if len(after) != 2 {
		t.Fatalf("post_stem next = %v", after)
	}
	if _, err := dnn.Build(def, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("constructed DAG must build: %v", err)
	}
}
