package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// workloadDef names a workload, records why it is in the benchmark, and
// builds it under root from the seed. The reasons are repeated verbatim in
// BENCHMARK.json.
type workloadDef struct {
	name  string
	why   string
	setup func(ctx context.Context, root string, seed int64, tr *tracer) (workload, error)
}

var workloadDefs = []workloadDef{
	{"hub-share",
		"Nothing shared between payloads: publish an archived 4-version alexnet-mini repo under a fresh name, then 3 x (pull, checkout). Hub tar+gzip, HTTP, 3-way replication and unpack do nearly all the work.",
		setupHubShare},
	{"hub-republish",
		"Almost everything shared: commit one fine-tune onto a 12-version lenet repo, re-archive, publish under the same name, pull, checkout. 12 of 13 versions are on every replica, yet all bytes move again.",
		setupHubRepublish},
	{"archive-checkout",
		"No hub, no training: PAS-archive a raw 8-version lenet lineage, reopen, check out 26 snapshots cold, the 8 latest warm, then at 2 byte planes. Write, read and space cost in one loop; cache miss vs fit",
		setupArchiveCheckout},
	{"explore-evaluate",
		"Compute-bound: 20 DQL selects, an 8-candidate evaluate grid, progressive and full evaluation of 50 held-out examples on a pulled repo. GEMM, dnn, interval arithmetic and dql work; the hub is idle.",
		setupExploreEvaluate},
}

// scratchDir names the directory one cycle writes its working copies and
// pulled repositories into. Nothing is deleted while a run is measuring: an
// ext4 without a journal, as the sandbox's is, will not reuse an inode for a
// minute after it was deleted, and every file created in a block group meanwhile
// walks past all the deleted ones first, so the cost of the harness's own
// clean-up would land inside the timed ops (see spreadSubdirs). The whole
// root goes at exit instead.
func scratchDir(root string, serial int) string {
	return filepath.Join(root, fmt.Sprintf("cycle-%05d", serial))
}

// ---------------------------------------------------------------- hub-share

type hubShare struct {
	root  string
	cl    *cluster
	pub   *lineage
	names int
}

func setupHubShare(ctx context.Context, root string, seed int64, tr *tracer) (workload, error) {
	cl, err := startCluster(root, tr)
	if err != nil {
		return nil, err
	}
	w := &hubShare{root: root, cl: cl}
	if w.pub, err = buildLineage(ctx, filepath.Join(root, "publisher"), "alexnet-mini", "alexnet", 4, seed); err == nil {
		err = w.pub.hub.Archive(archiveOpts)
	}
	if err != nil {
		cl.stop()
		return nil, err
	}
	return w, nil
}

func (w *hubShare) net() *cluster { return w.cl }
func (w *hubShare) close()        { w.cl.stop() }

func (w *hubShare) probes() []probe {
	dir := func() string { return w.pub.dir }
	return []probe{packProbe(dir, w.root), openProbe(dir, w.pub.latest[0]), pasProbe(w.pub, w.root)}
}

func (w *hubShare) cycle(c *cycle) {
	w.names++
	consumers := scratchDir(w.root, w.names)
	name := fmt.Sprintf("alexnet-lineage-%05d", w.names)
	if !c.op("publish", func() error {
		return c.layer("hub.client.publish", func() error { return publishRepo(c.ctx, w.pub.hub, w.cl.gatewayURL, name) })
	}) {
		return
	}
	ack := w.cl.gatewayHTTP.lastDigest("/api/publish")
	err := w.cl.replicasList(c.ctx, name, ack)
	c.gate(err == nil, "after publish: %v", err)
	head := w.pub.latest[len(w.pub.latest)-1]
	for i := 0; i < 3; i++ {
		pullCheckout(c, w.cl, name, filepath.Join(consumers, fmt.Sprint(i)), ack, head, w.pub.truth[snapRef{head, latestSnap}])
	}
}

// pullCheckout is the consumer half both hub workloads share: pull through
// the gateway into a fresh directory, open, check out one version's latest
// weights at full precision; then the gates on digest and weights.
func pullCheckout(c *cycle, cl *cluster, name, dir, ack string, version int64, want Weights) {
	var got Weights
	ok := c.op("pull_checkout", func() error {
		var con *Hub
		err := c.layer("hub.client.pull", func() (err error) {
			con, err = pullRepo(c.ctx, cl.gatewayURL, name, dir)
			return err
		})
		if err != nil {
			return err
		}
		return c.layer("dlv.checkout", func() (err error) {
			got, err = con.Repo.WeightsCtx(c.ctx, version, latestSnap, 4)
			return err
		})
	})
	if !ok {
		return
	}
	served := cl.gatewayHTTP.lastDigest("/api/pull")
	c.gate(served == ack, "pulled archive digest %s, acknowledged %s", served, ack)
	diff := bitIdentical(got, want)
	c.gate(diff == "", "pulled v%d differs from committed weights: %s", version, diff)
}

func (w *hubShare) counts(m map[string]float64) {
	hubCounts(m, w.cl, repoBytes(w.pub.dir)*int64(w.names))
}

// hubCounts fills the disk and request ratios of a hub workload. live is the
// size of the repositories currently published.
func hubCounts(m map[string]float64, cl *cluster, live int64) {
	m["hub_disk_bytes_per_repo_byte"] = float64(diskBytes(cl.replicaDirs...)) / float64(live)
	if publishes := cl.gatewayHTTP.count("/api/publish"); publishes > 0 {
		m["hub.server.replicas_per_publish"] = float64(cl.replicaHTTP.count("/api/replicate")) / float64(publishes)
	}
}

// ------------------------------------------------------------ hub-republish

const republishName = "lenet-lineage"

type hubRepublish struct {
	root    string
	cl      *cluster
	base    *lineage    // archived 12-version repo, published once in set-up
	commit  CommitInput // version 13, trained in set-up
	newRef  snapRef
	newRaw  int64 // float32 bytes of version 13's snapshots
	cycles  int
	work    string // the working copy of the cycle in progress
	lastPAS int64
}

func setupHubRepublish(ctx context.Context, root string, seed int64, tr *tracer) (workload, error) {
	cl, err := startCluster(root, tr)
	if err != nil {
		return nil, err
	}
	w := &hubRepublish{root: root, cl: cl}
	if err := w.build(ctx, seed); err != nil {
		cl.stop()
		return nil, err
	}
	return w, nil
}

func (w *hubRepublish) build(ctx context.Context, seed int64) (err error) {
	if w.base, err = buildLineage(ctx, filepath.Join(w.root, "base"), "lenet", "lenet", 12, seed); err != nil {
		return err
	}
	if err = w.base.hub.Archive(archiveOpts); err != nil {
		return err
	}
	// Train version 13 in a throw-away copy and lift it out as the commit
	// the timed loop replays onto fresh copies of the base.
	donorDir := filepath.Join(w.root, "donor")
	if err = copyTree(w.base.dir, donorDir); err != nil {
		return err
	}
	donor := &lineage{dir: donorDir, truth: w.base.truth}
	if donor.hub, err = openRepo(donorDir); err != nil {
		return err
	}
	parent := w.base.latest[len(w.base.latest)-1]
	id, err := donor.hub.TrainAndCommit("lenet_v13", TrainOptions{Arch: "lenet", Epochs: 1, LR: 0.02,
		CheckpointEvery: 10, Seed: seed*1000 + 13, ParentID: parent, Msg: "fine-tune"})
	if err != nil {
		return err
	}
	if err = donor.recordTruth(ctx, id); err != nil {
		return err
	}
	w.newRaw = donor.rawBytes
	v, err := donor.hub.Repo.Version(id)
	if err != nil {
		return err
	}
	log, err := donor.hub.Repo.TrainLog(id)
	if err != nil {
		return err
	}
	w.commit = CommitInput{Name: v.Name, Msg: v.Msg, NetDef: v.NetDef, Hyper: v.Hyper, Log: log,
		Accuracy: v.Accuracy, ParentID: parent}
	for _, snap := range v.Snapshots {
		weights := donor.truth[snapRef{id, snap}]
		if snap == latestSnap {
			w.commit.Final = weights
			continue
		}
		var iter int
		if _, err := fmt.Sscanf(snap, "ckpt-%d", &iter); err != nil {
			return fmt.Errorf("snapshot label %q: %v", snap, err)
		}
		w.commit.Checkpoints = append(w.commit.Checkpoints, Checkpoint{Iter: iter, Weights: weights})
	}
	w.newRef = snapRef{id, latestSnap}
	if err = os.RemoveAll(donorDir); err != nil {
		return err
	}
	// The replicas start out holding the 12 shared versions.
	if err = publishRepo(ctx, w.base.hub, w.cl.gatewayURL, republishName); err != nil {
		return err
	}
	w.cl.lastPublish = time.Now()
	return nil
}

func (w *hubRepublish) net() *cluster { return w.cl }
func (w *hubRepublish) close()        { w.cl.stop() }

func (w *hubRepublish) probes() []probe {
	dir := func() string { return w.work }
	return []probe{packProbe(dir, w.root), openProbe(dir, w.newRef.version), pasProbe(w.base, w.root)}
}

func (w *hubRepublish) cycle(c *cycle) {
	w.cycles++
	scratch := scratchDir(w.root, w.cycles)
	w.work = filepath.Join(scratch, "work")
	err := copyTree(w.base.dir, w.work)
	var mh *Hub
	if err == nil {
		mh, err = openRepo(w.work)
	}
	c.gate(err == nil, "preparing the working copy: %v", err)
	if err != nil {
		return
	}
	// The copy must be on disk before the clock starts: ext4 orders data
	// before metadata, so the first fsync of a timed op would otherwise
	// write the untimed copy out as well.
	syscall.Sync()
	w.cl.awaitNextSecond()

	var id int64
	if !c.op("commit", func() error {
		return c.layer("dlv.commit", func() (err error) {
			id, err = mh.Repo.CommitCtx(c.ctx, w.commit)
			return err
		})
	}) {
		return
	}
	c.gate(id == w.newRef.version, "committed as version %d, want %d", id, w.newRef.version)
	if !c.op("archive", func() error {
		return c.layer("dlv.archive", func() error { return mh.Archive(archiveOpts) })
	}) {
		return
	}
	w.lastPAS = pasBytes(w.work)
	published := c.op("publish", func() error {
		return c.layer("hub.client.publish", func() error { return publishRepo(c.ctx, mh, w.cl.gatewayURL, republishName) })
	})
	w.cl.lastPublish = time.Now()
	if !published {
		return
	}
	ack := w.cl.gatewayHTTP.lastDigest("/api/publish")
	err = w.cl.replicasList(c.ctx, republishName, ack)
	c.gate(err == nil, "after republish: %v", err)
	pullCheckout(c, w.cl, republishName, filepath.Join(scratch, "consumer"), ack, w.newRef.version, w.base.truth[w.newRef])
}

func (w *hubRepublish) counts(m map[string]float64) {
	hubCounts(m, w.cl, repoBytes(w.work))
	m["stored_bytes_per_raw_byte"] = float64(w.lastPAS) / float64(w.base.rawBytes+w.newRaw)
	m["new_version_raw_bytes"] = float64(w.newRaw)
}

// --------------------------------------------------------- archive-checkout

type archiveCheckout struct {
	root    string
	raw     *lineage // 8 versions, 26 snapshots, never archived
	cycles  int
	work    string // the working copy of the cycle in progress
	lastPAS int64
}

func setupArchiveCheckout(ctx context.Context, root string, seed int64, _ *tracer) (workload, error) {
	raw, err := buildLineage(ctx, filepath.Join(root, "raw"), "lenet", "lenet", 8, seed)
	if err != nil {
		return nil, err
	}
	return &archiveCheckout{root: root, raw: raw}, nil
}

func (w *archiveCheckout) net() *cluster { return nil }
func (w *archiveCheckout) close()        {}

func (w *archiveCheckout) probes() []probe {
	dir := func() string { return w.work }
	return []probe{pasProbe(w.raw, w.root), encodingProbe(w.raw), openProbe(dir, w.raw.latest[0])}
}

func (w *archiveCheckout) cycle(c *cycle) {
	w.cycles++
	w.work = scratchDir(w.root, w.cycles)
	err := copyTree(w.raw.dir, w.work)
	var mh *Hub
	if err == nil {
		mh, err = openRepo(w.work)
	}
	c.gate(err == nil, "preparing the working copy: %v", err)
	if err != nil {
		return
	}
	syscall.Sync() // as in hub-republish: the copy is not the archive's to flush
	if !c.op("archive", func() error {
		return c.layer("dlv.archive", func() error { return mh.Archive(archiveOpts) })
	}) {
		return
	}
	w.lastPAS = pasBytes(w.work)
	// A fresh handle: nothing decoded is cached yet.
	if !c.op("open", func() error {
		return c.layer("dlv.open", func() (err error) {
			mh, err = openRepo(w.work)
			return err
		})
	}) {
		return
	}
	checkout := func(op string, ref snapRef, prefix int) Weights {
		var got Weights
		c.op(op, func() error {
			return c.layer("dlv.checkout", func() (err error) {
				got, err = mh.Repo.WeightsCtx(c.ctx, ref.version, ref.snap, prefix)
				return err
			})
		})
		return got
	}
	for _, ref := range w.raw.snaps {
		if got := checkout("checkout_cold", ref, 4); got != nil {
			diff := bitIdentical(got, w.raw.truth[ref])
			c.gate(diff == "", "cold checkout of %s: %s", ref.pasID(), diff)
		}
	}
	for _, id := range w.raw.latest {
		ref := snapRef{id, latestSnap}
		if got := checkout("checkout_warm", ref, 4); got != nil {
			diff := bitIdentical(got, w.raw.truth[ref])
			c.gate(diff == "", "warm checkout of %s: %s", ref.pasID(), diff)
		}
	}
	for _, id := range w.raw.latest {
		ref := snapRef{id, latestSnap}
		if got := checkout("checkout_prefix2", ref, 2); got != nil {
			diff := withinBounds(got, w.raw.truth[ref], func(layer string) (lo, hi *Matrix, err error) {
				return mh.Repo.WeightIntervals(ref.version, ref.snap, layer, 2)
			})
			c.gate(diff == "", "prefix-2 checkout of %s: %s", ref.pasID(), diff)
		}
	}
}

func (w *archiveCheckout) counts(m map[string]float64) {
	m["stored_bytes_per_raw_byte"] = float64(w.lastPAS) / float64(w.raw.rawBytes)
}

// --------------------------------------------------------- explore-evaluate

const (
	heldOut       = 50
	gridStatement = `evaluate m from (select m1 where m1.name = "alexnet_v1")
		vary config.base_lr in [0.1, 0.01] and config.momentum in [0, 0.9] and config.batch in [8, 16]
		keep top(8, m["loss"], 10)`
)

// selectCase is one Query-1-shaped select with the ids it must return,
// worked out in set-up from the catalog listing without the DQL engine.
type selectCase struct {
	text string
	want string // sorted ids, space separated
}

type exploreEvaluate struct {
	cl       *cluster // only used in set-up; idle in the timed window
	mh       *Hub     // the pulled repository
	head     int64    // newest version: the one evaluated
	def      *NetDef  // its architecture
	weights  Weights  // its weights as committed by the publisher
	examples []Example
	selects  []selectCase
	// readShare is the Fig. 6(d) quantity of the last progressive eval: byte
	// planes read over byte planes stored, for the 50 examples.
	readShare float64
}

func setupExploreEvaluate(ctx context.Context, root string, seed int64, tr *tracer) (workload, error) {
	cl, err := startCluster(root, tr)
	if err != nil {
		return nil, err
	}
	w := &exploreEvaluate{cl: cl, examples: heldOutSet(heldOut, seed)}
	if err := w.build(ctx, root, seed); err != nil {
		cl.stop()
		return nil, err
	}
	return w, nil
}

func (w *exploreEvaluate) build(ctx context.Context, root string, seed int64) error {
	pub, err := buildLineage(ctx, filepath.Join(root, "publisher"), "alexnet-mini", "alexnet", 4, seed)
	if err != nil {
		return err
	}
	if err = pub.hub.Archive(archiveOpts); err != nil {
		return err
	}
	if err = publishRepo(ctx, pub.hub, w.cl.gatewayURL, "alexnet-lineage"); err != nil {
		return err
	}
	dir := filepath.Join(root, "explorer")
	if w.mh, err = pullRepo(ctx, w.cl.gatewayURL, "alexnet-lineage", dir); err != nil {
		return err
	}
	w.mh.Engine.Seed = seed
	w.head = pub.latest[len(pub.latest)-1]
	if err = w.selectCases(); err != nil {
		return err
	}
	v, err := w.mh.Repo.Version(w.head)
	if err != nil {
		return err
	}
	w.def, w.weights = v.NetDef, pub.truth[snapRef{w.head, latestSnap}]
	return w.checkLabels()
}

// selectCases builds the five select shapes (paper Query 1: name pattern,
// metadata and accuracy predicates, a structural predicate over the layer
// graph) and the answers they must give.
func (w *exploreEvaluate) selectCases() error {
	versions, err := w.mh.Repo.List()
	if err != nil {
		return err
	}
	accs := make([]float64, len(versions))
	for i, v := range versions {
		accs[i] = v.Accuracy
	}
	cut := median(accs)
	feedsMaxPool := func(def *NetDef, layers *regexp.Regexp) bool {
		for _, node := range def.Nodes {
			if !layers.MatchString(node.Name) {
				continue
			}
			for _, next := range def.Next(node.Name) {
				if n := def.Node(next); n != nil && n.Kind == "pool" && n.Mode == "MAX" {
					return true
				}
			}
		}
		return false
	}
	relu12, conv12 := regexp.MustCompile(`^relu[12]$`), regexp.MustCompile(`^conv[12]$`)
	shapes := []struct {
		text string
		keep func(id int64, name string, acc float64, hyper map[string]string, def *NetDef) bool
	}{
		{`select m where m.name like "alexnet_%"`,
			func(_ int64, name string, _ float64, _ map[string]string, _ *NetDef) bool {
				return strings.HasPrefix(name, "alexnet_")
			}},
		{`select m where m.name like "alexnet_%" and m["relu[1,2]"].next has POOL("MAX")`,
			func(_ int64, _ string, _ float64, _ map[string]string, def *NetDef) bool {
				return feedsMaxPool(def, relu12)
			}},
		{`select m where m.name like "%_v%" and m["conv[1,2]"].next has POOL("MAX")`,
			func(_ int64, _ string, _ float64, _ map[string]string, def *NetDef) bool {
				return feedsMaxPool(def, conv12)
			}},
		{fmt.Sprintf(`select m where m.accuracy >= %g and m.id > 1`, cut),
			func(id int64, _ string, acc float64, _ map[string]string, _ *NetDef) bool {
				return acc >= cut && id > 1
			}},
		{`select m where m.base_lr = "0.02"`,
			func(_ int64, _ string, _ float64, hyper map[string]string, _ *NetDef) bool {
				return hyper["base_lr"] == "0.02"
			}},
	}
	for _, s := range shapes {
		var ids []int64
		for _, v := range versions {
			if s.keep(v.ID, v.Name, v.Accuracy, v.Hyper, v.NetDef) {
				ids = append(ids, v.ID)
			}
		}
		w.selects = append(w.selects, selectCase{s.text, fmt.Sprint(ids)})
	}
	return nil
}

// checkLabels is the once-per-run gate that progressive evaluation and a
// full-precision forward pass name the same top-1 label on every held-out
// example. The per-cycle gate compares the two accuracies, which the dlv API
// does expose; labels it does not, so this goes one layer down.
func (w *exploreEvaluate) checkLabels() error {
	ev, err := newEvaluator(w.def)
	if err != nil {
		return err
	}
	src := intervalSource(func(layer string, prefix int) (lo, hi *Matrix, err error) {
		return w.mh.Repo.WeightIntervals(w.head, latestSnap, layer, prefix)
	})
	exact := exactWeights(w.weights)
	for i, ex := range w.examples {
		res, err := progressive(ev, src, ex.Input, 1, 1)
		if err != nil {
			return err
		}
		logits, _, err := ev.Forward(ex.Input, exact)
		if err != nil {
			return err
		}
		best := 0
		for j, x := range logits {
			if x > logits[best] {
				best = j
			}
		}
		if len(res.Labels) != 1 || res.Labels[0] != best {
			return fmt.Errorf("example %d: progressive top-1 %v, full precision %d", i, res.Labels, best)
		}
	}
	return nil
}

func (w *exploreEvaluate) net() *cluster { return nil }
func (w *exploreEvaluate) close()        { w.cl.stop() }

func (w *exploreEvaluate) probes() []probe {
	statements := []string{gridStatement}
	for _, sc := range w.selects {
		statements = append(statements, sc.text)
	}
	dir := func() string { return w.mh.Repo.Root() }
	return []probe{computeProbe(w.def, w.weights, w.examples, w.mh.Engine.Seed),
		perturbProbe(w.def, w.weights, w.examples, w.mh.Engine.Seed), parseProbe(statements), openProbe(dir, w.head)}
}

func (w *exploreEvaluate) cycle(c *cycle) {
	for i := 0; i < 20; i++ {
		sc := w.selects[i%len(w.selects)]
		var got []int64
		ok := c.op("dql_select", func() error {
			return c.layer("dql.select", func() error {
				res, err := w.mh.Query(sc.text)
				if err != nil {
					return err
				}
				for _, v := range res.Versions {
					got = append(got, v.ID)
				}
				return nil
			})
		})
		if ok {
			c.gate(fmt.Sprint(got) == sc.want, "%s returned %v, want %s", sc.text, got, sc.want)
		}
	}
	c.op("evaluate_grid", func() error {
		return c.layer("dql.evaluate", func() error {
			res, err := w.mh.Query(gridStatement)
			if err != nil {
				return err
			}
			if len(res.Candidates) != 8 {
				return fmt.Errorf("evaluate returned %d candidates, want 8", len(res.Candidates))
			}
			for _, cand := range res.Candidates {
				if math.IsNaN(cand.Loss) || math.IsInf(cand.Loss, 0) {
					return fmt.Errorf("candidate lr=%g momentum=%g batch=%d has loss %g",
						cand.Config.BaseLR, cand.Config.Momentum, cand.Config.Batch, cand.Loss)
				}
			}
			return nil
		})
	})
	var progAcc, fullAcc float64
	var hist [5]int
	okP := c.op("progressive_eval", func() error {
		return c.layer("dlv.eval_progressive", func() error {
			res, err := w.mh.Repo.EvalProgressive(w.head, latestSnap, w.examples)
			if err == nil {
				progAcc, hist = res.Accuracy, res.PrefixHistogram
			}
			return err
		})
	})
	okF := c.op("full_eval", func() error {
		return c.layer("dlv.eval", func() error {
			res, err := w.mh.Repo.Eval(w.head, latestSnap, w.examples, 4)
			if err == nil {
				fullAcc = res.Accuracy
			}
			return err
		})
	})
	if okP && okF {
		planes, answered := 0, 0
		for p, n := range hist {
			planes += p * n
			answered += n
		}
		c.gate(answered == heldOut && progAcc == fullAcc,
			"progressive eval answered %d of %d at accuracy %g, full precision %g", answered, heldOut, progAcc, fullAcc)
		w.readShare = float64(planes) / float64(4*heldOut)
	}
}

func (w *exploreEvaluate) counts(m map[string]float64) {
	m["progressive_bytes_read_share"] = w.readShare
}
