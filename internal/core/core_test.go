package core

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"modelhub/internal/dlv"
	"modelhub/internal/dql"
	"modelhub/internal/hub"
)

func TestEndToEndLifecycle(t *testing.T) {
	// Init -> train/commit -> query -> fine-tune -> archive -> eval:
	// the full Fig. 1 loop through the facade.
	mh, err := Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id1, err := mh.TrainAndCommit("lenet-base", TrainOptions{
		Epochs: 1, CheckpointEvery: 8, Seed: 1, Msg: "baseline",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fine-tune from the base.
	id2, err := mh.TrainAndCommit("lenet-ft", TrainOptions{
		Epochs: 1, LR: 0.01, Seed: 2, ParentID: id1, Msg: "fine-tuned",
	})
	if err != nil {
		t.Fatal(err)
	}
	// DQL over the repository.
	res, err := mh.Query(`select m where m.name like "lenet%"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 2 {
		t.Fatalf("query found %d versions", len(res.Versions))
	}
	// The minibatch size is fixed and recorded with the version.
	v1, err := mh.Repo.Version(id1)
	if err != nil {
		t.Fatal(err)
	}
	if got := v1.Hyper["batch"]; got != "16" {
		t.Fatalf("batch hyperparameter = %q, want 16", got)
	}
	// Lineage is recorded.
	lineage, err := mh.Repo.Lineage(id2)
	if err != nil || len(lineage) != 1 || lineage[0] != id1 {
		t.Fatalf("lineage = %v, %v", lineage, err)
	}
	// Archive and evaluate from the archive, progressively.
	if err := mh.Archive(dlv.ArchiveOptions{Algorithm: "pas-mt", Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	test := TestSet(40, 3)
	full, err := mh.Repo.Eval(id2, dlv.LatestSnap, test, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mh.Repo.EvalProgressive(id2, dlv.LatestSnap, test)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Accuracy != full.Accuracy {
		t.Fatalf("progressive %v != full %v", prog.Accuracy, full.Accuracy)
	}
	if full.Accuracy < 0.5 {
		t.Fatalf("trained model accuracy suspiciously low: %v", full.Accuracy)
	}
}

func TestArchUnknown(t *testing.T) {
	if _, err := Arch("resnet-9000"); err == nil {
		t.Fatal("unknown arch must error")
	}
	for _, name := range []string{"lenet", "alexnet-mini", "vgg-mini", "resnet-mini", "resnet-skip"} {
		if _, err := Arch(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPublishSearchPullViaFacade(t *testing.T) {
	srv, err := hub.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	mh, err := Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mh.TrainAndCommit("shared-model", TrainOptions{Epochs: 1, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if err := mh.PublishWith(ctx, ts.URL, "myrepo", hub.Options{}); err != nil {
		t.Fatal(err)
	}
	found, err := SearchWith(ctx, ts.URL, "shared", hub.Options{})
	if err != nil || len(found) != 1 {
		t.Fatalf("search = %v, %v", found, err)
	}
	pulled, err := PullWith(ctx, ts.URL, "myrepo", t.TempDir(), hub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := pulled.Repo.VersionByName("shared-model")
	if err != nil {
		t.Fatal(err)
	}
	if v.Accuracy <= 0 {
		t.Fatalf("pulled version = %+v", v)
	}
}

// Each *With call owns its hub client and transport for one operation; none
// may leave a keep-alive connection behind on the server once it returned.
func TestHubOperationsLeaveNoOpenConnections(t *testing.T) {
	srv, err := hub.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var open atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	ts.Start()
	defer ts.Close()
	ctx := context.Background()

	mh, err := Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mh.TrainAndCommit("m", TrainOptions{Epochs: 1, Examples: 60}); err != nil {
		t.Fatal(err)
	}
	if err := mh.PublishWith(ctx, ts.URL, "r", hub.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := PullWith(ctx, ts.URL, "r", t.TempDir(), hub.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// The server notices a closed connection on its own goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for open.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := open.Load(); n != 0 {
		t.Fatalf("%d connections still open on the server after 1 publish + 20 pulls returned", n)
	}
}

func TestOpenNonRepo(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("open of non-repo must fail")
	}
}

// TestHandlesShareDigitsConcurrently runs one evaluate grid on two handles
// of one repository at once: they share the process's digits dataset, and
// each must get what a handle alone gets. Under -race it also checks that
// sharing the examples is read-only.
func TestHandlesShareDigitsConcurrently(t *testing.T) {
	dir := t.TempDir()
	mh, err := Init(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mh.TrainAndCommit("lenet_v1", TrainOptions{Epochs: 1, Examples: 64, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	const grid = `evaluate m from (select m1 where m1.name = "lenet_v1")
		vary config.base_lr in [0.1, 0.01]
		keep top(2, m["loss"], 4)`
	want, err := mh.Query(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Candidates) != 2 {
		t.Fatalf("alone: %d candidates, want 2", len(want.Candidates))
	}
	var got [2][]dql.Candidate
	errs := make(chan error, len(got))
	for i := range got {
		h, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			res, err := h.Query(grid)
			if err == nil {
				got[i] = res.Candidates
			}
			errs <- err
		}()
	}
	for range got {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, cands := range got {
		if len(cands) != len(want.Candidates) {
			t.Fatalf("handle %d: %d candidates, alone %d", i, len(cands), len(want.Candidates))
		}
		for j, c := range cands {
			w := want.Candidates[j]
			if c.Loss != w.Loss || c.Acc != w.Acc || c.Config.BaseLR != w.Config.BaseLR {
				t.Fatalf("handle %d candidate %d: loss %v acc %v lr %v, alone loss %v acc %v lr %v",
					i, j, c.Loss, c.Acc, c.Config.BaseLR, w.Loss, w.Acc, w.Config.BaseLR)
			}
		}
	}
	if &digits()[0] != &digits()[0] {
		t.Fatal("digits is rebuilt on each call")
	}
}
