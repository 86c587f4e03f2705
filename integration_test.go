package modelhub

// Whole-system integration test: the paper's lifecycle (Fig. 1) driven end
// to end at SD scale — automated-modeler repository generation, archival
// under budget, bit-exact retrieval of every snapshot of every version,
// progressive evaluation agreement, DQL over the populated repository, and
// a publish/pull round trip. Skipped under -short.

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"modelhub/internal/data"
	"modelhub/internal/dnn"

	"modelhub/internal/dlv"
	"modelhub/internal/dql"
	"modelhub/internal/floatenc"
	"modelhub/internal/hub"
	"modelhub/internal/pas"
	"modelhub/internal/synth"
	"modelhub/internal/tensor"
)

func TestEndToEndSDWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	root := t.TempDir()
	repo, err := synth.GenerateSD(root, synth.SDConfig{
		Versions: 5, SnapshotsPerVersion: 3, ItersPerSnapshot: 6, TrainExamples: 240, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	versions, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 5 {
		t.Fatalf("versions = %d", len(versions))
	}

	// Remember every snapshot's exact weights before archival, in archive
	// order (version, then snapshot).
	var truth []map[string]*tensor.Matrix
	for _, v := range versions {
		for _, snap := range v.Snapshots {
			w, err := repo.Weights(v.ID, snap, 4)
			if err != nil {
				t.Fatal(err)
			}
			truth = append(truth, w)
		}
	}

	// Archive with budgets: the raw weights end here, and from now on PAS is
	// the only source of truth.
	store, err := repo.Archive(dlv.ArchiveOptions{
		Algorithm: "best", Scheme: pas.Independent, Alpha: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !store.Info().Feasible {
		t.Fatal("α=2 plan must be feasible")
	}
	if store.Info().StorageCost > store.Info().SPTCost {
		t.Fatal("optimized plan must not exceed full materialization")
	}

	// Every snapshot of every version recreates from the archive as the
	// source weights (bit-identical at prefix 4, their byte-plane truncation
	// below), through dlv checkout and under every retrieval scheme.
	snapIDs := store.Snapshots()
	if len(snapIDs) != len(truth) {
		t.Fatalf("archive holds %d snapshots, repository had %d", len(snapIDs), len(truth))
	}
	sameAsSource := func(label string, got, src map[string]*tensor.Matrix, prefix int) {
		t.Helper()
		if len(got) != len(src) {
			t.Fatalf("%s: %d matrices, source has %d", label, len(got), len(src))
		}
		for name, m := range src {
			want := m
			if prefix < floatenc.NumPlanes {
				if want, err = floatenc.Segment(m).Truncated(prefix); err != nil {
					t.Fatal(err)
				}
			}
			if !got[name].Equal(want) {
				t.Fatalf("%s/%s at prefix %d differs from the source", label, name, prefix)
			}
		}
	}
	for prefix := floatenc.NumPlanes; prefix >= 1; prefix-- {
		i := 0
		for _, v := range versions {
			for _, snap := range v.Snapshots {
				w, err := repo.Weights(v.ID, snap, prefix)
				if err != nil {
					t.Fatalf("v%d/%s: %v", v.ID, snap, err)
				}
				sameAsSource(snapIDs[i], w, truth[i], prefix)
				for _, scheme := range []pas.Scheme{pas.Independent, pas.Parallel, pas.Reusable, pas.Concurrent} {
					w, err := store.GetSnapshot(snapIDs[i], prefix, scheme)
					if err != nil {
						t.Fatalf("%s under %v: %v", snapIDs[i], scheme, err)
					}
					sameAsSource(snapIDs[i]+" under "+scheme.String(), w, truth[i], prefix)
				}
				i++
			}
		}
	}

	// Progressive evaluation agrees with full precision on the newest model.
	last := versions[len(versions)-1]
	test := testDigits(60)
	full, err := repo.Eval(last.ID, dlv.LatestSnap, test, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := repo.EvalProgressive(last.ID, dlv.LatestSnap, test)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Accuracy != full.Accuracy {
		t.Fatalf("progressive %v != full %v", prog.Accuracy, full.Accuracy)
	}

	// DQL over the generated repository: lineage-aware select + evaluate.
	eng := dql.NewEngine(repo)
	eng.RegisterDataset("digits", testDigits(200))
	res, err := eng.Run(`select m where m.name like "sd-%" and m["conv[1,2]"].next has POOL("MAX")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) == 0 {
		t.Fatal("DQL select found nothing in the SD repository")
	}

	// Publish / pull round trip preserves the archived repository.
	srv, err := hub.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := hub.NewClientWith(ts.URL, hub.Options{})
	if err := client.Publish(context.Background(), root, "sd-workload"); err != nil {
		t.Fatal(err)
	}
	dest := t.TempDir()
	if err := client.Pull(context.Background(), "sd-workload", dest); err != nil {
		t.Fatal(err)
	}
	pulled, err := dlv.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pulled.Weights(last.ID, dlv.LatestSnap, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots list latest last, so the final truth entry is last/latest.
	sameAsSource("pulled", w, truth[len(truth)-1], 4)
}

// testDigits builds a deterministic labelled digit set for the integration
// flow.
func testDigits(n int) []dnn.Example {
	return data.Digits(rand.New(rand.NewSource(1234)), n, 0.05)
}
