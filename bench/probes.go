package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// probe calls one layer's public functions directly, on the workload's own
// fixture, between cycles of the traced run. It appends what it measured to
// out under per-layer metric names.
type probe struct {
	name string
	run  func(out map[string][]float64) error
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func add(out map[string][]float64, name string, v float64) { out[name] = append(out[name], v) }

// mbPerS is a throughput over float32 payload bytes.
func mbPerS(bytes int64, ms float64) float64 { return float64(bytes) / 1e6 / (ms / 1e3) }

// probeDir names a fresh directory for the n-th run of a probe that writes.
// Like the workloads' scratchDir it stays until the root goes at exit.
func probeDir(root, probe string, n int) string {
	return filepath.Join(root, fmt.Sprintf("probe-%s-%05d", probe, n))
}

// packProbe: tar+gzip of the repository a workload publishes, and the
// unpack a pull performs, without any HTTP around them.
func packProbe(repoRoot func() string, root string) probe {
	var buf bytes.Buffer
	runs := 0
	return probe{"hub.pack", func(out map[string][]float64) error {
		runs++
		buf.Reset()
		t := time.Now()
		if err := packRepo(repoRoot(), &buf); err != nil {
			return err
		}
		add(out, "hub.pack.pack_ms", msSince(t))
		add(out, "hub.pack.tar_bytes_per_repo_byte", float64(buf.Len())/float64(repoBytes(repoRoot())))
		dir := probeDir(root, "unpack", runs)
		t = time.Now()
		if err := unpackRepo(bytes.NewReader(buf.Bytes()), dir); err != nil {
			return err
		}
		add(out, "hub.pack.unpack_ms", msSince(t))
		return nil
	}}
}

// openProbe: opening a repository (the tail of every pull) and the catalog
// reads behind a listing.
func openProbe(repoRoot func() string, version int64) probe {
	return probe{"dlv.open", func(out map[string][]float64) error {
		t := time.Now()
		mh, err := openRepo(repoRoot())
		if err != nil {
			return err
		}
		add(out, "dlv.open.busy_ms", msSince(t))
		t = time.Now()
		if _, err := mh.Repo.List(); err != nil {
			return err
		}
		if _, err := mh.Repo.Version(version); err != nil {
			return err
		}
		add(out, "catalog.list.busy_ms", msSince(t))
		return nil
	}}
}

// pasProbe: the archive write and read paths on the fixture's own snapshots
// with no dlv around them. Snapshots are adjacent in lineage order, so PAS's
// default candidate pairs are the ones dlv archive hands it.
func pasProbe(l *lineage, root string) probe {
	runs := 0
	return probe{"pas", func(out map[string][]float64) error {
		runs++
		dir := probeDir(root, "pas", runs)
		snaps := make([]SnapshotIn, len(l.snaps))
		for i, ref := range l.snaps {
			snaps[i] = SnapshotIn{ID: ref.pasID(), Matrices: l.truth[ref]}
		}
		t := time.Now()
		st, err := pasCreate(dir, snaps)
		if err != nil {
			return err
		}
		add(out, "pas.create.busy_ms", msSince(t))
		add(out, "pas.store.disk_bytes", float64(diskBytes(dir)))
		add(out, "pas.store.stored_chunks", float64(st.StoredChunks()))
		if err := st.Close(); err != nil {
			return err
		}
		t = time.Now()
		if st, err = pasOpen(dir); err != nil {
			return err
		}
		defer st.Close()
		add(out, "pas.open.busy_ms", msSince(t))
		ctx := context.Background()
		for _, pass := range []string{"pas.get_snapshot.cold_ms", "pas.get_snapshot.warm_ms"} {
			for _, id := range l.latest {
				ref := snapRef{id, latestSnap}
				t = time.Now()
				got, err := pasGetSnapshot(ctx, st, ref.pasID(), 4)
				if err != nil {
					return err
				}
				add(out, pass, msSince(t))
				if diff := bitIdentical(got, l.truth[ref]); diff != "" {
					return fmt.Errorf("%s differs from what was archived: %s", ref.pasID(), diff)
				}
			}
		}
		return nil
	}}
}

// encodingProbe: byte-plane segmentation and delta encoding on the matrices
// of the two newest versions.
func encodingProbe(l *lineage) probe {
	n := len(l.latest)
	base, target := l.truth[snapRef{l.latest[n-2], latestSnap}], l.truth[snapRef{l.latest[n-1], latestSnap}]
	return probe{"floatenc+delta", func(out map[string][]float64) error {
		var segMS, decMS, deltaMS float64
		var planeBytes, packed [2]int // planes 0-1, planes 2-3
		var deltaZ, plainZ int
		for _, name := range layerNames(target) {
			m := target[name]
			t := time.Now()
			seg := segmentMatrix(m)
			segMS += msSince(t)
			t = time.Now()
			if _, err := seg.Reconstruct(); err != nil {
				return err
			}
			decMS += msSince(t)
			for p, plane := range seg.Planes {
				z, err := compressedSize(plane)
				if err != nil {
					return err
				}
				planeBytes[p/2] += len(plane)
				packed[p/2] += z
			}
			t = time.Now()
			if err := deltaCompute(base[name], m); err != nil {
				return err
			}
			deltaMS += msSince(t)
			df, err := deltaFootprint(base[name], m)
			if err != nil {
				return err
			}
			mf, err := measureMatrix(m)
			if err != nil {
				return err
			}
			deltaZ += df.CompressedBytes
			plainZ += mf.CompressedBytes
		}
		raw := weightBytes(target)
		add(out, "floatenc.segment.mb_per_s", mbPerS(raw, segMS))
		add(out, "floatenc.decode.mb_per_s", mbPerS(raw, decMS))
		add(out, "floatenc.plane.compressed_share.hi", float64(packed[0])/float64(planeBytes[0]))
		add(out, "floatenc.plane.compressed_share.lo", float64(packed[1])/float64(planeBytes[1]))
		add(out, "delta.compute.mb_per_s", mbPerS(raw, deltaMS))
		add(out, "delta.footprint_share", float64(deltaZ)/float64(plainZ))
		return nil
	}}
}

// computeProbe: GEMM, training and inference on the architecture the
// workload evaluates, with no repository or DQL engine involved.
func computeProbe(def *NetDef, weights Weights, examples []Example, seed int64) probe {
	rows, cols := 0, 0
	for _, m := range weights {
		if m.Len() > rows*cols {
			rows, cols = m.Rows(), m.Cols()
		}
	}
	gflops := func(m, k, n int) (float64, error) {
		a, b, dst := randMatrix(seed, m, k), randMatrix(seed+1, k, n), newMatrix(m, n)
		const reps = 5
		t := time.Now()
		for i := 0; i < reps; i++ {
			if err := gemm(dst, a, b); err != nil {
				return 0, err
			}
		}
		return 2 * float64(m) * float64(k) * float64(n) * reps / (msSince(t) / 1e3) / 1e9, nil
	}
	return probe{"tensor+dnn", func(out map[string][]float64) error {
		g, err := gflops(192, 192, 192)
		if err != nil {
			return err
		}
		add(out, "tensor.gemm.gflops", g)
		// The largest layer as the fully-connected forward pass multiplies
		// it: weights times a minibatch of 16 activations.
		if g, err = gflops(rows, cols, 16); err != nil {
			return err
		}
		add(out, "tensor.gemm.fixture_gflops", g)

		net, err := buildNet(def, seed)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		if err := trainNet(net, examples, seed); err != nil {
			return err
		}
		ms := msSince(t)
		runtime.ReadMemStats(&m1)
		steps := (len(examples) + 15) / 16
		add(out, "dnn.train.examples_per_s", float64(len(examples))/(ms/1e3))
		add(out, "dnn.train.alloc_bytes_per_step", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(steps))
		if err := net.Restore(weights); err != nil {
			return err
		}
		t = time.Now()
		evaluateNet(net, examples)
		add(out, "dnn.forward.examples_per_s", float64(len(examples))/(msSince(t)/1e3))
		return nil
	}}
}

// perturbProbe: progressive evaluation over in-memory byte planes, so no
// storage is read, and the cost of an interval forward pass against a plain one.
func perturbProbe(def *NetDef, weights Weights, examples []Example, seed int64) probe {
	return probe{"perturb", func(out map[string][]float64) error {
		ev, err := newEvaluator(def)
		if err != nil {
			return err
		}
		src := segmentedSrc(weights)
		planes := 0
		t := time.Now()
		for _, ex := range examples {
			res, err := progressive(ev, src, ex.Input, 1, 1)
			if err != nil {
				return err
			}
			planes += res.PrefixUsed
		}
		add(out, "perturb.progressive.ms_per_query", msSince(t)/float64(len(examples)))
		add(out, "perturb.planes_per_query", float64(planes)/float64(len(examples)))

		bounds := exactWeights(weights)
		bounds.Lo, bounds.Hi = Weights{}, Weights{}
		for name := range weights {
			if bounds.Lo[name], bounds.Hi[name], err = src.WeightIntervals(name, 2); err != nil {
				return err
			}
		}
		t = time.Now()
		for _, ex := range examples {
			if _, _, err := ev.Forward(ex.Input, bounds); err != nil {
				return err
			}
		}
		interval := msSince(t)
		net, err := buildNet(def, seed)
		if err != nil {
			return err
		}
		if err := net.Restore(weights); err != nil {
			return err
		}
		t = time.Now()
		for _, ex := range examples {
			net.Forward(ex.Input)
		}
		add(out, "perturb.interval_overhead_x", interval/msSince(t))
		return nil
	}}
}

// parseProbe: the DQL front end alone.
func parseProbe(statements []string) probe {
	return probe{"dql.parse", func(out map[string][]float64) error {
		t := time.Now()
		for _, s := range statements {
			if err := parseDQL(s); err != nil {
				return err
			}
		}
		add(out, "dql.parse.us", msSince(t)*1e3/float64(len(statements)))
		return nil
	}}
}

// progCounters flattens the program's own obs registry into numbers:
// counters and gauges by name, histograms as <name>.sum and <name>.count.
// A name that is absent simply reads as zero downstream.
func progCounters() map[string]float64 {
	out := map[string]float64{}
	blob, err := obsSnapshotJSON()
	if err != nil {
		return out
	}
	var raw map[string]any
	if json.Unmarshal(blob, &raw) != nil {
		return out
	}
	for name, v := range raw {
		switch v := v.(type) {
		case float64:
			out[name] = v
		case map[string]any:
			for _, field := range []string{"sum", "count"} {
				if x, ok := v[field].(float64); ok {
					out[name+"."+field] = x
				}
			}
		}
	}
	return out
}
