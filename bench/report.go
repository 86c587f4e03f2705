package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. N is the sample count behind a median;
// Rounds holds the same metric computed on each round alone, which is what
// -compare takes its quartiles and run-to-run spread from.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
	Tail   *tail     `json:"tail,omitempty"`
}

type workloadResult struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// meta says where and on what a result was measured.
type meta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Date       string `json:"date"`
	Seconds    int    `json:"round_seconds"`
}

type result struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

func readMeta(seed int64, seconds int) meta {
	m := meta{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown", Seed: seed, Date: time.Now().UTC().Format(time.RFC3339),
		Seconds: seconds}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(out))
	}
	return m
}

// endToEnd turns the untraced rounds of one workload into its end-to-end
// metrics: pooled over all rounds as the value, per round for the spread.
func endToEnd(rounds []sample, setups []float64) map[string]metric {
	pooled := newSample()
	for _, r := range rounds {
		pooled.merge(r)
	}
	out := map[string]metric{"setup_s": {Value: median(setups), Unit: "s", N: len(setups)}}
	each := func(name, unit string, f func(s sample) float64) {
		m := metric{Value: f(pooled), Unit: unit}
		for _, r := range rounds {
			m.Rounds = append(m.Rounds, f(r))
		}
		out[name] = m
	}
	cycles := func(s sample) float64 { return float64(len(s.cycleMS)) }
	each("cycles_per_s", "1/s", func(s sample) float64 {
		total := 0.0
		for _, ms := range s.cycleMS {
			total += ms
		}
		return cycles(s) / (total / 1e3)
	})
	each("cycle_p50_ms", "ms", func(s sample) float64 { return median(s.cycleMS) })
	each("cpu_ms_per_cycle", "ms", func(s sample) float64 { return s.cpuMS / cycles(s) })
	if pooled.net.wireBytes() > 0 {
		each("wire_bytes_per_cycle", "B", func(s sample) float64 { return float64(s.net.wireBytes()) / cycles(s) })
	}
	for op := range pooled.ops {
		each(op+"_p50_ms", "ms", func(s sample) float64 { return median(s.ops[op]) })
		m := out[op+"_p50_ms"]
		m.N, m.Tail = len(pooled.ops[op]), pickTail(pooled.ops[op])
		out[op+"_p50_ms"] = m
	}
	for name := range pooled.counts {
		if !strings.Contains(name, ".") { // dotted names are per-layer counts
			each(name, "ratio", func(s sample) float64 { return s.counts[name] })
		}
	}
	if raw, ok := out["new_version_raw_bytes"]; ok {
		// The baseline the unified-CAS item is measured against: bytes moved
		// per cycle over the raw bytes of the one version that is new.
		delete(out, "new_version_raw_bytes")
		out["wire_bytes_per_new_raw_byte"] = metric{Value: out["wire_bytes_per_cycle"].Value / raw.Value, Unit: "ratio"}
	}
	share := 0.0
	if pooled.attempted > 0 {
		share = float64(pooled.failed) / float64(pooled.attempted)
	}
	out["failed_share"] = metric{Value: share, Unit: "ratio", N: pooled.attempted}
	return out
}

// perLayer turns the traced round of one workload into per-layer metrics.
func perLayer(s sample, tr *tracer) map[string]metric {
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	busy, self := tr.summary()
	cycles := float64(len(s.cycleMS))
	perCycle := func(v int64) float64 { return float64(v) / cycles }
	probed := func(name string) float64 { return median(s.probes[name]) }

	// Spans: time inside the named public call, and the part of it not
	// covered by the next tier down.
	for _, name := range []string{"hub.client.publish", "hub.client.pull", "hub.gateway.publish", "hub.gateway.pull",
		"hub.server.publish", "hub.server.replicate", "hub.server.pull"} {
		out[name+".busy_ms"] = metric{Value: median(busy[name]), Unit: "ms", N: len(busy[name])}
		set(name+".self_ms", "ms", median(self[name]))
	}
	set("hub.client.publish.wait_ms", "ms", max(0, median(busy["hub.client.publish"])-median(busy["hub.gateway.publish"])))
	for _, name := range []string{"dlv.checkout", "dlv.commit", "dql.select", "dql.evaluate"} {
		out[name+".busy_ms"] = metric{Value: median(busy[name]), Unit: "ms", N: len(busy[name])}
	}
	set("dlv.checkout.self_ms", "ms", max(0, median(busy["dlv.checkout"])-probed("pas.get_snapshot.cold_ms")))
	set("dlv.archive.self_ms", "ms", max(0, median(busy["dlv.archive"])-probed("pas.create.busy_ms")))
	if ms := median(busy["dql.evaluate"]); ms > 0 {
		set("dql.evaluate.candidates_per_s", "1/s", 8/(ms/1e3))
	}

	// Counts at the listeners and handler wrappers, per cycle.
	set("hub.gateway.requests", "1/cycle", perCycle(s.net.gatewayRequests))
	set("hub.gateway.errors", "1/cycle", perCycle(s.net.gatewayErrors))
	set("hub.gateway.rx_bytes", "B/cycle", perCycle(s.net.gatewayRx))
	set("hub.gateway.tx_bytes", "B/cycle", perCycle(s.net.gatewayTx))
	set("hub.server.requests", "1/cycle", perCycle(s.net.serverRequests))
	set("hub.server.errors", "1/cycle", perCycle(s.net.serverErrors))
	set("hub.server.rx_bytes", "B/cycle", perCycle(s.net.serverRx))
	set("hub.server.tx_bytes", "B/cycle", perCycle(s.net.serverTx))
	set("hub.net.conns_per_cycle", "1/cycle", perCycle(s.net.conns))
	set("hub.server.replicas_per_publish", "count", s.counts["hub.server.replicas_per_publish"])

	// Counters the program itself exports, summed over the measured cycles.
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p := s.prog
	checkouts := float64(len(busy["dlv.checkout"]))
	set("hub.client.retries", "count", p["hub.transfer.retries"])
	set("hub.gateway.pull_failovers", "count", p["hub.cluster.gateway.pull.failover"])
	set("hub.server.replicate_failures", "count", p["hub.cluster.replicate.failure"])
	set("pas.plane_cache.hit_share", "ratio", ratio(p["pas.plane_cache.hits"], p["pas.plane_cache.hits"]+p["pas.plane_cache.misses"]))
	set("pas.segment.opens_per_checkout", "count", ratio(p["pas.segment.opens"], checkouts))
	set("pas.chunk.read_bytes_per_checkout", "B", ratio(p["pas.chunk.read_bytes"], checkouts))
	set("pas.segment.dedup_hits", "1/cycle", p["pas.segment.dedup_hits"]/cycles)
	set("tensor.gemm.parallel_share", "ratio", ratio(p["tensor.gemm.dispatch.parallel"], p["tensor.gemm.dispatch.parallel"]+p["tensor.gemm.dispatch.inline"]))
	set("tensor.gemm.chunks_stolen", "1/cycle", p["tensor.gemm.chunks.stolen"]/cycles)
	evaluateNS := 0.0
	for _, ms := range busy["dql.evaluate"] {
		evaluateNS += ms * 1e6
	}
	set("dql.worker.busy_share", "ratio", ratio(p["dql.worker.busy_ns"], evaluateNS*float64(runtime.GOMAXPROCS(0))))
	set("dql.queue.wait_ms", "ms", 1e3*ratio(p["dql.queue.wait_seconds.sum"], p["dql.queue.wait_seconds.count"]))

	// Probes: the layer called directly, median over the probe's repeats.
	for _, pm := range probeMetrics {
		out[pm.name] = metric{Value: probed(pm.name), Unit: pm.unit, N: len(s.probes[pm.name])}
	}

	set("process.cpu_ms_per_cycle", "ms", s.cpuMS/cycles)
	// The heap counters run over the whole round, plain cycles included.
	set("process.alloc_bytes_per_cycle", "B", float64(s.allocs)/(cycles+float64(len(s.plainMS))))
	set("process.gc_pause_ms", "ms", s.gcPauseMS)
	set("process.peak_rss_mb", "MB", peakRSSMB())
	// 1 - traced cycles per second / untraced, each taken as the inverse of
	// the median cycle; the two kinds of cycle alternate within the round.
	set("obs.overhead_share", "ratio", 1-ratio(median(s.plainMS), median(s.cycleMS)))
	return out
}

// probeMetrics are the per-layer metrics that come from probes. A workload
// that does not run a probe reports its metrics as zero.
var probeMetrics = []struct{ name, unit string }{
	{"hub.pack.pack_ms", "ms"}, {"hub.pack.unpack_ms", "ms"}, {"hub.pack.tar_bytes_per_repo_byte", "ratio"},
	{"dlv.open.busy_ms", "ms"}, {"catalog.list.busy_ms", "ms"},
	{"pas.create.busy_ms", "ms"}, {"pas.open.busy_ms", "ms"},
	{"pas.get_snapshot.cold_ms", "ms"}, {"pas.get_snapshot.warm_ms", "ms"},
	{"pas.store.disk_bytes", "B"}, {"pas.store.stored_chunks", "count"},
	{"floatenc.segment.mb_per_s", "MB/s"}, {"floatenc.decode.mb_per_s", "MB/s"},
	{"floatenc.plane.compressed_share.hi", "ratio"}, {"floatenc.plane.compressed_share.lo", "ratio"},
	{"delta.compute.mb_per_s", "MB/s"}, {"delta.footprint_share", "ratio"},
	{"tensor.gemm.gflops", "GFLOP/s"}, {"tensor.gemm.fixture_gflops", "GFLOP/s"},
	{"dnn.train.examples_per_s", "1/s"}, {"dnn.forward.examples_per_s", "1/s"}, {"dnn.train.alloc_bytes_per_step", "B"},
	{"perturb.progressive.ms_per_query", "ms"}, {"perturb.planes_per_query", "count"}, {"perturb.interval_overhead_x", "x"},
	{"dql.parse.us", "us"},
}

// printResult writes every metric by name with its unit.
func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "modelhub bench  seed=%d  %d round(s) x %ds  %s  nproc=%d GOMAXPROCS=%d  %s  commit %s\n",
		res.Meta.Seed, rounds, res.Meta.Seconds, res.Meta.GoVersion, res.Meta.NProc, res.Meta.GOMAXPROCS,
		res.Meta.CPUModel, res.Meta.GitCommit)
	for _, wl := range res.Workloads {
		fmt.Fprintf(w, "\n== %s  (%d checks, %d failed)\n", wl.Name, wl.Attempted, wl.Failed)
		printMetrics(w, wl.EndToEnd)
		if len(wl.PerLayer) > 0 {
			fmt.Fprintf(w, "-- per layer (traced run)\n")
			printMetrics(w, wl.PerLayer)
		}
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "  %-40s %14.6g %-8s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Tail != nil {
			fmt.Fprintf(w, "  tail.%s p%d=%.6g n=%d", strings.Replace(name, "_p50_ms", "_ms", 1), m.Tail.Percentile, m.Tail.Value, m.Tail.N)
		}
		fmt.Fprintln(w)
	}
}
