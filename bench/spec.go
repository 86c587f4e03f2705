package main

// metricSpec fixes a metric's unit, which direction is better, and for
// end-to-end metrics the share of the old median by which it may get worse
// before it counts as a regression.
type metricSpec struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

// endToEndSpec is the one table of end-to-end metrics and bounds: -compare
// applies it to two full runs, and the rows driverEndToEnd names are, value
// for value, BENCHMARK.json's end_to_end list (bench_test.go holds the two
// together). Not every metric exists on every workload; README.md has the
// table. failed_share has no tolerance: any increase is a regression.
//
// The metrics every workload has carry 0.25 because BENCHMARK.json's driver
// judges them on single rounds run back to back, each with another seed,
// where the sandbox's quartile spread reaches 0.14 and its level drifts by
// more between quarters of an hour; see README.md, "Steadiness on the
// sandbox".
var endToEndSpec = []metricSpec{
	{"setup_s", "s", false, 0.25},
	{"cycles_per_s", "1/s", true, 0.25},
	{"cycle_p50_ms", "ms", false, 0.25},
	{"cpu_ms_per_cycle", "ms", false, 0.25},
	{"failed_share", "ratio", false, 0},
	{"publish_p50_ms", "ms", false, 0.10},
	{"pull_checkout_p50_ms", "ms", false, 0.10},
	{"wire_bytes_per_cycle", "B", false, 0.01},
	{"hub_disk_bytes_per_repo_byte", "ratio", false, 0.01},
	{"archive_p50_ms", "ms", false, 0.10},
	{"checkout_cold_p50_ms", "ms", false, 0.10},
	{"checkout_warm_p50_ms", "ms", false, 0.10},
	{"stored_bytes_per_raw_byte", "ratio", false, 0.01},
	{"dql_select_p50_ms", "ms", false, 0.10},
	{"evaluate_grid_p50_ms", "ms", false, 0.10},
	{"progressive_eval_p50_ms", "ms", false, 0.10},
	{"progressive_bytes_read_share", "ratio", false, 0.01},
}

// driverEndToEnd are the end-to-end metrics every workload has in its timed
// window. BENCHMARK.json's driver wants each end_to_end metric reported, and
// never zero, on all four workloads, so these are the only ones it can gate:
// it cannot gate wire_bytes_per_cycle, stored_bytes_per_raw_byte or any
// other metric that only some workloads have. Those are printed by the traced
// driver run (perLayerSpec) and gated by -compare.
var driverEndToEnd = []string{"setup_s", "cycles_per_s", "cycle_p50_ms", "cpu_ms_per_cycle"}

// perLayerSpec lists what the traced driver run reports, in the order
// README.md walks the layers. The first block is the end-to-end metrics that
// only some workloads have; a workload without one reports it as zero.
var perLayerSpec = []metricSpec{
	{name: "publish_p50_ms", unit: "ms"},
	{name: "pull_checkout_p50_ms", unit: "ms"},
	{name: "wire_bytes_per_cycle", unit: "B"},
	{name: "wire_bytes_per_new_raw_byte", unit: "ratio"},
	{name: "hub_disk_bytes_per_repo_byte", unit: "ratio"},
	{name: "archive_p50_ms", unit: "ms"},
	{name: "checkout_cold_p50_ms", unit: "ms"},
	{name: "checkout_warm_p50_ms", unit: "ms"},
	{name: "stored_bytes_per_raw_byte", unit: "ratio"},
	{name: "dql_select_p50_ms", unit: "ms"},
	{name: "evaluate_grid_p50_ms", unit: "ms"},
	{name: "progressive_eval_p50_ms", unit: "ms"},
	{name: "progressive_bytes_read_share", unit: "ratio"},

	{name: "hub.client.publish.busy_ms", unit: "ms"},
	{name: "hub.client.publish.self_ms", unit: "ms"},
	{name: "hub.client.publish.wait_ms", unit: "ms"},
	{name: "hub.client.pull.busy_ms", unit: "ms"},
	{name: "hub.client.pull.self_ms", unit: "ms"},
	{name: "hub.client.retries", unit: "count"},
	{name: "hub.pack.pack_ms", unit: "ms"},
	{name: "hub.pack.unpack_ms", unit: "ms"},
	{name: "hub.pack.tar_bytes_per_repo_byte", unit: "ratio"},
	{name: "hub.gateway.publish.busy_ms", unit: "ms"},
	{name: "hub.gateway.publish.self_ms", unit: "ms"},
	{name: "hub.gateway.pull.busy_ms", unit: "ms"},
	{name: "hub.gateway.pull.self_ms", unit: "ms"},
	{name: "hub.gateway.requests", unit: "1/cycle"},
	{name: "hub.gateway.errors", unit: "1/cycle"},
	{name: "hub.gateway.rx_bytes", unit: "B/cycle"},
	{name: "hub.gateway.tx_bytes", unit: "B/cycle"},
	{name: "hub.gateway.pull_failovers", unit: "count"},
	{name: "hub.server.publish.busy_ms", unit: "ms"},
	{name: "hub.server.publish.self_ms", unit: "ms"},
	{name: "hub.server.replicate.busy_ms", unit: "ms"},
	{name: "hub.server.replicate.self_ms", unit: "ms"},
	{name: "hub.server.pull.busy_ms", unit: "ms"},
	{name: "hub.server.pull.self_ms", unit: "ms"},
	{name: "hub.server.requests", unit: "1/cycle"},
	{name: "hub.server.errors", unit: "1/cycle"},
	{name: "hub.server.rx_bytes", unit: "B/cycle"},
	{name: "hub.server.tx_bytes", unit: "B/cycle"},
	{name: "hub.server.replicas_per_publish", unit: "count", higher: true},
	{name: "hub.server.replicate_failures", unit: "count"},
	{name: "hub.net.conns_per_cycle", unit: "1/cycle"},

	{name: "dlv.open.busy_ms", unit: "ms"},
	{name: "dlv.checkout.busy_ms", unit: "ms"},
	{name: "dlv.checkout.self_ms", unit: "ms"},
	{name: "dlv.commit.busy_ms", unit: "ms"},
	{name: "dlv.archive.self_ms", unit: "ms"},
	{name: "catalog.list.busy_ms", unit: "ms"},

	{name: "pas.create.busy_ms", unit: "ms"},
	{name: "pas.open.busy_ms", unit: "ms"},
	{name: "pas.get_snapshot.cold_ms", unit: "ms"},
	{name: "pas.get_snapshot.warm_ms", unit: "ms"},
	{name: "pas.store.disk_bytes", unit: "B"},
	{name: "pas.store.stored_chunks", unit: "count"},
	{name: "pas.plane_cache.hit_share", unit: "ratio", higher: true},
	{name: "pas.segment.opens_per_checkout", unit: "count"},
	{name: "pas.chunk.read_bytes_per_checkout", unit: "B"},
	{name: "pas.segment.dedup_hits", unit: "1/cycle", higher: true},

	{name: "floatenc.segment.mb_per_s", unit: "MB/s", higher: true},
	{name: "floatenc.decode.mb_per_s", unit: "MB/s", higher: true},
	{name: "floatenc.plane.compressed_share.hi", unit: "ratio"},
	{name: "floatenc.plane.compressed_share.lo", unit: "ratio"},
	{name: "delta.compute.mb_per_s", unit: "MB/s", higher: true},
	{name: "delta.footprint_share", unit: "ratio"},

	{name: "tensor.gemm.gflops", unit: "GFLOP/s", higher: true},
	{name: "tensor.gemm.fixture_gflops", unit: "GFLOP/s", higher: true},
	{name: "tensor.gemm.parallel_share", unit: "ratio", higher: true},
	{name: "tensor.gemm.chunks_stolen", unit: "1/cycle"},
	{name: "dnn.train.examples_per_s", unit: "1/s", higher: true},
	{name: "dnn.forward.examples_per_s", unit: "1/s", higher: true},
	{name: "dnn.train.alloc_bytes_per_step", unit: "B"},
	{name: "perturb.progressive.ms_per_query", unit: "ms"},
	{name: "perturb.planes_per_query", unit: "count"},
	{name: "perturb.interval_overhead_x", unit: "x"},

	{name: "dql.parse.us", unit: "us"},
	{name: "dql.select.busy_ms", unit: "ms"},
	{name: "dql.evaluate.busy_ms", unit: "ms"},
	{name: "dql.evaluate.candidates_per_s", unit: "1/s", higher: true},
	{name: "dql.worker.busy_share", unit: "ratio", higher: true},
	{name: "dql.queue.wait_ms", unit: "ms"},

	{name: "obs.overhead_share", unit: "ratio"},
	{name: "process.cpu_ms_per_cycle", unit: "ms"},
	{name: "process.alloc_bytes_per_cycle", unit: "B"},
	{name: "process.gc_pause_ms", unit: "ms"},
	{name: "process.peak_rss_mb", unit: "MB"},
}

// driverPerLayer is perLayerSpec by name.
var driverPerLayer = func() []string {
	names := make([]string, len(perLayerSpec))
	for i, m := range perLayerSpec {
		names[i] = m.name
	}
	return names
}()

// unitOf gives the unit of a metric a workload did not produce a value for.
func unitOf(name string) string {
	for _, specs := range [][]metricSpec{endToEndSpec, perLayerSpec} {
		for _, m := range specs {
			if m.name == name {
				return m.unit
			}
		}
	}
	return "ratio"
}
