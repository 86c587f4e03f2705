package pas

import "modelhub/internal/obs"

// Retrieval-engine metrics (see DESIGN.md §8 for the catalog). Resolved
// once at package init; every update is gated on obs.Enable, so the
// disabled cost is one atomic load and a branch (BenchmarkObsOverhead).
var (
	// Decoded-plane LRUs of the retrieval engine.
	mPlaneCacheHits      = obs.GetCounter("pas.plane_cache.hits")
	mPlaneCacheMisses    = obs.GetCounter("pas.plane_cache.misses")
	mPlaneCacheEvictions = obs.GetCounter("pas.plane_cache.evictions")
	gPlaneCacheBytes     = obs.GetGauge("pas.plane_cache.bytes")

	// Single-flight deduplication: waves that joined an in-progress
	// (node, prefix) resolution instead of decoding it again.
	mSingleFlightDedup = obs.GetCounter("pas.singleflight.dedup")

	// Chunk I/O: verified zlib plane reads and their compressed sizes.
	mChunkReads     = obs.GetCounter("pas.chunk.reads")
	mChunkReadBytes = obs.GetCounter("pas.chunk.read_bytes")

	// Progressive inference: compressed bytes of stored low-order planes a
	// partial (prefix < 4) retrieval did NOT have to read — the paper's
	// Fig. 8-10 byte savings, observable live.
	mLowOrderBytesAvoided = obs.GetCounter("pas.progressive.low_order_bytes_avoided")

	// Segment storage engine (DESIGN.md §10).
	mSegmentOpens      = obs.GetCounter("pas.segment.opens")
	mSegmentDedupHits  = obs.GetCounter("pas.segment.dedup_hits")
	mSegmentDedupBytes = obs.GetCounter("pas.segment.dedup_bytes_saved")
	gSegmentCount      = obs.GetGauge("pas.segment.count")
	gSegmentDiskBytes  = obs.GetGauge("pas.segment.disk_bytes")

	// Create's pricing step, one count per plane of each candidate delta
	// body: compressed to Huffman-coded blocks, kept as stored blocks (what
	// floatenc.Deflate writes for incompressible input without running the
	// compressor), or shared with an equal plane at the same coder or a
	// same-shape pair's twin. Each distinct (coder, plane) pair is compressed
	// once; the write loop adds none.
	mCreatePlanesDeflated = obs.GetCounter("pas.create.planes_deflated")
	mCreatePlanesStored   = obs.GetCounter("pas.create.planes_stored")
	mCreatePlanesShared   = obs.GetCounter("pas.create.planes_shared")

	// Snapshot retrievals per scheme, and their latency.
	mRetrievalSeconds = obs.GetHistogram("pas.retrieval.seconds")
	mRetrievalScheme  = [...]*obs.Counter{
		Independent: obs.GetCounter("pas.retrieval.snapshots.independent"),
		Parallel:    obs.GetCounter("pas.retrieval.snapshots.parallel"),
		Reusable:    obs.GetCounter("pas.retrieval.snapshots.reusable"),
		Concurrent:  obs.GetCounter("pas.retrieval.snapshots.concurrent"),
	}
)

// countRetrieval records one snapshot-level retrieval under a scheme.
func countRetrieval(scheme Scheme) {
	if int(scheme) >= 0 && int(scheme) < len(mRetrievalScheme) {
		mRetrievalScheme[scheme].Inc()
	}
}

// countAvoidedPlanes credits the compressed bytes of stored planes that a
// prefix-limited read skipped.
func countAvoidedPlanes(n *manifestNode, prefix int) {
	if !obs.Enabled() {
		return
	}
	start, end := nodePlanes(n)
	var avoided int64
	for p := start; p < end; p++ {
		if p >= prefix {
			avoided += int64(n.PlaneBytes[p])
		}
	}
	if avoided > 0 {
		mLowOrderBytesAvoided.Add(avoided)
	}
}
