package tensor

import "modelhub/internal/obs"

// GEMM dispatch metrics (see DESIGN.md §8). Both counters are registered at
// init and gated by the global obs enable switch, so disabled-path overhead
// is one atomic load per dispatch.
var (
	// mGemmDispatchParallel counts kernel calls that forked row bands onto
	// other goroutines.
	mGemmDispatchParallel = obs.GetCounter("tensor.gemm.dispatch.parallel")
	// mGemmDispatchInline counts kernel calls executed on the caller alone
	// (small products, one worker, or too few rows to split).
	mGemmDispatchInline = obs.GetCounter("tensor.gemm.dispatch.inline")
)
