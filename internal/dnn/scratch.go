package dnn

import "sync"

// Scratch arena: the training hot path (im2col unrolls, layer activations,
// gradient volumes) used to allocate fresh buffers every example, and
// concurrent DQL enumeration sessions multiplied that churn into GC pressure.
// Layers and networks now hold persistent per-instance scratch buffers whose
// backing storage comes from a shared sync.Pool of power-of-two float arenas,
// and Network.ReleaseScratch returns a network's scratch to the shared pool
// when a worker retires it (e.g. a DQL candidate network after its grid cell
// finishes). Since a Network is single-goroutine by contract, per-instance
// buffers are per-worker scratch; the sync.Pool only mediates handoff between
// workers, so it sees no hot-path traffic.
//
// Determinism: pooling changes where bytes live, never what is computed —
// buffers that are scatter-add targets are zeroed on reuse, and every other
// kernel writes each output element.

// Size-class pools: class i holds []float32 slices of capacity exactly
// 1<<(scratchMinBits+i). Requests round up to the next class; requests
// beyond the largest class fall through to plain make and are dropped on
// release rather than pooled.
const (
	scratchMinBits = 6  // 64 floats (256 B) — smaller requests round up here
	scratchMaxBits = 22 // 4M floats (16 MB) — largest pooled arena
)

var scratchClasses [scratchMaxBits - scratchMinBits + 1]sync.Pool

// scratchClass returns the pool index whose capacity fits n, or -1 if n
// exceeds the largest class.
func scratchClass(n int) int {
	size := 1 << scratchMinBits
	for i := range scratchClasses {
		if n <= size {
			return i
		}
		size <<= 1
	}
	return -1
}

// getFloats returns a length-n float32 slice, zeroed, backed by a pooled
// power-of-two arena when one fits.
func getFloats(n int) []float32 {
	cls := scratchClass(n)
	if cls < 0 {
		return make([]float32, n)
	}
	if v := scratchClasses[cls].Get(); v != nil {
		s := (*(v.(*[]float32)))[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float32, n, 1<<(scratchMinBits+cls))
}

// putFloats returns a slice to its size-class pool. Slices whose capacity is
// not exactly a pooled class size (oversized requests getFloats served with
// plain make) are dropped for the GC — the pool never holds odd-sized arenas.
func putFloats(s []float32) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := scratchClass(c)
	if cls < 0 || 1<<(scratchMinBits+cls) != c {
		return
	}
	full := s[:c]
	scratchClasses[cls].Put(&full)
}

// scratchFloats returns a length-n buffer for a layer- or network-owned
// slot. The slot's arena is reused while it is large enough and re-acquired
// from the shared pool when it is not; zero=true clears it first — required
// for scatter-add targets, skipped for kernels that write every element.
func scratchFloats(slot *[]float32, n int, zero bool) []float32 {
	s := *slot
	if cap(s) < n {
		putFloats(s)
		*slot = getFloats(n) // zeroed
		return *slot
	}
	s = s[:n]
	*slot = s
	if zero {
		clear(s)
	}
	return s
}

// releaseFloats returns a slot's arena to the shared pool and clears it.
func releaseFloats(slot *[]float32) {
	putFloats(*slot)
	*slot = nil
}
