package pas

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"modelhub/internal/floatenc"
	"modelhub/internal/par"
	"modelhub/internal/tensor"
)

// Retrieval engine. A snapshot's delta chains form a DAG of node-resolution
// tasks — each node depends only on its parent — and every retrieval, at any
// scheme, runs through the same three steps: one task per matrix on a
// par.For of the engine's width, an iterative root-ward chain walk per part
// node, and a read + verify + inflate + XOR per chain step. Two parameters
// vary:
//
//   - workers: the width of that par.For, and whether the up-to-four zlib
//     planes of one chunk inflate concurrently;
//   - the plane cache a chain step consults: none, one that lives for a
//     single call, or the store's. A cache is a byte-bounded LRU of resolved
//     planes keyed by (node, prefix) plus single-flight deduplication — the
//     first goroutine to reach a (node, prefix) becomes its leader and
//     decodes it, every other goroutine blocks on the leader's result, so
//     each distinct chain edge is decoded once per retrieval wave.
//
// The paper's retrieval schemes (Table III) are cost models the planner
// budgets against; engineFor maps each to the parameter pair that executes
// it. The store's cache persists across GetSnapshot / GetMatrix /
// GetIntervals calls, so checkout and progressive-evaluation workloads that
// revisit nearby snapshots skip whole chain prefixes.
//
// The engine cannot deadlock. Each worker pulls a matrix index and resolves
// it to the end before it pulls another, walking a chain root first, so at
// any moment it either leads one flight or waits on one, never both: a
// goroutine that waits leads no flight. A leader never waits: it decodes
// from parent planes it already holds, and its inflates need no worker
// slot of the retrieval's pool. So every flight waited on is being decoded
// by a goroutine that will close it; and waiters block only on strict
// ancestors in the plan tree (chains are cycle-checked by chainOf).

// DefaultPlaneCacheBytes bounds the decoded-plane LRU of a freshly opened
// store. Each entry holds up to prefix × rows × cols bytes.
const DefaultPlaneCacheBytes = 256 << 20

// engine is the parameter pair one retrieval runs under.
type engine struct {
	workers int
	cache   *planeCache // nil: every chain step is decoded where it is needed
}

// engineFor is the scheme table: independent = 1 worker / no reuse,
// parallel = N / no reuse, reusable = 1 / reuse within the call,
// concurrent = N / the store's cache.
func (s *Store) engineFor(scheme Scheme) engine {
	switch scheme {
	case Parallel:
		return engine{workers: s.workers}
	case Reusable:
		c := &planeCache{}
		c.lru.limit = s.planes.lru.limit
		return engine{workers: 1, cache: c}
	case Concurrent:
		return engine{workers: s.workers, cache: &s.planes}
	default:
		return engine{workers: 1}
	}
}

// planeKey identifies the decoded byte planes of one node resolved at one
// prefix. Caching planes by node id alone is wrong: a retrieval at prefix 2
// produces zero-filled planes 2-3, which must never satisfy a later lookup
// at prefix 4.
type planeKey struct {
	id     int
	prefix int
}

// flight is one in-progress (node, prefix) resolution; waiters block on done.
type flight struct {
	done   chan struct{}
	planes *[4][]byte
	err    error
}

// planeCache is one scope of plane reuse: resolved planes, and the
// resolutions in flight.
type planeCache struct {
	lru planeLRU

	fmu     sync.Mutex
	flights map[planeKey]*flight
}

// planeLRU is a byte-bounded LRU of decoded plane sets keyed by
// (node, prefix). Entries are shared read-only: resolvers XOR parents into
// freshly allocated child planes, never into cached ones. A limit of 0
// caches nothing.
type planeLRU struct {
	mu    sync.Mutex
	limit int64
	size  int64
	ll    list.List // front = most recently used; values are *lruEntry
	items map[planeKey]*list.Element
}

type lruEntry struct {
	key    planeKey
	planes *[4][]byte
	bytes  int64
}

func (c *planeLRU) get(k planeKey) (*[4][]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		mPlaneCacheMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	mPlaneCacheHits.Inc()
	return el.Value.(*lruEntry).planes, true
}

func (c *planeLRU) add(k planeKey, planes *[4][]byte) {
	var bytes int64
	for _, p := range planes {
		bytes += int64(len(p))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit <= 0 || bytes > c.limit {
		return
	}
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return
	}
	if c.items == nil {
		c.items = make(map[planeKey]*list.Element)
	}
	c.items[k] = c.ll.PushFront(&lruEntry{key: k, planes: planes, bytes: bytes})
	c.size += bytes
	for c.size > c.limit {
		el := c.ll.Back()
		ent := el.Value.(*lruEntry)
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.size -= ent.bytes
		mPlaneCacheEvictions.Inc()
	}
	gPlaneCacheBytes.Set(c.size)
}

// readPlane loads, verifies and inflates one stored byte plane of a node.
func (s *Store) readPlane(n *manifestNode, p int) ([]byte, error) {
	z, err := s.seg.read(n.PlaneSum[p])
	if err != nil {
		return nil, fmt.Errorf("%w: reading chunk for node %d plane %d: %v", ErrStore, n.ID, p, err)
	}
	sum := sha256.Sum256(z)
	if hex.EncodeToString(sum[:]) != n.PlaneSum[p] {
		return nil, fmt.Errorf("%w: chunk checksum mismatch for node %d plane %d", ErrStore, n.ID, p)
	}
	// The stored payload is untrusted: the declared plane size is allocated
	// only if the payload could inflate to it, and it inflates into that
	// size and not a byte further.
	size := n.Rows * n.Cols
	if size/maxInflateRatio > len(z) {
		return nil, fmt.Errorf("%w: node %d plane %d: %d payload bytes cannot inflate to %d", ErrStore, n.ID, p, len(z), size)
	}
	raw, err := floatenc.Inflate(z, size)
	if err != nil {
		return nil, fmt.Errorf("%w: node %d plane %d: %v", ErrStore, n.ID, p, err)
	}
	mChunkReads.Inc()
	mChunkReadBytes.Add(int64(len(z)))
	return raw, nil
}

// readPlanes loads and verifies the byte planes of a node's chunk that fall
// inside both the node's stored range and the first `prefix` planes, then
// zero-fills the rest, sized by a shape a read payload has vouched for. With
// parallel set, the zlib chunks inflate side by side, one par.For index
// each.
func (s *Store) readPlanes(n *manifestNode, prefix int, parallel bool) (*[4][]byte, error) {
	start, end := nodePlanes(n)
	countAvoidedPlanes(n, prefix)
	var stored []int
	for p := start; p < end && p < prefix; p++ {
		stored = append(stored, p)
	}
	width := 1
	if parallel {
		width = len(stored)
	}
	var planes [4][]byte
	err := par.For(len(stored), width, func(i int) (err error) {
		planes[stored[i]], err = s.readPlane(n, stored[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for p := range planes {
		if planes[p] == nil {
			planes[p] = make([]byte, n.Rows*n.Cols)
		}
	}
	return &planes, nil
}

// chainOf returns the delta chain of node id, leaf first, ending at the
// node materialized from ν0. The walk is iterative — thousand-checkpoint
// chains must not grow the stack — and returns ErrCycle when the manifest's
// parent pointers loop.
func (s *Store) chainOf(id int) ([]int, error) {
	var chain []int
	for cur := id; cur != 0; {
		n, err := s.node(cur)
		if err != nil {
			return nil, err
		}
		chain = append(chain, cur)
		if len(chain) > len(s.man.Nodes) {
			return nil, fmt.Errorf("%w through node %d", ErrCycle, id)
		}
		cur = n.Parent
	}
	return chain, nil
}

// resolveChain computes the exact first `prefix` byte planes of node id's
// *matrix* (not its delta) by walking the delta chain from ν0 leaf-ward.
// XOR deltas compose per byte, so a prefix of planes is exact even without
// the low-order chunks.
func (s *Store) resolveChain(e engine, id, prefix int) (*[4][]byte, error) {
	chain, err := s.chainOf(id)
	if err != nil {
		return nil, err
	}
	var parent *[4][]byte
	var pn *manifestNode
	for i := len(chain) - 1; i >= 0; i-- {
		n, err := s.node(chain[i])
		if err != nil {
			return nil, err
		}
		planes, err := s.resolveNode(e, n, prefix, parent, pn)
		if err != nil {
			return nil, err
		}
		parent, pn = planes, n
	}
	return parent, nil
}

// resolveNode produces the matrix planes of one node given its
// already-resolved parent planes. Under a cache the step is looked up first
// and deduplicated across goroutines.
func (s *Store) resolveNode(e engine, n *manifestNode, prefix int, parent *[4][]byte, pn *manifestNode) (*[4][]byte, error) {
	c := e.cache
	if c == nil {
		return s.decodeNode(e, n, prefix, parent, pn)
	}
	k := planeKey{n.ID, prefix}
	if planes, ok := c.lru.get(k); ok {
		return planes, nil
	}
	c.fmu.Lock()
	if f, ok := c.flights[k]; ok {
		c.fmu.Unlock()
		mSingleFlightDedup.Inc()
		<-f.done
		return f.planes, f.err
	}
	f := &flight{done: make(chan struct{})}
	if c.flights == nil {
		c.flights = make(map[planeKey]*flight)
	}
	c.flights[k] = f
	c.fmu.Unlock()

	f.planes, f.err = s.decodeNode(e, n, prefix, parent, pn)
	if f.err == nil {
		c.lru.add(k, f.planes)
	}
	c.fmu.Lock()
	delete(c.flights, k)
	c.fmu.Unlock()
	close(f.done)
	return f.planes, f.err
}

// decodeNode reads a node's chunk planes and composes them with the parent's
// resolved planes. The delta body has the child's shape; the parent is
// cropped or zero-padded to it, only over the planes this node stores.
func (s *Store) decodeNode(e engine, n *manifestNode, prefix int, parent *[4][]byte, pn *manifestNode) (*[4][]byte, error) {
	planes, err := s.readPlanes(n, prefix, e.workers > 1)
	if err != nil {
		return nil, err
	}
	if n.Parent != 0 {
		start, end := nodePlanes(n)
		for p := start; p < end && p < prefix; p++ {
			xorResized(planes[p], parent[p], n.Rows, n.Cols, pn.Rows, pn.Cols)
		}
	}
	return planes, nil
}

// xorResized XORs the parent's plane (pr x pc) into dst (r x c), cropping or
// zero-padding the parent exactly like delta.ResizeTo does on floats.
func xorResized(dst, parent []byte, r, c, pr, pc int) {
	cr := r
	if pr < cr {
		cr = pr
	}
	cc := c
	if pc < cc {
		cc = pc
	}
	for i := 0; i < cr; i++ {
		drow := dst[i*c : i*c+cc]
		prow := parent[i*pc : i*pc+cc]
		for j := range drow {
			drow[j] ^= prow[j]
		}
	}
}

// resolveRef assembles the first `prefix` byte planes of a matrix from all
// of its part nodes (one full-range node, or high/low segment nodes under
// plane granularity), each following its own delta chain. The planes no part
// supplies are zero, allocated only after the part holding plane 0 has been
// read: the manifest's shape is untrusted until a payload vouches for it.
func (s *Store) resolveRef(e engine, ref MatrixRef, prefix int) (*floatenc.Segmented, error) {
	ids, ok := s.byRef[ref]
	if !ok {
		return nil, fmt.Errorf("%w: unknown matrix %v", ErrStore, ref)
	}
	first, err := s.node(ids[0])
	if err != nil {
		return nil, err
	}
	seg := &floatenc.Segmented{Rows: first.Rows, Cols: first.Cols}
	for _, id := range ids {
		n, err := s.node(id)
		if err != nil {
			return nil, err
		}
		start, end := nodePlanes(n)
		if start >= prefix {
			continue // nothing to read from this segment
		}
		if n.Rows != seg.Rows || n.Cols != seg.Cols {
			return nil, fmt.Errorf("%w: part nodes of %v disagree on shape", ErrStore, ref)
		}
		planes, err := s.resolveChain(e, id, prefix)
		if err != nil {
			return nil, err
		}
		for p := start; p < end && p < prefix; p++ {
			seg.Planes[p] = planes[p]
		}
	}
	if seg.Planes[0] == nil {
		return nil, fmt.Errorf("%w: no node of %v stores plane 0 below prefix %d", ErrStore, ref, prefix)
	}
	for p := range seg.Planes {
		if seg.Planes[p] == nil {
			seg.Planes[p] = make([]byte, seg.Rows*seg.Cols)
		}
	}
	return seg, nil
}

func (s *Store) getMatrix(e engine, ref MatrixRef, prefix int) (*tensor.Matrix, error) {
	seg, err := s.resolveRef(e, ref, prefix)
	if err != nil {
		return nil, err
	}
	if prefix >= floatenc.NumPlanes {
		return seg.Reconstruct()
	}
	return seg.Truncated(prefix)
}

// GetMatrix retrieves one matrix through the store's plane cache, shared
// with snapshot-level retrievals. With prefix = 4 the result is bit-exact;
// with a smaller prefix the low-order bytes are zero (the interval lower
// reconstruction).
func (s *Store) GetMatrix(ref MatrixRef, prefix int) (*tensor.Matrix, error) {
	return s.getMatrix(s.engineFor(Concurrent), ref, prefix)
}

// GetIntervals retrieves the guaranteed value intervals for one matrix from
// a prefix of byte planes — the input to progressive query evaluation, which
// re-reads the same chains at escalating prefixes and so benefits most from
// the (node, prefix) cache. At prefix 4 the intervals are degenerate
// (lo == hi == exact value).
func (s *Store) GetIntervals(ref MatrixRef, prefix int) (lo, hi *tensor.Matrix, err error) {
	seg, err := s.resolveRef(s.engineFor(Concurrent), ref, prefix)
	if err != nil {
		return nil, nil, err
	}
	return seg.Intervals(prefix)
}

// GetSnapshot retrieves all matrices of a snapshot, one resolution task per
// matrix on the engine's par.For, under the engine parameters of the given
// retrieval scheme (paper Table III; see engineFor).
func (s *Store) GetSnapshot(snapshot string, prefix int, scheme Scheme) (map[string]*tensor.Matrix, error) {
	countRetrieval(scheme)
	defer mRetrievalSeconds.Time()()
	names, err := s.MatrixNames(snapshot)
	if err != nil {
		return nil, err
	}
	e := s.engineFor(scheme)
	mats := make([]*tensor.Matrix, len(names))
	err = par.For(len(names), e.workers, func(i int) (err error) {
		mats[i], err = s.getMatrix(e, MatrixRef{Snapshot: snapshot, Name: names[i]}, prefix)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*tensor.Matrix, len(names))
	for i, name := range names {
		out[name] = mats[i]
	}
	return out, nil
}
