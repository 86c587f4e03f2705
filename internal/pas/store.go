package pas

import (
	"compress/zlib"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"runtime"
	"slices"
	"sync"

	"modelhub/internal/delta"
	"modelhub/internal/floatenc"
	"modelhub/internal/par"
	"modelhub/internal/tensor"
)

// MatrixRef names one archived matrix: the snapshot it belongs to and its
// layer name within the snapshot.
type MatrixRef struct {
	Snapshot string `json:"snapshot"`
	Name     string `json:"name"`
}

// SnapshotIn describes one snapshot to archive: its matrices and the
// recreation budget θ_i for retrieving them together (0 = unconstrained).
type SnapshotIn struct {
	ID       string
	Matrices map[string]*tensor.Matrix
	Budget   float64
}

// Options configure Create.
type Options struct {
	// Algorithm selects the plan optimizer Solve runs: "pas-mt" (default),
	// "pas-pt", "mst", "spt", "last" or "best".
	Algorithm string
	// Scheme is the retrieval scheme the budgets are evaluated under.
	Scheme Scheme
	// Alpha, when > 0, overrides all budgets with α·Cr(SPT, s_i) — the
	// Fig 6(c) protocol. When 0, the per-snapshot budgets are used as given.
	Alpha float64
	// ExtraPairs adds candidate delta edges beyond the default same-name
	// adjacent-snapshot pairs (e.g. across fine-tuned model versions).
	ExtraPairs [][2]MatrixRef
	// NoDefaultPairs disables the adjacent-snapshot pairing so the caller
	// (e.g. DLV, which knows version boundaries) controls candidates fully.
	NoDefaultPairs bool
	// PlaneGranularity makes storage-plan decisions at the level of byte
	// segments (paper Sec. IV-C: "PAS is able to make decisions at the
	// level of byte segments of float matrices, by treating them as
	// separate matrices that need to be retrieved together in some cases"):
	// every matrix splits into a high-plane node (planes 0-1) and a
	// low-plane node (planes 2-3) that pick delta parents independently —
	// compressible high planes ride delta chains while near-random low
	// planes can materialize for cheap recreation.
	PlaneGranularity bool
}

// deltaOp is the delta operator of every chunk chain. XOR is the only
// operator that composes exactly per byte plane, which partial (prefix < 4)
// retrieval and plane-granular plans rely on; Open rejects a manifest that
// records any other.
const deltaOp = delta.XOR

// planeLevel is the zlib level of plane p of a body that materializes its
// matrix (the delta from ν0) or is a delta between two matrices. Byte planes
// are not text, and each class gets the coder that measured best for it:
//   - a matrix's planes are Huffman-only coded. Plane 0 holds the sign and
//     the high exponent bits, a few byte values in no repeating order, where
//     match search costs bytes as well as time (0.34 of raw against 0.41 at
//     level 6). Planes 1-3 are near-random: floatenc.Deflate stores most of
//     them without running a coder at any level, and on the rest level 6
//     saves well under 1 % at twice the time;
//   - plane 0 of a delta is mostly zero runs, which level 6 codes to about
//     0.045 of raw against 0.053 at level 1. The planner leans on that
//     margin: a small matrix's delta may save only ~12 % over materializing
//     it, and at level 1 it no longer does (DESIGN.md §10);
//   - planes 1-3 of a delta are near-random with a little structure, which
//     level 1 finds at 1.5-2x level 6's speed for under 2 % more bytes.
//
// Every choice is a zlib stream that floatenc.Inflate reads. planeLevel is a
// variable only so a test can make pricing fail.
var planeLevel = func(materialized bool, p int) int {
	switch {
	case materialized:
		return zlib.HuffmanOnly
	case p == 0:
		return floatenc.DefaultZlibLevel
	default:
		return zlib.BestSpeed
	}
}

func (o Options) withDefaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = "pas-mt"
	}
	if !(o.Alpha > 0) {
		o.Alpha = 0 // the per-snapshot budgets, as the manifest records it
	}
	return o
}

// Store is an opened parameter archive.
type Store struct {
	dir string
	man manifest

	// seg serves chunk payloads out of the segment files.
	seg segReader

	// byRef maps a matrix to its node ids; plane-granular archives have one
	// node per plane segment, tiling [0, 4).
	byRef map[MatrixRef][]int

	// workers is the width of the retrieval engine's par.For (GOMAXPROCS
	// at Open); planes is the store-wide plane cache the
	// Concurrent scheme and the single-matrix entry points share.
	workers int
	planes  planeCache
}

// ErrStore reports archive-level failures (corruption, missing chunks,
// unknown references).
var ErrStore = errors.New("pas: store error")

// ErrCycle reports a manifest whose parent pointers form a cycle; it wraps
// ErrStore, so errors.Is(err, ErrStore) also matches.
var ErrCycle = fmt.Errorf("%w: parent cycle", ErrStore)

// priced is one candidate delta body after the only Segment it gets: its
// shape and its four compressed planes. Every edge that would store the same
// body — the part nodes of one matrix, the two directions of a same-shape
// pair — shares one.
type priced struct {
	rows, cols int
	z          [floatenc.NumPlanes][]byte
}

// planeMemo compresses each distinct (level, plane) pair of one pricing run
// once. Planes are keyed by their zlib level and the SHA-256 of their raw
// bytes: a fine-tune's snapshots repeat whole matrices (a version's last
// checkpoint is its latest), and the XOR body between two such copies is
// four equal zero planes. The level is part of the key because one plane can
// fall in two classes — an all-zero plane is a plane of a zero matrix and of
// the delta between equal ones — and its bytes must not depend on which
// class a worker met it in first. A worker that meets a pair another is
// still compressing waits for that result, so the count of compressions is
// the count of distinct pairs at any worker count.
type planeMemo struct {
	mu sync.Mutex
	z  map[memoKey]*memoPlane
}

// memoKey is a plane's zlib level and the SHA-256 of its raw bytes.
type memoKey struct {
	level int
	sum   [sha256.Size]byte
}

// memoPlane is one distinct (level, plane) pair's compressed bytes, valid
// once done is closed.
type memoPlane struct {
	done chan struct{}
	z    []byte
	err  error
}

// deflate returns plane compressed at level, sharing the bytes with every
// equal plane of the run compressed at the same level.
func (m *planeMemo) deflate(plane []byte, level int) ([]byte, error) {
	key := memoKey{level, sha256.Sum256(plane)}
	m.mu.Lock()
	e, seen := m.z[key]
	if !seen {
		e = &memoPlane{done: make(chan struct{})}
		m.z[key] = e
	}
	m.mu.Unlock()
	if seen {
		<-e.done
		mCreatePlanesShared.Inc()
		return e.z, e.err
	}
	e.z, e.err = floatenc.Deflate(plane, level)
	close(e.done)
	if e.err != nil {
		return nil, e.err
	}
	if storedStream(e.z) {
		mCreatePlanesStored.Inc()
	} else {
		mCreatePlanesDeflated.Inc()
	}
	return e.z, nil
}

// storedStream reports whether a zlib stream opens with a stored block (the
// block type bits of its first deflate byte are 00): floatenc.Deflate writes
// a plane it finds incompressible that way without running the compressor,
// and zlib ends there too on the few planes that check lets through.
func storedStream(z []byte) bool { return len(z) > 2 && z[2]&0b110 == 0 }

// price computes, segments and compresses the delta body that recreates
// target from base (nil: ν0, whose delta body is target itself), each plane
// at the level planeLevel gives its class.
func price(base, target *tensor.Matrix, memo *planeMemo) (*priced, error) {
	body := target
	if base != nil {
		d, err := delta.Compute(deltaOp, base, target)
		if err != nil {
			return nil, err
		}
		body = d.Body
	}
	seg := floatenc.Segment(body)
	b := &priced{rows: seg.Rows, cols: seg.Cols}
	for p, plane := range seg.Planes {
		z, err := memo.deflate(plane, planeLevel(base == nil, p))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrStore, err)
		}
		b.z[p] = z
	}
	return b, nil
}

// priceAll prices {base, target} jobs GOMAXPROCS at a time (par.For),
// through one planeMemo. Results land by job index, so nothing built from
// them, the error included, depends on the worker count or on scheduling.
func priceAll(jobs [][2]*tensor.Matrix) ([]*priced, error) {
	memo := &planeMemo{z: make(map[memoKey]*memoPlane)}
	out := make([]*priced, len(jobs))
	err := par.For(len(jobs), runtime.GOMAXPROCS(0), func(i int) (err error) {
		out[i], err = price(jobs[i][0], jobs[i][1], memo)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// candNode is one node of the storage graph: the matrix it belongs to, the
// byte planes it covers and its manifest node id. A new node has the pricing
// job of its materialization; a pinned node is an archived part node an
// extension's delta pair starts from, kept with its recreation cost cr under
// the stored plan.
type candNode struct {
	ref    MatrixRef
	part   [2]int
	id     int
	job    int
	pinned bool
	cr     float64
}

// planeParts lists the byte-plane ranges every matrix splits into: one node
// per matrix, or under plane granularity a high-plane and a low-plane node.
// Parts tile [0, NumPlanes).
func planeParts(granular bool) [][2]int {
	if granular {
		return [][2]int{{0, 2}, {2, floatenc.NumPlanes}}
	}
	return [][2]int{{0, floatenc.NumPlanes}}
}

// candidates is the output of graph construction: the storage graph, its
// nodes (index 0, ν0, unused) and, by EdgeID, the priced body each candidate
// edge writes if the plan picks it (nil for a pinned node's in-edge).
type candidates struct {
	g     *Graph
	nodes []candNode
	edges []*priced
}

// buildCandidates measures every candidate edge of the matrix storage graph
// for the given snapshots: materialization edges from ν0, same-name deltas
// between consecutive snapshots (unless disabled) and explicit extra pairs.
// Costs are real compressed byte counts. Each distinct delta body is priced
// once, in parallel; edges are then added serially in a fixed order, so edge
// ids — and with them the plan and the archive bytes — are the same at any
// worker count.
//
// With base set the graph extends that archive: new node ids continue after
// its largest, its last snapshot precedes snaps[0] in the default pairing,
// and a pair may take an archived matrix as its base. That matrix is read
// back bit-exactly and enters as pinned part nodes, whose one in-edge is
// ν0 → node at storage 0 and the recreation cost the stored plan gives it.
// No edge points into a pinned node, so the archived plan cannot change.
func buildCandidates(snaps []SnapshotIn, opts Options, base *Store) (*candidates, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: no snapshots", ErrStore)
	}
	parts := planeParts(opts.PlaneGranularity)
	idBase := 0
	if base != nil {
		idBase = base.maxNodeID()
	}

	// Assign node ids in deterministic order. jobs lists the distinct delta
	// bodies to price; the part nodes of one matrix share its body.
	nodes := []candNode{{}}
	var jobs [][2]*tensor.Matrix
	byRef := make(map[MatrixRef][]int)
	matrixOf := make(map[MatrixRef]*tensor.Matrix)
	for _, s := range snaps {
		for _, name := range slices.Sorted(maps.Keys(s.Matrices)) {
			ref := MatrixRef{Snapshot: s.ID, Name: name}
			if _, dup := byRef[ref]; dup {
				return nil, fmt.Errorf("%w: duplicate matrix %v", ErrStore, ref)
			}
			matrixOf[ref] = s.Matrices[name]
			for _, part := range parts {
				byRef[ref] = append(byRef[ref], len(nodes))
				nodes = append(nodes, candNode{ref: ref, part: part, id: idBase + len(nodes), job: len(jobs)})
			}
			jobs = append(jobs, [2]*tensor.Matrix{nil, s.Matrices[name]})
		}
	}
	newNodes := len(nodes)

	// Default delta candidates: same-name matrices in consecutive snapshots.
	// Names are sorted before pairing: pair order decides delta-edge
	// insertion order, which must not replay map iteration order.
	var pairs [][2]MatrixRef
	if !opts.NoDefaultPairs {
		var prevID string
		var prevNames []string
		if base != nil && len(base.man.Snapshots) > 0 {
			last := base.man.Snapshots[len(base.man.Snapshots)-1]
			prevID, prevNames = last.ID, last.Names
		}
		for _, s := range snaps {
			names := slices.Sorted(maps.Keys(s.Matrices))
			for _, name := range names {
				if slices.Contains(prevNames, name) {
					pairs = append(pairs, [2]MatrixRef{{Snapshot: prevID, Name: name}, {Snapshot: s.ID, Name: name}})
				}
			}
			prevID, prevNames = s.ID, names
		}
	}
	pairs = append(pairs, opts.ExtraPairs...)

	// matrix resolves a pair's side: one of snaps' matrices, or an archived
	// one, which is read back at full precision and pinned on first use.
	matrix := func(ref MatrixRef) (*tensor.Matrix, error) {
		if m, ok := matrixOf[ref]; ok {
			return m, nil
		}
		if base == nil || base.byRef[ref] == nil {
			return nil, fmt.Errorf("%w: delta pair references unknown matrix %v", ErrStore, ref)
		}
		m, err := base.GetMatrix(ref, floatenc.NumPlanes)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			n, err := base.partNode(ref, part)
			if err != nil {
				return nil, err
			}
			cr, err := base.recreationCost(n.ID)
			if err != nil {
				return nil, err
			}
			byRef[ref] = append(byRef[ref], len(nodes))
			nodes = append(nodes, candNode{ref: ref, part: part, id: n.ID, pinned: true, cr: cr})
		}
		matrixOf[ref] = m
		return m, nil
	}
	pinned := func(ref MatrixRef) bool { return nodes[byRef[ref][0]].pinned }

	// Each pair is a delta from base to target, and the reverse unless the
	// base is pinned. XOR is symmetric, so a same-shape pair has one body for
	// both directions; when the shapes differ the base is cropped or padded
	// to the target's, the two bodies really differ, and each is priced.
	type pairCand struct {
		base, target MatrixRef
		jobs         [2]int
		oneWay       bool
	}
	cps := make([]pairCand, len(pairs))
	for i, p := range pairs {
		a, err := matrix(p[0])
		if err != nil {
			return nil, err
		}
		b, err := matrix(p[1])
		if err != nil {
			return nil, err
		}
		switch {
		case pinned(p[0]) && pinned(p[1]):
			return nil, fmt.Errorf("%w: delta pair %v / %v joins two archived matrices", ErrStore, p[0], p[1])
		case pinned(p[1]):
			p[0], p[1], a, b = p[1], p[0], b, a
		}
		c := pairCand{base: p[0], target: p[1], jobs: [2]int{len(jobs), len(jobs)}, oneWay: pinned(p[0])}
		jobs = append(jobs, [2]*tensor.Matrix{a, b})
		switch {
		case c.oneWay:
		case a.Rows() != b.Rows() || a.Cols() != b.Cols():
			c.jobs[1] = len(jobs)
			jobs = append(jobs, [2]*tensor.Matrix{b, a})
		default:
			mCreatePlanesShared.Add(floatenc.NumPlanes)
		}
		cps[i] = c
	}
	bodies, err := priceAll(jobs)
	if err != nil {
		return nil, err
	}

	// An edge keeps its priced body, so the chosen plan writes chunks
	// without recomputing or recompressing a delta. Its cost counts only the
	// planes the target node covers.
	cand := &candidates{g: NewGraph(len(nodes) - 1), nodes: nodes}
	addEdge := func(from, to int, body *priced) {
		cost := 0.0
		for p := nodes[to].part[0]; p < nodes[to].part[1]; p++ {
			cost += float64(len(body.z[p]))
		}
		cand.g.AddEdge(NodeID(from), NodeID(to), cost, cost)
		cand.edges = append(cand.edges, body)
	}
	// Materialization edges ν0 -> m (one per part node); a pinned node's
	// stands for its stored chain.
	for id := 1; id < len(nodes); id++ {
		if id >= newNodes {
			cand.g.AddEdge(Root, NodeID(id), 0, nodes[id].cr)
			cand.edges = append(cand.edges, nil)
			continue
		}
		addEdge(0, id, bodies[nodes[id].job])
	}
	// Deltas connect same-part nodes only (parts are stored and recreated
	// independently).
	for _, c := range cps {
		aids, bids := byRef[c.base], byRef[c.target]
		for pi := range aids {
			addEdge(aids[pi], bids[pi], bodies[c.jobs[0]])
			if !c.oneWay {
				addEdge(bids[pi], aids[pi], bodies[c.jobs[1]])
			}
		}
	}
	// Snapshot groups: all part nodes of the snapshot's matrices are
	// co-retrieved.
	for _, s := range snaps {
		var ids []NodeID
		for _, name := range slices.Sorted(maps.Keys(s.Matrices)) {
			for _, id := range byRef[MatrixRef{Snapshot: s.ID, Name: name}] {
				ids = append(ids, NodeID(id))
			}
		}
		cand.g.AddSnapshot(s.ID, ids, s.Budget)
	}
	return cand, nil
}

// BuildGraph constructs and measures the matrix storage graph for the given
// snapshots without writing an archive — for plan analysis and the Fig 6(c)
// experiments on real (measured) delta costs.
func BuildGraph(snaps []SnapshotIn, opts Options) (*Graph, error) {
	opts = opts.withDefaults()
	cand, err := buildCandidates(snaps, opts, nil)
	if err != nil {
		return nil, err
	}
	return cand.g, nil
}

// planned is a solved storage graph as the archive records it: the manifest
// entries of its new nodes and snapshots, the chunk payloads they reference,
// and the plan's costs.
type planned struct {
	nodes             []manifestNode
	snaps             []manifestSnap
	chunks            []segPayload
	storage, mst, spt float64
	feasible          bool
}

// planArchive builds the candidate graph of snaps (extending base when it is
// set), sets budgets, runs the configured optimizer and lays out what the
// chosen plan writes.
func planArchive(snaps []SnapshotIn, opts Options, base *Store) (*planned, error) {
	cand, err := buildCandidates(snaps, opts, base)
	if err != nil {
		return nil, err
	}
	g := cand.g
	if opts.Alpha > 0 {
		if _, err := SetBudgetsAlphaSPT(g, opts.Scheme, opts.Alpha); err != nil {
			return nil, err
		}
	}
	plan, feasible, err := Solve(g, opts.Algorithm, opts.Scheme, opts.Alpha)
	if err != nil {
		return nil, err
	}
	mst, err := MST(g)
	if err != nil {
		return nil, err
	}
	spt, err := SPT(g)
	if err != nil {
		return nil, err
	}

	// The chosen plan's chunk payloads are the bytes pricing kept.
	out := &planned{storage: plan.StorageCost(), mst: mst.StorageCost(), spt: spt.StorageCost(), feasible: feasible}
	for v := 1; v < len(cand.nodes); v++ {
		cn := cand.nodes[v]
		if cn.pinned {
			continue
		}
		body := cand.edges[plan.ParentEdge[v]]
		mn := manifestNode{
			ID:         cn.id,
			Ref:        cn.ref,
			Rows:       body.rows,
			Cols:       body.cols,
			Parent:     cand.nodes[plan.Parent(NodeID(v))].id,
			PlaneStart: cn.part[0],
			PlaneEnd:   cn.part[1],
		}
		for p := cn.part[0]; p < cn.part[1]; p++ {
			z := body.z[p]
			sum := sha256.Sum256(z)
			mn.PlaneSum[p] = hex.EncodeToString(sum[:])
			mn.PlaneBytes[p] = len(z)
			out.chunks = append(out.chunks, segPayload{sum: mn.PlaneSum[p], data: z})
		}
		out.nodes = append(out.nodes, mn)
	}
	for si, s := range snaps {
		out.snaps = append(out.snaps, manifestSnap{
			ID:         s.ID,
			Names:      slices.Sorted(maps.Keys(s.Matrices)),
			Budget:     g.Snapshots[si].Budget,
			Recreation: plan.SnapshotCost(si, opts.Scheme),
		})
	}
	return out, nil
}

// Create archives the snapshots into dir using the configured plan
// optimizer and returns the opened store. Over an existing archive it is a
// re-plan: the plan's chunks go into fresh segments, numbered past every
// segment name the old archive used, and once the new manifest is committed
// the old plan's segments are unlinked. When the archive already holds
// exactly the plan's chunks, as after a re-plan that comes out as the stored
// plan, they stay where they are. A manifest that fails validation is
// ErrStore, and Create then writes and unlinks nothing.
func Create(dir string, snaps []SnapshotIn, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	_, old, err := readManifest(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	p, err := planArchive(snaps, opts, nil)
	if err != nil {
		return nil, err
	}
	lay := &layout{Chunks: make(map[string]segLoc)}
	if old != nil {
		if old.holdsExactly(p.chunks) {
			lay = old
		} else {
			lay.NextSeg = old.NextSeg
		}
	}
	return commitArchive(dir, lay, p.chunks, &manifest{
		Version:     manifestVersion,
		DeltaOp:     uint8(deltaOp),
		Scheme:      int(opts.Scheme),
		Algorithm:   opts.Algorithm,
		Alpha:       opts.Alpha,
		Nodes:       p.nodes,
		Snapshots:   p.snaps,
		StorageCost: p.storage,
		MSTCost:     p.mst,
		SPTCost:     p.spt,
		Feasible:    p.feasible,
	})
}

// Extend archives snapshots the store does not hold yet, leaving everything
// it holds as it is, and returns the store of the extended archive. It
// appends to the layout the store was opened with. Only the new matrices
// and opts' pairs are priced and planned: a pair may take an archived matrix
// as its base, which then enters the plan pinned at the recreation cost its
// stored chain has (see buildCandidates), and budgets are α·Cr(SPT) on that
// small graph. The manifest keeps every archived node and snapshot entry and
// appends the new ones; its costs become old + new and its feasibility old ∧
// new, and it records opts' algorithm, scheme and α.
//
// Extend returns ErrStore and writes nothing when the archive's plane
// granularity differs from opts', when a snapshot id is already archived or
// repeated, or when a pair names an unknown matrix or two archived ones.
func (s *Store) Extend(snaps []SnapshotIn, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	parts := planeParts(opts.PlaneGranularity)
	for i := range s.man.Nodes {
		n := &s.man.Nodes[i]
		if start, end := nodePlanes(n); !slices.Contains(parts, [2]int{start, end}) {
			return nil, fmt.Errorf("%w: node %d stores planes [%d, %d), which plane granularity %v does not plan",
				ErrStore, n.ID, start, end, opts.PlaneGranularity)
		}
	}
	ids := make(map[string]bool, len(s.man.Snapshots)+len(snaps))
	for _, snap := range s.man.Snapshots {
		ids[snap.ID] = true
	}
	for _, snap := range snaps {
		if ids[snap.ID] {
			return nil, fmt.Errorf("%w: snapshot %q is already archived", ErrStore, snap.ID)
		}
		ids[snap.ID] = true
	}
	p, err := planArchive(snaps, opts, s)
	if err != nil {
		return nil, err
	}
	man := s.man
	man.Version = manifestVersion // an extended version-3 archive is rewritten as version 4
	man.Scheme, man.Algorithm, man.Alpha = int(opts.Scheme), opts.Algorithm, opts.Alpha
	man.Nodes = append(slices.Clip(s.man.Nodes), p.nodes...)
	man.Snapshots = append(slices.Clip(s.man.Snapshots), p.snaps...)
	man.StorageCost += p.storage
	man.MSTCost += p.mst
	man.SPTCost += p.spt
	man.Feasible = man.Feasible && p.feasible
	lay := &layout{NextSeg: s.seg.lay.NextSeg, Segments: slices.Clone(s.seg.lay.Segments), Chunks: maps.Clone(s.seg.lay.Chunks)}
	return commitArchive(s.dir, lay, p.chunks, &man)
}

// commitArchive writes a planned archive in the one commit order: the
// payloads lay does not hold yet into segment files (content-addressed
// dedup), then the manifest, the commit point, then the sweep of every file
// the manifest does not name. It returns the store the manifest describes,
// as Open would read it back.
func commitArchive(dir string, lay *layout, chunks []segPayload, man *manifest) (*Store, error) {
	if err := storePayloads(dir, lay, chunks); err != nil {
		return nil, err
	}
	if err := writeManifest(dir, man, lay); err != nil {
		return nil, err
	}
	sweep(dir, lay)
	return newStore(dir, *man, lay), nil
}

// Solve runs the plan optimizer named algorithm on g, whose budgets the
// caller has set, and reports whether the plan meets them under scheme:
// "pas-mt" and "pas-pt" (paper Sec. IV-C), the baselines "mst", "spt" and
// "last" (LAST with node balance max(alpha, 1)), or "best", the cheaper
// feasible plan of pas-mt and pas-pt — the paper's closing recommendation
// for Fig 6(c). An unknown name is ErrStore.
func Solve(g *Graph, algorithm string, scheme Scheme, alpha float64) (*Plan, bool, error) {
	var plan *Plan
	var err error
	switch algorithm {
	case "pas-mt":
		return PASMT(g, scheme)
	case "pas-pt":
		return PASPT(g, scheme)
	case "best":
		mt, okMT, err := PASMT(g, scheme)
		if err != nil {
			return nil, false, err
		}
		pt, okPT, err := PASPT(g, scheme)
		if err != nil {
			return nil, false, err
		}
		if okPT && (!okMT || pt.StorageCost() < mt.StorageCost()) {
			return pt, true, nil
		}
		return mt, okMT, nil
	case "mst":
		plan, err = MST(g)
	case "spt":
		plan, err = SPT(g)
	case "last":
		plan, err = LAST(g, alpha)
	default:
		return nil, false, fmt.Errorf("%w: unknown algorithm %q", ErrStore, algorithm)
	}
	if err != nil {
		return nil, false, err
	}
	ok, _ := plan.Feasible(scheme)
	return plan, ok, nil
}

// Open loads an existing archive and writes nothing. The manifest arrives
// inside every pulled repository, so it is validated before anything
// indexes by its fields.
func Open(dir string) (*Store, error) {
	man, lay, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	return newStore(dir, *man, lay), nil
}

// newStore serves a validated manifest out of the segment files lay
// locates.
func newStore(dir string, man manifest, lay *layout) *Store {
	s := &Store{dir: dir, man: man,
		byRef:   make(map[MatrixRef][]int),
		workers: runtime.GOMAXPROCS(0)}
	s.planes.lru.limit = DefaultPlaneCacheBytes
	s.seg.dir = dir
	s.seg.lay = lay
	s.seg.files = make(map[string]segHandle)
	for _, n := range man.Nodes {
		s.byRef[n.Ref] = append(s.byRef[n.Ref], n.ID)
	}
	noteSegmentGauges(lay)
	return s
}

// Snapshots lists the archived snapshot ids in archive order.
func (s *Store) Snapshots() []string {
	out := make([]string, len(s.man.Snapshots))
	for i, snap := range s.man.Snapshots {
		out[i] = snap.ID
	}
	return out
}

// MatrixNames lists the matrix names of a snapshot.
func (s *Store) MatrixNames(snapshot string) ([]string, error) {
	for _, snap := range s.man.Snapshots {
		if snap.ID == snapshot {
			return append([]string(nil), snap.Names...), nil
		}
	}
	return nil, fmt.Errorf("%w: unknown snapshot %q", ErrStore, snapshot)
}

// PlanInfo reports the settings and costs of the plan this store was created
// with. Algorithm, Scheme, Alpha and PlaneGranularity are the Options fields
// after defaults.
type PlanInfo struct {
	Algorithm        string
	Scheme           Scheme
	Alpha            float64
	PlaneGranularity bool
	StorageCost      float64
	MSTCost          float64
	SPTCost          float64
	Feasible         bool
}

// Info returns the stored plan's summary.
func (s *Store) Info() PlanInfo {
	granular := false
	for i := range s.man.Nodes {
		if start, end := nodePlanes(&s.man.Nodes[i]); end-start < floatenc.NumPlanes {
			granular = true
		}
	}
	return PlanInfo{
		Algorithm:        s.man.Algorithm,
		Scheme:           Scheme(s.man.Scheme),
		Alpha:            s.man.Alpha,
		PlaneGranularity: granular,
		StorageCost:      s.man.StorageCost,
		MSTCost:          s.man.MSTCost,
		SPTCost:          s.man.SPTCost,
		Feasible:         s.man.Feasible,
	}
}

// maxNodeID is the largest node id of the manifest; an extension numbers its
// nodes after it.
func (s *Store) maxNodeID() int {
	top := 0
	for i := range s.man.Nodes {
		top = max(top, s.man.Nodes[i].ID)
	}
	return top
}

// partNode returns the node of an archived matrix that stores part's planes.
func (s *Store) partNode(ref MatrixRef, part [2]int) (*manifestNode, error) {
	for _, id := range s.byRef[ref] {
		n, err := s.node(id)
		if err != nil {
			return nil, err
		}
		if start, end := nodePlanes(n); start == part[0] && end == part[1] {
			return n, nil
		}
	}
	return nil, fmt.Errorf("%w: archived matrix %v has no node for planes [%d, %d)", ErrStore, ref, part[0], part[1])
}

// recreationCost is Cr(P, id) under the stored plan: the compressed bytes of
// the planes each node on id's chain stores, summed from ν0.
func (s *Store) recreationCost(id int) (float64, error) {
	chain, err := s.chainOf(id)
	if err != nil {
		return 0, err
	}
	cost := 0.0
	for i := len(chain) - 1; i >= 0; i-- {
		n, err := s.node(chain[i])
		if err != nil {
			return 0, err
		}
		start, end := nodePlanes(n)
		for p := start; p < end; p++ {
			cost += float64(n.PlaneBytes[p])
		}
	}
	return cost, nil
}

// node returns the manifest node for id.
func (s *Store) node(id int) (*manifestNode, error) {
	// Nodes are appended in id order starting at 1.
	idx := id - 1
	if idx < 0 || idx >= len(s.man.Nodes) || s.man.Nodes[idx].ID != id {
		for i := range s.man.Nodes {
			if s.man.Nodes[i].ID == id {
				return &s.man.Nodes[i], nil
			}
		}
		return nil, fmt.Errorf("%w: unknown node %d", ErrStore, id)
	}
	return &s.man.Nodes[idx], nil
}

// nodePlanes returns the byte-plane range a node stores; PlaneEnd == 0
// denotes the full range.
func nodePlanes(n *manifestNode) (int, int) {
	if n.PlaneEnd == 0 {
		return 0, floatenc.NumPlanes
	}
	return n.PlaneStart, n.PlaneEnd
}

// SnapshotCostInfo explains one snapshot group's recreation cost under the
// archived plan (dlv archive -explain).
type SnapshotCostInfo struct {
	ID         string
	Matrices   int
	Budget     float64 // 0 = unconstrained
	Recreation float64
}

// SnapshotCosts reports the per-snapshot recreation costs the plan achieved
// against their budgets.
func (s *Store) SnapshotCosts() []SnapshotCostInfo {
	out := make([]SnapshotCostInfo, len(s.man.Snapshots))
	for i, snap := range s.man.Snapshots {
		out[i] = SnapshotCostInfo{
			ID:         snap.ID,
			Matrices:   len(snap.Names),
			Budget:     snap.Budget,
			Recreation: snap.Recreation,
		}
	}
	return out
}

// TotalChunkBytes sums the compressed on-disk chunk sizes, optionally only
// the first `prefix` planes (what a partial retrieval has to read).
func (s *Store) TotalChunkBytes(prefix int) int64 {
	var total int64
	for _, n := range s.man.Nodes {
		for p := 0; p < prefix && p < floatenc.NumPlanes; p++ {
			total += int64(n.PlaneBytes[p])
		}
	}
	return total
}
