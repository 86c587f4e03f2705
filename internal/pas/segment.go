package pas

// The archive layout (manifest version 3). Compressed chunk payloads are
// packed into a small number of append-only segment files under
// <dir>/segments/, content-addressed by their SHA-256: identical payloads —
// frozen layers, repeated deltas, re-archived snapshots — are stored once. A
// segment file is immutable once written:
//
//	segments/seg-000000.seg:  "PASSEG2\n" | record | record | ...
//	record:                   len uint32be | sha256 [32]byte | payload
//
// manifest.json is the archive's one metadata file. Beside the plan it holds
// the layout: the segment files, the next segment number, and a chunk table
// of every stored payload, live or garbage, as (sha256, segment, offset,
// length); a node names its planes by their positions in that table. Open
// resolves those into plane digests and lengths, and the table into the
// segment reader's digest → location map, which GC swaps without touching
// the nodes readers hold.
//
// Commit orders (each step durable via temp-file + fsync + rename + parent
// dir fsync, package atomicfile):
//
//	Create/Extend: segment files → manifest (the commit point)
//	GC/repack:     replacement segments → manifest (the commit point) → unlink victims
//
// A crash at any step leaves a readable archive: the manifest on disk names
// only segments that are on disk. Concurrent readers inside one process
// survive GC because the reader keeps displaced file handles open in a
// graveyard until Close — an in-flight ReadAt on an unlinked segment still
// returns the bytes its layout snapshot promised.
//
// Open only reads. Each write path (Create, Extend, GC, Repack) first sweeps
// the temp files a crashed write left in the archive and in segments/, so a
// reader never deletes the temp file of a write in flight beside it.

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"modelhub/internal/atomicfile"
	"modelhub/internal/obs"
)

const (
	segmentsDir  = "segments"
	segMagic     = "PASSEG2\n"
	segTmpPrefix = atomicfile.TempPrefix
	// segRecordOverhead is the per-record header: a 4-byte big-endian
	// payload length plus the raw 32-byte SHA-256 of the payload.
	segRecordOverhead = 4 + sha256.Size
	// segTargetBytes caps one segment file; larger archives roll over into
	// additional segments so GC can rewrite them piecemeal.
	segTargetBytes = 256 << 20
)

// layout is where every stored chunk payload lives, garbage included.
type layout struct {
	// NextSeg numbers the next segment file, monotonically — names are
	// never reused, so a stale reader can never open a recycled name.
	NextSeg  int               `json:"next_seg"`
	Segments []segFileInfo     `json:"segments"`
	Chunks   map[string]segLoc `json:"chunks"`
}

type segFileInfo struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// segLoc addresses one chunk payload: Segments[Seg], Len payload bytes at
// byte offset Off (past the record header).
type segLoc struct {
	Seg int   `json:"seg"`
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

// chunkEntry is one row of the manifest's chunk table.
type chunkEntry struct {
	Sum string `json:"sha256"`
	segLoc
}

// table lists the layout's chunks in (segment, offset) order: the manifest's
// chunk table. Appending a segment leaves every earlier position as it was.
func (l *layout) table() []chunkEntry {
	t := make([]chunkEntry, 0, len(l.Chunks))
	for sum, loc := range l.Chunks {
		t = append(t, chunkEntry{sum, loc})
	}
	slices.SortFunc(t, func(a, b chunkEntry) int {
		return cmp.Or(cmp.Compare(a.Seg, b.Seg), cmp.Compare(a.Off, b.Off), strings.Compare(a.Sum, b.Sum))
	})
	return t
}

func segName(n int) string {
	return fmt.Sprintf("seg-%06d.seg", n)
}

// segNumber parses a name segName made.
func segNumber(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "seg-%d.seg", &n); err != nil || segName(n) != name {
		return 0, false
	}
	return n, true
}

func segPath(dir, name string) string {
	return filepath.Join(dir, segmentsDir, name)
}

// nameChunks sets each node's Chunks to the table positions of the digests
// in its plane range, -1 where the table has none, and reports whether the
// table had them all.
func nameChunks(nodes []manifestNode, table []chunkEntry) bool {
	at := make(map[string]int, len(table))
	for i, c := range table {
		at[c.Sum] = i
	}
	all := true
	for i := range nodes {
		n := &nodes[i]
		start, end := nodePlanes(n)
		n.Chunks = nil
		for p, sum := range n.PlaneSum {
			if p < start || p >= end {
				continue
			}
			c, ok := at[sum]
			if !ok {
				c, all = -1, false
			}
			n.Chunks = append(n.Chunks, c)
		}
	}
	return all
}

// segPayload is one chunk payload headed into a segment file.
type segPayload struct {
	sum  string
	data []byte
}

// writeSegments packs payloads into one or more new segment files, rolling
// over at segTargetBytes, and records them in lay. Each file is written to a
// temp name, fsynced, renamed to its final seg-NNNNNN.seg name, and the
// segments directory is fsynced after the renames. Names are numbered past
// lay.NextSeg — which the validator keeps past every segment lay names —
// and past every segment file on disk, such as one a write that crashed
// before its manifest left behind, so no name is ever reused.
func writeSegments(dir string, lay *layout, payloads []segPayload) error {
	if len(payloads) == 0 {
		return nil
	}
	segDir := filepath.Join(dir, segmentsDir)
	entries, err := os.ReadDir(segDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if n, ok := segNumber(e.Name()); ok && n >= lay.NextSeg {
			lay.NextSeg = n + 1
		}
	}

	var f *os.File
	var tmp string
	var size int64
	fail := func(err error) error {
		if f != nil {
			err = errors.Join(err, f.Close(), os.Remove(tmp))
		}
		return err
	}
	seal := func() error {
		if err := f.Sync(); err != nil {
			return errors.Join(err, f.Close(), os.Remove(tmp))
		}
		if err := f.Close(); err != nil {
			return errors.Join(err, os.Remove(tmp))
		}
		name := segName(lay.NextSeg)
		if err := os.Rename(tmp, segPath(dir, name)); err != nil {
			return errors.Join(err, os.Remove(tmp))
		}
		lay.NextSeg++
		lay.Segments = append(lay.Segments, segFileInfo{Name: name, Size: size})
		f = nil
		return nil
	}
	var hdr [segRecordOverhead]byte
	for _, p := range payloads {
		if f == nil {
			f, err = os.CreateTemp(segDir, segTmpPrefix+"*")
			if err != nil {
				return err
			}
			tmp = f.Name()
			if _, err := f.WriteString(segMagic); err != nil {
				return fail(err)
			}
			size = int64(len(segMagic))
		}
		raw, err := hex.DecodeString(p.sum)
		if err != nil || len(raw) != sha256.Size {
			return fail(fmt.Errorf("%w: bad payload sum %q", ErrStore, p.sum))
		}
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(p.data)))
		copy(hdr[4:], raw)
		if _, err := f.Write(hdr[:]); err != nil {
			return fail(err)
		}
		if _, err := f.Write(p.data); err != nil {
			return fail(err)
		}
		// The open file becomes Segments[len(Segments)] when it is sealed.
		lay.Chunks[p.sum] = segLoc{Seg: len(lay.Segments), Off: size + segRecordOverhead, Len: int64(len(p.data))}
		size += segRecordOverhead + int64(len(p.data))
		if size >= segTargetBytes {
			if err := seal(); err != nil {
				return err
			}
		}
	}
	if f != nil {
		if err := seal(); err != nil {
			return err
		}
	}
	return atomicfile.SyncDir(segDir)
}

// noteSegmentGauges publishes the segment count and on-disk byte total.
func noteSegmentGauges(lay *layout) {
	gSegmentCount.Set(int64(len(lay.Segments)))
	var bytes int64
	for _, sf := range lay.Segments {
		bytes += sf.Size
	}
	gSegmentDiskBytes.Set(bytes)
}

// segReader serves chunk payloads out of segment files: an in-memory layout
// plus lazily opened, long-lived file handles. GC swaps in a rewritten
// layout under the mutex and retires the handles of unlinked segments to a
// graveyard that stays open until Close, so a concurrent reader's in-flight
// ReadAt still sees the bytes its layout snapshot named.
type segReader struct {
	dir string

	mu    sync.Mutex
	lay   *layout
	files map[string]segHandle
	grave []*os.File

	// cmu serializes GC/repack passes against each other.
	cmu sync.Mutex
}

// segHandle is an open segment file and its size when it was opened: the
// bytes really there, whatever the layout claims.
type segHandle struct {
	f    *os.File
	size int64
}

// read returns the payload stored for sum. The caller verifies the bytes
// against the digest the node names. The layout came with the archive, so a
// claimed length sizes no buffer before the file is known to hold it.
func (r *segReader) read(sum string) ([]byte, error) {
	r.mu.Lock()
	loc, ok := r.lay.Chunks[sum]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("chunk %.12s… is not stored", sum)
	}
	sf := r.lay.Segments[loc.Seg]
	h, ok := r.files[sf.Name]
	if !ok {
		f, err := os.Open(segPath(r.dir, sf.Name))
		if err != nil {
			r.mu.Unlock()
			return nil, err
		}
		info, err := f.Stat()
		if err != nil {
			r.mu.Unlock()
			return nil, errors.Join(err, f.Close())
		}
		mSegmentOpens.Inc()
		h = segHandle{f: f, size: info.Size()}
		r.files[sf.Name] = h
	}
	r.mu.Unlock()

	if loc.Len > h.size-loc.Off {
		return nil, fmt.Errorf("segment %s holds %d bytes, not chunk %.12s… at [%d, %d)",
			sf.Name, h.size, sum, loc.Off, loc.Off+loc.Len)
	}
	buf := make([]byte, loc.Len)
	if _, err := h.f.ReadAt(buf, loc.Off); err != nil {
		return nil, fmt.Errorf("segment %s: %w", sf.Name, err)
	}
	return buf, nil
}

// current returns the current layout under the lock.
func (r *segReader) current() *layout {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lay
}

// swap installs a rewritten layout. Handles of segments the new layout no
// longer names move to the graveyard (kept open for in-flight reads) instead
// of being closed.
func (r *segReader) swap(lay *layout) {
	keep := make(map[string]bool, len(lay.Segments))
	for _, sf := range lay.Segments {
		keep[sf.Name] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, h := range r.files {
		if !keep[name] {
			r.grave = append(r.grave, h.f)
			delete(r.files, name)
		}
	}
	r.lay = lay
}

func (r *segReader) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	for name, h := range r.files {
		err = errors.Join(err, h.f.Close())
		delete(r.files, name)
	}
	for _, f := range r.grave {
		err = errors.Join(err, f.Close())
	}
	r.grave = nil
	return err
}

// Close releases the store's open segment file handles, including handles
// GC retired while readers were in flight. The store must not be used after
// Close.
func (s *Store) Close() error {
	return s.seg.close()
}

// StoredChunks counts physically stored chunk payloads: the chunk table's
// rows, after dedup.
func (s *Store) StoredChunks() int {
	return len(s.seg.current().Chunks)
}

// liveSums collects the payload checksums the manifest references.
func (s *Store) liveSums() map[string]bool {
	live := make(map[string]bool)
	for i := range s.man.Nodes {
		n := &s.man.Nodes[i]
		start, end := nodePlanes(n)
		for p := start; p < end; p++ {
			live[n.PlaneSum[p]] = true
		}
	}
	return live
}

// GCStats reports what a GC or repack pass did.
type GCStats struct {
	// Segments is the number of segment files after the pass.
	Segments int
	// Rewritten counts victim segments that were compacted and unlinked.
	Rewritten int
	// DroppedChunks counts stored payloads no longer referenced by the
	// manifest that the pass discarded.
	DroppedChunks int
	// ReclaimedBytes is the net disk space freed (victim bytes minus
	// replacement bytes).
	ReclaimedBytes int64
	// LiveBytes is the payload byte total the manifest references.
	LiveBytes int64
}

// GC compacts segment files that hold unreferenced payloads — garbage left
// by re-archiving (dedup makes older payloads unreferenced rather than
// overwritten) — and reclaims their disk space. Safe under concurrent
// readers of the same Store: live payloads are rewritten into new segments,
// the manifest with the new layout is written atomically (the commit point),
// and only then are victim files unlinked; displaced open handles survive in
// the reader's graveyard.
func (s *Store) GC() (GCStats, error) {
	return s.compact(false)
}

// Repack rewrites every segment file into freshly packed segments —
// GC plus defragmentation, coalescing small segments left by repeated
// archive appends. Uses the same commit order as GC.
func (s *Store) Repack() (GCStats, error) {
	return s.compact(true)
}

func (s *Store) compact(all bool) (GCStats, error) {
	s.seg.cmu.Lock()
	defer s.seg.cmu.Unlock()
	sweepTempFiles(s.dir)
	lay := s.seg.current()
	live := s.liveSums()

	liveBySeg := make([]int64, len(lay.Segments)) // live record bytes incl. headers
	deadBySeg := make([]int, len(lay.Segments))
	var liveBytes int64
	dropped := 0
	for sum, loc := range lay.Chunks {
		if live[sum] {
			liveBySeg[loc.Seg] += segRecordOverhead + loc.Len
			liveBytes += loc.Len
		} else {
			deadBySeg[loc.Seg]++
			dropped++
		}
	}
	victims := make(map[int]bool)
	for i, sf := range lay.Segments {
		if all || deadBySeg[i] > 0 || sf.Size != int64(len(segMagic))+liveBySeg[i] {
			victims[i] = true
		}
	}
	// A clean single segment has nothing to gain from repacking.
	if all && dropped == 0 && len(lay.Segments) <= 1 {
		victims = nil
	}
	if len(victims) == 0 {
		return GCStats{Segments: len(lay.Segments), LiveBytes: liveBytes}, nil
	}

	// Gather the live payloads of victim segments in (segment, offset)
	// order — one sequential sweep per victim file.
	var payloads []segPayload
	for _, c := range lay.table() {
		if !live[c.Sum] || !victims[c.Seg] {
			continue
		}
		data, err := s.seg.read(c.Sum)
		if err != nil {
			return GCStats{}, fmt.Errorf("%w: gc reading chunk %.12s…: %v", ErrStore, c.Sum, err)
		}
		got := sha256.Sum256(data)
		if hex.EncodeToString(got[:]) != c.Sum {
			return GCStats{}, fmt.Errorf("%w: gc: chunk checksum mismatch for %.12s… — refusing to compact a corrupted segment", ErrStore, c.Sum)
		}
		payloads = append(payloads, segPayload{sum: c.Sum, data: data})
	}

	// Build the replacement layout: survivors keep their files (positions
	// remapped), compacted payloads land in fresh segments.
	next := &layout{NextSeg: lay.NextSeg, Chunks: make(map[string]segLoc, len(lay.Chunks)-dropped)}
	remap := make(map[int]int)
	for i, sf := range lay.Segments {
		if !victims[i] {
			remap[i] = len(next.Segments)
			next.Segments = append(next.Segments, sf)
		}
	}
	for sum, loc := range lay.Chunks {
		if live[sum] && !victims[loc.Seg] {
			loc.Seg = remap[loc.Seg]
			next.Chunks[sum] = loc
		}
	}
	base := len(next.Segments)
	if err := writeSegments(s.dir, next, payloads); err != nil {
		return GCStats{}, fmt.Errorf("%w: gc writing segments: %v", ErrStore, err)
	}
	if err := writeManifest(s.dir, &s.man, next); err != nil {
		return GCStats{}, err
	}
	s.seg.swap(next) // commit for in-process readers

	var reclaimed int64
	for i, sf := range lay.Segments {
		if !victims[i] {
			continue
		}
		reclaimed += sf.Size
		if err := os.Remove(segPath(s.dir, sf.Name)); err != nil {
			// The manifest no longer names this file; a leftover only
			// wastes space until the next pass.
			obs.Logger().Warn("pas: gc could not unlink victim segment", "segment", sf.Name, "err", err)
		}
	}
	for _, sf := range next.Segments[base:] {
		reclaimed -= sf.Size
	}
	mSegmentGCRuns.Inc()
	if reclaimed > 0 {
		mSegmentGCReclaimed.Add(reclaimed)
	}
	return GCStats{
		Segments:       len(next.Segments),
		Rewritten:      len(victims),
		DroppedChunks:  dropped,
		ReclaimedBytes: reclaimed,
		LiveBytes:      liveBytes,
	}, nil
}

// storePayloads appends to dir's segment files every payload lay does not
// already hold — content-addressed dedup, against everything stored there,
// garbage included, and within the batch — and records them in lay.
func storePayloads(dir string, lay *layout, payloads []segPayload) error {
	if err := os.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	seen := make(map[string]bool, len(payloads))
	var fresh []segPayload
	for _, p := range payloads {
		if _, ok := lay.Chunks[p.sum]; ok || seen[p.sum] {
			mSegmentDedupHits.Inc()
			mSegmentDedupBytes.Add(int64(len(p.data)))
			continue
		}
		seen[p.sum] = true
		fresh = append(fresh, p)
	}
	if err := writeSegments(dir, lay, fresh); err != nil {
		return fmt.Errorf("%w: writing segments: %v", ErrStore, err)
	}
	return nil
}

// sweepTempFiles removes crash leftovers of an archive: orphaned temp files
// from interrupted segment or manifest writes. Write paths only (see the top
// of this file). Best-effort; failures are logged.
func sweepTempFiles(dir string) {
	for _, pat := range []string{
		filepath.Join(dir, segTmpPrefix+"*"),
		segPath(dir, segTmpPrefix+"*"),
	} {
		names, err := filepath.Glob(pat)
		if err != nil {
			continue
		}
		for _, path := range names {
			if err := os.Remove(path); err != nil {
				obs.Logger().Warn("pas: could not remove stale temp file", "path", path, "err", err)
			}
		}
	}
}
