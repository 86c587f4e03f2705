package pas

// The archive layout (manifest version 4). Compressed chunk payloads are
// packed into a small number of append-only segment files under
// <dir>/segments/, content-addressed by their SHA-256: identical payloads —
// frozen layers, repeated deltas — are stored once. A segment file is
// immutable once written:
//
//	segments/seg-000000.seg:  "PASSEG2\n" | record | record | ...
//	record:                   len uint32be | sha256 [32]byte | payload
//
// manifest.json is the archive's one metadata file, a binary record (see
// manifest.go; Open also reads the JSON of version 3). Beside the plan it
// holds the layout: the segment files, the next segment number, and a chunk
// table of every stored payload as (sha256, segment, offset, length); a
// node names its planes by their positions in that table. Open resolves
// those into plane digests and lengths, and the table into the segment
// reader's digest → location map, fixed for the store's lifetime.
//
// Every write (Create, Extend) commits in one order, each step durable via
// temp-file + fsync + rename + parent dir fsync (package atomicfile):
//
//	new segment files → manifest (the commit point) → unlink every segment
//	and temp file the manifest does not name
//
// so after a write segments/ holds exactly the files its manifest names. A
// crash at any step leaves a readable archive: the manifest on disk names
// only segments that are on disk, and whatever a crash left unnamed goes at
// the next write. Segment names are never reused, so a store opened before a
// re-plan unlinked its segments reads the bytes it was promised through the
// handles it holds, or fails typed on a segment it had not opened yet, or
// once it is closed.
//
// Open only reads: it never deletes a temp file, which may belong to a
// write in flight beside it.

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
	// additional segments.
	segTargetBytes = 256 << 20
)

// layout is where every stored chunk payload lives.
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

// holdsExactly reports whether l stores exactly the payloads chunks names.
func (l *layout) holdsExactly(chunks []segPayload) bool {
	sums := make(map[string]bool, len(chunks))
	for _, c := range chunks {
		if _, ok := l.Chunks[c.sum]; !ok {
			return false
		}
		sums[c.sum] = true
	}
	return len(sums) == len(l.Chunks)
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

// segReader serves chunk payloads out of segment files: the store's layout,
// which never changes once the store is open, plus lazily opened,
// long-lived file handles. Once closed it opens no file again.
type segReader struct {
	dir string
	lay *layout

	mu     sync.Mutex
	files  map[string]segHandle
	closed bool
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
	loc, ok := r.lay.Chunks[sum]
	if !ok {
		return nil, fmt.Errorf("chunk %.12s… is not stored", sum)
	}
	sf := r.lay.Segments[loc.Seg]
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errors.New("the store is closed")
	}
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

func (r *segReader) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	var err error
	for name, h := range r.files {
		err = errors.Join(err, h.f.Close())
		delete(r.files, name)
	}
	return err
}

// Close releases the store's open segment file handles. A read through the
// store after Close returns what its plane cache holds, or fails typed.
func (s *Store) Close() error {
	return s.seg.close()
}

// StoredChunks counts physically stored chunk payloads: the chunk table's
// rows, after dedup.
func (s *Store) StoredChunks() int {
	return len(s.seg.lay.Chunks)
}

// storePayloads appends to dir's segment files every payload lay does not
// already hold — content-addressed dedup, against lay and within the batch —
// and records them in lay.
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

// sweep unlinks what a write leaves dir holding beyond its committed
// layout: the segment files lay does not name — the old plan's after a
// re-plan, or ones a write that crashed before its manifest sealed — and
// temp files, in the archive and in segments/. It runs after the manifest
// commit, under the single writer. Best effort: a file it cannot unlink is
// logged, and the next write retries.
func sweep(dir string, lay *layout) {
	named := make(map[string]bool, len(lay.Segments))
	for _, sf := range lay.Segments {
		named[sf.Name] = true
	}
	for _, d := range []string{dir, filepath.Join(dir, segmentsDir)} {
		entries, err := os.ReadDir(d)
		if err != nil {
			obs.Logger().Warn("pas: could not list the archive", "dir", d, "err", err)
			continue
		}
		for _, e := range entries {
			name := e.Name()
			_, seg := segNumber(name)
			if !strings.HasPrefix(name, segTmpPrefix) && (!seg || d == dir || named[name]) {
				continue
			}
			path := filepath.Join(d, name)
			if err := os.Remove(path); err != nil {
				obs.Logger().Warn("pas: could not remove a file the manifest does not name", "path", path, "err", err)
			}
		}
	}
}
