package pas

// The manifest is the archive's one metadata file: the plan, and where its
// chunks live (see segment.go). Every write stores version 4, a binary
// record. Open also reads version 3, the JSON object earlier builds wrote:
// hub nodes hold repositories archived that way, addressed by the digest of
// their bytes, so those manifests can never be rewritten. Both decode into
// the stored-form manifest below, which validateManifest checks and parts.
//
// Version 4. Integers are uvarints unless stated; a float is the
// little-endian IEEE-754 bits of a float64; a string is a uvarint index into
// the string table, which holds every distinct string once:
//
//	"PASMAN4\n"
//	strings    count, count × (length, UTF-8 bytes)
//	plan       delta_op, scheme, algorithm, alpha, storage_cost, mst_cost,
//	           spt_cost (floats), feasible (0 or 1)
//	layout     next_seg, count, count × (name, size)
//	chunks     count, count × fixed 56 bytes: raw sha256 [32]byte,
//	           seg, off, len (uint64 little-endian)
//	snapshots  count, count × (id, budget, recreation (floats),
//	           count, count × name)
//	nodes      count, count × (id, snapshot (position in the snapshot
//	           table), name (position in that snapshot's names), rows, cols,
//	           parent, plane_start, plane_end, count, count × chunk position)
//	trailer    CRC-32C of every byte before it (uint32 little-endian)
//
// The decoder bounds every count by the bytes left before it allocates, and
// refuses a varint or fixed integer above MaxInt, a non-finite float,
// invalid UTF-8, an index out of range, trailing bytes and a bad trailer.
// JSON's grammar refused most one-byte corruptions; the trailer refuses them
// here.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"unicode/utf8"

	"modelhub/internal/atomicfile"
	"modelhub/internal/delta"
	"modelhub/internal/floatenc"
)

// manifestName is the archive's one metadata file, named for the JSON it
// held up to version 3; manifestVersion is the version every write stores.
const (
	manifestName    = "manifest.json"
	manifestVersion = 4
	jsonVersion     = 3
)

// A binary manifest opens with manMagicPrefix, its version in decimal and a
// newline: manMagic for version 4. No JSON document starts that way.
const (
	manMagicPrefix = "PASMAN"
	manMagic       = "PASMAN4\n"
	manTrailerLen  = 4
	// manChunkLen is one chunk table record: digest, seg, off, len.
	manChunkLen = sha256.Size + 3*8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifest is the stored form of manifest.json: the plan, and where its
// chunks live.
type manifest struct {
	Version   int            `json:"version"`
	DeltaOp   uint8          `json:"delta_op"`
	Scheme    int            `json:"scheme"`
	Algorithm string         `json:"algorithm"`
	Alpha     float64        `json:"alpha"` // Options.Alpha after defaults
	Nodes     []manifestNode `json:"nodes"`
	Snapshots []manifestSnap `json:"snapshots"`
	// Costs of the chosen plan, for reporting.
	StorageCost float64 `json:"storage_cost"`
	MSTCost     float64 `json:"mst_cost"`
	SPTCost     float64 `json:"spt_cost"`
	Feasible    bool    `json:"feasible"`
	// The layout (see segment.go). In memory it lives in the store's
	// segment reader, and these stay empty.
	NextSeg  int           `json:"next_seg"`
	Segments []segFileInfo `json:"segments"`
	Chunks   []chunkEntry  `json:"chunks"`
}

type manifestNode struct {
	ID     int       `json:"id"` // NodeID (>= 1)
	Ref    MatrixRef `json:"ref"`
	Rows   int       `json:"rows"`
	Cols   int       `json:"cols"`
	Parent int       `json:"parent"` // NodeID; 0 = materialized from ν0
	// PlaneStart/PlaneEnd bound the byte planes this node stores
	// (PlaneEnd == 0 means the full range [0, 4) for compatibility).
	PlaneStart int `json:"plane_start,omitempty"`
	PlaneEnd   int `json:"plane_end,omitempty"`
	// Chunks are positions in the manifest's chunk table, one per stored
	// plane in plane order. Open resolves them into PlaneSum, each plane's
	// payload digest, and PlaneBytes, its compressed size (reporting and
	// partial-retrieval cost accounting), and leaves Chunks empty.
	Chunks     []int     `json:"chunks"`
	PlaneSum   [4]string `json:"-"`
	PlaneBytes [4]int    `json:"-"`
}

type manifestSnap struct {
	ID     string   `json:"id"`
	Names  []string `json:"names"`
	Budget float64  `json:"budget"`
	// Recreation is the plan's achieved group recreation cost under the
	// archive's retrieval scheme (0 budget = unconstrained).
	Recreation float64 `json:"recreation"`
}

// writeManifest persists the plan and its layout as one version-4 record,
// atomically (temp + fsync + rename + parent dir fsync): the commit point of
// every write. Each node's planes become positions in the chunk table.
func writeManifest(dir string, man *manifest, lay *layout) error {
	disk := *man
	disk.NextSeg, disk.Segments, disk.Chunks = lay.NextSeg, lay.Segments, lay.table()
	disk.Nodes = slices.Clone(man.Nodes)
	if !nameChunks(disk.Nodes, disk.Chunks) {
		return fmt.Errorf("%w: a node's plane has no stored chunk", ErrStore)
	}
	blob, err := encodeManifest(&disk)
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(filepath.Join(dir, manifestName), blob); err != nil {
		return fmt.Errorf("%w: writing manifest: %v", ErrStore, err)
	}
	noteSegmentGauges(lay)
	return nil
}

// encodeManifest encodes a stored-form manifest as a binary record of its
// Version. It refuses what the decoder would: a string that is not UTF-8, a
// non-finite float, a digest that is not 32 hex-coded bytes, a node whose
// matrix no snapshot names. Integers are stored as they are, so a negative
// one becomes a varint above MaxInt that the decoder refuses.
func encodeManifest(man *manifest) ([]byte, error) {
	var err error
	bad := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("%w: encoding manifest: %s", ErrStore, fmt.Sprintf(format, args...))
		}
	}
	at := map[string]int{}
	var strs []string
	intern := func(s string) {
		if _, ok := at[s]; !ok {
			if !utf8.ValidString(s) {
				bad("string %q is not UTF-8", s)
			}
			at[s] = len(strs)
			strs = append(strs, s)
		}
	}
	intern(man.Algorithm)
	for _, s := range man.Snapshots {
		intern(s.ID)
		for _, name := range s.Names {
			intern(name)
		}
	}
	for _, sf := range man.Segments {
		intern(sf.Name)
	}

	b := fmt.Appendf(make([]byte, 0, 4096), "%s%d\n", manMagicPrefix, man.Version)
	putInt := func(v int) { b = binary.AppendUvarint(b, uint64(v)) }
	putFloat := func(x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			bad("float %v is not finite", x)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	putInt(len(strs))
	for _, s := range strs {
		putInt(len(s))
		b = append(b, s...)
	}
	putInt(int(man.DeltaOp))
	putInt(man.Scheme)
	putInt(at[man.Algorithm])
	for _, x := range []float64{man.Alpha, man.StorageCost, man.MSTCost, man.SPTCost} {
		putFloat(x)
	}
	feasible := 0
	if man.Feasible {
		feasible = 1
	}
	putInt(feasible)

	putInt(man.NextSeg)
	putInt(len(man.Segments))
	for _, sf := range man.Segments {
		putInt(at[sf.Name])
		putInt(int(sf.Size))
	}
	putInt(len(man.Chunks))
	for _, c := range man.Chunks {
		raw, herr := hex.DecodeString(c.Sum)
		if herr != nil || len(raw) != sha256.Size {
			bad("chunk digest %q", c.Sum)
		}
		b = append(b, raw...)
		for _, v := range []int64{int64(c.Seg), c.Off, c.Len} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}

	type refAt struct{ snap, name int }
	refs := map[MatrixRef]refAt{}
	putInt(len(man.Snapshots))
	for si, s := range man.Snapshots {
		putInt(at[s.ID])
		putFloat(s.Budget)
		putFloat(s.Recreation)
		putInt(len(s.Names))
		for ni, name := range s.Names {
			putInt(at[name])
			ref := MatrixRef{Snapshot: s.ID, Name: name}
			if _, ok := refs[ref]; !ok {
				refs[ref] = refAt{si, ni}
			}
		}
	}
	putInt(len(man.Nodes))
	for _, n := range man.Nodes {
		ref, ok := refs[n.Ref]
		if !ok {
			bad("node %d stores matrix %v, which no snapshot names", n.ID, n.Ref)
		}
		for _, v := range []int{n.ID, ref.snap, ref.name, n.Rows, n.Cols, n.Parent, n.PlaneStart, n.PlaneEnd, len(n.Chunks)} {
			putInt(v)
		}
		for _, c := range n.Chunks {
			putInt(c)
		}
	}
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// readManifest reads and validates dir's manifest and parts it into the plan
// and the layout.
func readManifest(dir string) (*manifest, *layout, error) {
	man, err := loadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	lay, err := validateManifest(man)
	if err != nil {
		return nil, nil, err
	}
	return man, lay, nil
}

// ManifestJSON renders the manifest of the archive in dir, whichever
// encoding it is stored in, as the version-3 JSON document Open also reads:
// the form in which other packages' tests read or edit the plan and its
// layout. It validates nothing.
func ManifestJSON(dir string) ([]byte, error) {
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	man.Version = jsonVersion
	return json.Marshal(man)
}

// loadManifest reads and decodes dir's manifest, unvalidated.
func loadManifest(dir string) (*manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStore, err)
	}
	man, err := decodeManifest(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrStore, err)
	}
	return man, nil
}

// decodeManifest decodes either encoding into the stored form: a binary
// record, or a version-3 JSON object.
func decodeManifest(blob []byte) (*manifest, error) {
	if bytes.HasPrefix(blob, []byte(manMagicPrefix)) {
		return decodeBinary(blob)
	}
	man := &manifest{}
	if err := json.Unmarshal(blob, man); err != nil {
		return nil, err
	}
	if man.Version != jsonVersion {
		return nil, fmt.Errorf("unsupported version %d", man.Version)
	}
	// Version 3 spells digests in hex; version 4 stores them raw.
	for i, c := range man.Chunks {
		if _, err := hex.DecodeString(c.Sum); err != nil || len(c.Sum) != 2*sha256.Size {
			return nil, fmt.Errorf("chunk %d has digest %q", i, c.Sum)
		}
	}
	return man, nil
}

// decodeBinary decodes a version-4 record (see the top of this file).
func decodeBinary(blob []byte) (*manifest, error) {
	if !bytes.HasPrefix(blob, []byte(manMagic)) {
		version, _, _ := bytes.Cut(blob[len(manMagicPrefix):min(len(blob), 32)], []byte("\n"))
		return nil, fmt.Errorf("unsupported version %q", version)
	}
	body := blob[len(manMagic):]
	if len(body) < manTrailerLen {
		return nil, fmt.Errorf("%d bytes end before the trailer", len(blob))
	}
	body, trailer := body[:len(body)-manTrailerLen], body[len(body)-manTrailerLen:]
	if sum := crc32.Checksum(blob[:len(blob)-manTrailerLen], castagnoli); sum != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("trailer %x is not the CRC-32C %08x of the record", trailer, sum)
	}
	d := &manDecoder{b: body}
	man := &manifest{Version: manifestVersion}

	strs := make([]string, d.count(1, "strings"))
	for i := range strs {
		s := d.take(d.varint(), "string")
		if !utf8.Valid(s) {
			d.fail("string %d is not UTF-8", i)
		}
		strs[i] = string(s)
	}

	op := d.varint()
	if op > math.MaxUint8 {
		d.fail("delta op %d", op)
	}
	man.DeltaOp = uint8(op)
	man.Scheme = d.varint()
	man.Algorithm = d.str(strs)
	man.Alpha = d.float()
	man.StorageCost = d.float()
	man.MSTCost = d.float()
	man.SPTCost = d.float()
	switch d.varint() {
	case 0:
	case 1:
		man.Feasible = true
	default:
		d.fail("feasible is neither 0 nor 1")
	}

	man.NextSeg = d.varint()
	man.Segments = make([]segFileInfo, d.count(2, "segments"))
	for i := range man.Segments {
		man.Segments[i] = segFileInfo{Name: d.str(strs), Size: int64(d.varint())}
	}

	// One string holds every hex digest; each entry's Sum is a slice of it.
	man.Chunks = make([]chunkEntry, d.count(manChunkLen, "chunks"))
	const hexLen = 2 * sha256.Size
	var sums strings.Builder
	sums.Grow(hexLen * len(man.Chunks))
	for i := range man.Chunks {
		rec := d.take(manChunkLen, "chunk")
		if rec == nil {
			break
		}
		var sum [hexLen]byte
		hex.Encode(sum[:], rec[:sha256.Size])
		sums.Write(sum[:])
		c := &man.Chunks[i]
		c.Seg = d.fixed(rec[sha256.Size:])
		c.Off = int64(d.fixed(rec[sha256.Size+8:]))
		c.Len = int64(d.fixed(rec[sha256.Size+16:]))
	}
	if d.err == nil {
		all := sums.String()
		for i := range man.Chunks {
			man.Chunks[i].Sum = all[i*hexLen : (i+1)*hexLen]
		}
	}

	man.Snapshots = make([]manifestSnap, d.count(18, "snapshots"))
	for i := range man.Snapshots {
		s := &man.Snapshots[i]
		s.ID = d.str(strs)
		s.Budget = d.float()
		s.Recreation = d.float()
		s.Names = make([]string, d.count(1, "names"))
		for j := range s.Names {
			s.Names[j] = d.str(strs)
		}
	}

	man.Nodes = make([]manifestNode, d.count(9, "nodes"))
	slab := make([]int, 0, floatenc.NumPlanes*len(man.Nodes)) // every node's chunk positions
	for i := range man.Nodes {
		n := &man.Nodes[i]
		n.ID = d.varint()
		si := d.index(len(man.Snapshots), "node snapshot")
		if d.err != nil {
			break
		}
		snap := &man.Snapshots[si]
		ni := d.index(len(snap.Names), "node name")
		if d.err != nil {
			break
		}
		n.Ref = MatrixRef{Snapshot: snap.ID, Name: snap.Names[ni]}
		n.Rows, n.Cols, n.Parent = d.varint(), d.varint(), d.varint()
		n.PlaneStart, n.PlaneEnd = d.varint(), d.varint()
		start := len(slab)
		for range d.count(1, "node chunks") {
			slab = append(slab, d.varint())
		}
		n.Chunks = slab[start:len(slab):len(slab)]
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return man, nil
}

// manDecoder reads a binary manifest body front to back. After its first
// failure every read returns a zero value and b is empty, so the loops of a
// refused record end at once; err keeps the first failure.
type manDecoder struct {
	b   []byte
	err error
}

func (d *manDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// varint reads a uvarint no larger than MaxInt.
func (d *manDecoder) varint() int {
	v, n := binary.Uvarint(d.b)
	switch {
	case n <= 0:
		d.fail("truncated or overlong varint")
		return 0
	case v > math.MaxInt:
		d.fail("varint %d exceeds MaxInt", v)
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// count reads the length of a table whose entries take at least least bytes
// each, refusing one the bytes left cannot hold.
func (d *manDecoder) count(least int, what string) int {
	n := d.varint()
	if n > len(d.b)/least {
		d.fail("%d %s cannot fit in the %d bytes left", n, what, len(d.b))
		return 0
	}
	return n
}

// index reads a position in a table of n entries.
func (d *manDecoder) index(n int, what string) int {
	i := d.varint()
	if i >= n {
		d.fail("%s %d is out of range [0, %d)", what, i, n)
		return 0
	}
	return i
}

// str reads a string as its position in the string table.
func (d *manDecoder) str(table []string) string {
	if i := d.index(len(table), "string"); d.err == nil {
		return table[i]
	}
	return ""
}

// take returns the next n bytes, or nil when fewer are left.
func (d *manDecoder) take(n int, what string) []byte {
	if n > len(d.b) {
		d.fail("%s of %d bytes runs past the %d bytes left", what, n, len(d.b))
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// float reads a finite float64.
func (d *manDecoder) float() float64 {
	raw := d.take(8, "float")
	if raw == nil {
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(raw))
	if math.IsNaN(x) || math.IsInf(x, 0) {
		d.fail("float %v is not finite", x)
		return 0
	}
	return x
}

// fixed reads a little-endian uint64 no larger than MaxInt from raw.
func (d *manDecoder) fixed(raw []byte) int {
	v := binary.LittleEndian.Uint64(raw)
	if v > math.MaxInt {
		d.fail("integer %d exceeds MaxInt", v)
		return 0
	}
	return int(v)
}

// validateManifest rejects a manifest whose fields would index out of range,
// overflow an allocation or name a node, segment or chunk that does not
// exist — every check a retrieval otherwise takes on trust. It parts a
// valid one: each node's chunk positions become its plane digests and
// lengths, and the layout moves into the returned one.
func validateManifest(man *manifest) (*layout, error) {
	bad := func(format string, args ...any) (*layout, error) {
		return nil, fmt.Errorf("%w: manifest: %s", ErrStore, fmt.Sprintf(format, args...))
	}
	if man.DeltaOp != uint8(deltaOp) {
		return bad("delta op %v is not %v", delta.Op(man.DeltaOp), deltaOp)
	}
	if !(man.Alpha >= 0) || math.IsInf(man.Alpha, 1) {
		return bad("alpha %v is not a finite non-negative number", man.Alpha)
	}
	for _, sf := range man.Segments {
		if n, ok := segNumber(sf.Name); !ok || n >= man.NextSeg {
			return bad("segment name %q with next_seg %d", sf.Name, man.NextSeg)
		}
		if sf.Size < int64(len(segMagic)) {
			return bad("segment %s is smaller than its magic", sf.Name)
		}
	}
	lay := &layout{NextSeg: man.NextSeg, Segments: man.Segments, Chunks: make(map[string]segLoc, len(man.Chunks))}
	for i, c := range man.Chunks {
		if _, dup := lay.Chunks[c.Sum]; dup {
			return bad("chunk %d repeats digest %.12s…", i, c.Sum)
		}
		lay.Chunks[c.Sum] = c.segLoc
		if c.Seg < 0 || c.Seg >= len(man.Segments) {
			return bad("chunk %d is in segment %d of %d", i, c.Seg, len(man.Segments))
		}
		if c.Len <= 0 || c.Off < int64(len(segMagic))+segRecordOverhead || c.Len > man.Segments[c.Seg].Size-c.Off {
			return bad("chunk %d at [%d, +%d) lies outside segment %s", i, c.Off, c.Len, man.Segments[c.Seg].Name)
		}
	}
	ranges := make(map[int][2]int, len(man.Nodes)) // node id → planes stored
	for i := range man.Nodes {
		n := &man.Nodes[i]
		if _, dup := ranges[n.ID]; n.ID < 1 || dup {
			return bad("node id %d is not positive and unique", n.ID)
		}
		fullRange := n.PlaneStart == 0 && n.PlaneEnd == 0
		if !fullRange && !(0 <= n.PlaneStart && n.PlaneStart < n.PlaneEnd && n.PlaneEnd <= floatenc.NumPlanes) {
			return bad("node %d stores planes [%d, %d)", n.ID, n.PlaneStart, n.PlaneEnd)
		}
		if n.Rows < 0 || n.Cols < 0 || (n.Cols > 0 && n.Rows > math.MaxInt/n.Cols) {
			return bad("node %d has shape %d x %d", n.ID, n.Rows, n.Cols)
		}
		start, end := nodePlanes(n)
		ranges[n.ID] = [2]int{start, end}
		if len(n.Chunks) != end-start {
			return bad("node %d names %d chunks for planes [%d, %d)", n.ID, len(n.Chunks), start, end)
		}
		for j, c := range n.Chunks {
			if c < 0 || c >= len(man.Chunks) {
				return bad("node %d names chunk %d of %d", n.ID, c, len(man.Chunks))
			}
			// Retrieval sizes the node's planes from its shape: no larger
			// than its payloads could inflate to.
			if int64(n.Rows*n.Cols)/maxInflateRatio > man.Chunks[c].Len {
				return bad("node %d has shape %d x %d, larger than its chunk %d inflates to", n.ID, n.Rows, n.Cols, c)
			}
			n.PlaneSum[start+j], n.PlaneBytes[start+j] = man.Chunks[c].Sum, int(man.Chunks[c].Len)
		}
		n.Chunks = nil
	}
	// A delta composes only over the planes both ends store.
	for i := range man.Nodes {
		n := &man.Nodes[i]
		if pr, ok := ranges[n.Parent]; n.Parent != 0 && pr != ranges[n.ID] {
			if !ok {
				return bad("node %d has unknown parent %d", n.ID, n.Parent)
			}
			return bad("node %d stores planes %v, its parent %d planes %v", n.ID, ranges[n.ID], n.Parent, pr)
		}
	}
	man.NextSeg, man.Segments, man.Chunks = 0, nil, nil
	return lay, nil
}

// maxInflateRatio is deflate's maximum expansion: no payload of n bytes
// inflates to more than 1032·n.
const maxInflateRatio = 1032
