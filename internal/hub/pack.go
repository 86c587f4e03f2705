// Package hub implements the hosted ModelHub service (paper Sec. III, Fig.
// 3): a server that stores published DLV repositories and lets modelers
// discover (search) and reuse (pull) them, plus the client used by the
// `dlv publish / search / pull` commands. Repositories travel as tar.gz
// archives of their .dlv directory.
package hub

import (
	"archive/tar"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ErrHub reports client/server-level failures.
var ErrHub = errors.New("hub: error")

// PackRepo archives the .dlv directory under root into a tar.gz stream.
// PAS segment files travel in stored blocks, as gzip.NoCompression writes
// them: PAS has already compressed them, so deflate's match search over
// them costs pack and unpack CPU for a fraction of a percent of bytes.
// Everything else — catalog, manifest, unarchived weights, directory
// entries, the end marker — is deflated at level 1. Each run of entries of
// one kind is its own gzip member, so an archived repository is three: its
// JSON, its segments, and the end marker with whatever sorts after pas/.
// UnpackRepo, like any gzip reader, reads the members as one stream
// (DESIGN §9, "Codec").
func PackRepo(root string, w io.Writer) error {
	meta := filepath.Join(root, ".dlv")
	if _, err := os.Stat(meta); err != nil {
		return fmt.Errorf("%w: no repository at %s", ErrHub, root)
	}
	mw, err := newMemberWriter(w)
	if err != nil {
		return err
	}
	tw := tar.NewWriter(mw)
	// begin first writes the previous entry's padding, so that each member
	// starts on an entry's header.
	begin := func(stored bool) error {
		if err := tw.Flush(); err != nil {
			return err
		}
		return mw.begin(stored)
	}
	err = filepath.Walk(meta, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		// Headers carry content only — name, type, size — and the modes
		// UnpackRepo creates anyway, never times or owners: the same
		// repository packs to the same bytes, and so the same digest, from
		// any checkout. Walk visits entries in lexical order.
		var hdr *tar.Header
		switch {
		case info.IsDir():
			hdr = &tar.Header{Name: rel + "/", Typeflag: tar.TypeDir, Mode: 0o755}
		case info.Mode().IsRegular():
			hdr = &tar.Header{Name: rel, Typeflag: tar.TypeReg, Mode: 0o644, Size: info.Size()}
		default:
			return fmt.Errorf("%s is not a regular file or directory", rel)
		}
		if err := begin(info.Mode().IsRegular() && isSegment(rel)); err != nil {
			return err
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if info.IsDir() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(tw, f)
		return err
	})
	if err == nil {
		err = begin(false)
	}
	if err != nil {
		return fmt.Errorf("%w: packing: %v", ErrHub, err)
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return mw.cur.Close()
}

// isSegment reports whether a packed file is a PAS segment
// (.dlv/pas/segments/seg-NNNNNN.seg), whose chunks PAS compressed already.
func isSegment(rel string) bool { return strings.HasSuffix(rel, ".seg") }

// memberWriter is PackRepo's gzip side. It writes to the current member,
// and begin closes that member and starts the next one of the other kind
// when the kind changes. Deflated members reuse one gzip.Writer; stored
// members need no compressor at all.
type memberWriter struct {
	w        io.Writer
	deflated *gzip.Writer
	stored   storedMember
	cur      io.WriteCloser // deflated or &stored
}

func newMemberWriter(w io.Writer) (*memberWriter, error) {
	gz, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
	return &memberWriter{w: w, deflated: gz, stored: storedMember{w: w}, cur: gz}, err
}

func (m *memberWriter) Write(p []byte) (int, error) { return m.cur.Write(p) }

func (m *memberWriter) begin(stored bool) error {
	var next io.WriteCloser = m.deflated
	if stored {
		next = &m.stored
	}
	if next == m.cur {
		return nil
	}
	if err := m.cur.Close(); err != nil {
		return err
	}
	m.cur = next
	if stored {
		return m.stored.begin()
	}
	m.deflated.Reset(m.w)
	return nil
}

// storedMember writes a gzip member (RFC 1952) whose deflate stream is
// stored blocks only (RFC 1951 §3.2.4), what gzip.NoCompression writes,
// without the compressor and window gzip.Writer allocates for it: each
// Write goes out as blocks of at most 65,535 bytes, and Close ends the
// stream with an empty final block and the CRC-32 and size trailer.
type storedMember struct {
	w    io.Writer
	crc  uint32
	size uint32 // modulo 2^32, as the trailer's ISIZE
}

// storedHeader is the member header gzip.Writer writes at NoCompression:
// magic, deflate, no flags, no time, no extra flags, unknown OS.
var storedHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}

func (m *storedMember) begin() error {
	m.crc, m.size = 0, 0
	_, err := m.w.Write(storedHeader)
	return err
}

func (m *storedMember) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		k := min(len(p), 0xffff)
		if err := m.block(p[:k], false); err != nil {
			return n, err
		}
		m.crc = crc32.Update(m.crc, crc32.IEEETable, p[:k])
		m.size += uint32(k)
		n, p = n+k, p[k:]
	}
	return n, nil
}

// block writes one stored block: a byte that holds BFINAL and BTYPE 00,
// then LEN and its complement NLEN, then the bytes.
func (m *storedMember) block(p []byte, final bool) error {
	hdr := [5]byte{0, byte(len(p)), byte(len(p) >> 8), ^byte(len(p)), ^byte(len(p) >> 8)}
	if final {
		hdr[0] = 1
	}
	if _, err := m.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := m.w.Write(p)
	return err
}

func (m *storedMember) Close() error {
	if err := m.block(nil, true); err != nil {
		return err
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[:4], m.crc)
	binary.LittleEndian.PutUint32(trailer[4:], m.size)
	_, err := m.w.Write(trailer[:])
	return err
}

// maxUnpackRatio bounds what UnpackRepo extracts to this multiple of
// maxPublishBytes, so an upload that inspect unpacks cannot fill the
// server's disk as a gzip bomb. PackRepo's stored segments expand about
// 1:1, but its deflated JSON and blobs packed whole at level 1 or 6 expand
// more, and a JSON-heavy repository packs about 15:1; twice that still
// passes (DESIGN §9, "Codec").
const maxUnpackRatio = 32

// UnpackRepo extracts a tar.gz produced by PackRepo into root. Paths are
// sanitized: entries must stay under ".dlv/" and may not traverse upward.
// Each entry counts as its size plus one 512-byte header block, and the
// archive is refused before the total passes maxUnpackRatio×maxPublishBytes.
// The gzip trailer is verified after the tar end marker, so a truncated or
// checksum-corrupted archive is always reported even when the tar stream
// itself looked complete.
func UnpackRepo(r io.Reader, root string) (err error) {
	limit, extracted := maxUnpackRatio*maxPublishBytes, int64(0)
	gz, err := gzip.NewReader(r)
	if err != nil {
		return fmt.Errorf("%w: bad archive: %v", ErrHub, err)
	}
	defer func() {
		if cerr := gz.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("%w: corrupt archive: %v", ErrHub, cerr)
		}
	}()
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			// The tar end marker can arrive before the gzip stream ends.
			// Drain the remainder so gzip verifies its CRC/length trailer —
			// a truncated trailer must not pass as a clean unpack.
			if _, derr := io.Copy(io.Discard, gz); derr != nil {
				return fmt.Errorf("%w: corrupt archive: %v", ErrHub, derr)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: reading archive: %v", ErrHub, err)
		}
		if hdr.Size > limit-extracted-512 { // extracted <= limit: no overflow
			return fmt.Errorf("%w: archive expands past %d bytes", ErrHub, limit)
		}
		extracted += 512 + hdr.Size
		clean := filepath.Clean(filepath.FromSlash(hdr.Name))
		// Only a literal ".." path element traverses upward; a name that
		// merely starts with two dots (e.g. "..foo") is legitimate.
		if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) || filepath.IsAbs(clean) {
			return fmt.Errorf("%w: archive entry escapes root: %q", ErrHub, hdr.Name)
		}
		if clean != ".dlv" && !strings.HasPrefix(clean, ".dlv"+string(filepath.Separator)) {
			return fmt.Errorf("%w: archive entry outside .dlv: %q", ErrHub, hdr.Name)
		}
		dest := filepath.Join(root, clean)
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(dest, 0o755); err != nil {
				return fmt.Errorf("%w: %v", ErrHub, err)
			}
		case tar.TypeReg:
			if err := os.MkdirAll(filepath.Dir(dest), 0o755); err != nil {
				return fmt.Errorf("%w: %v", ErrHub, err)
			}
			f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrHub, err)
			}
			if _, err := io.Copy(f, tr); err != nil { //nolint:gosec // hdr.Size is within the unpack bound
				_ = f.Close() //mhlint:ignore errcheck the copy error takes precedence over cleanup
				return fmt.Errorf("%w: %v", ErrHub, err)
			}
			if err := f.Close(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unsupported archive entry type %d", ErrHub, hdr.Typeflag)
		}
	}
}
