// Package hub implements the hosted ModelHub service (paper Sec. III, Fig.
// 3): a server that stores published DLV repositories and lets modelers
// discover (search) and reuse (pull) them, plus the client used by the
// `dlv publish / search / pull` commands. Repositories travel as tar.gz
// archives of their .dlv directory.
package hub

import (
	"archive/tar"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ErrHub reports client/server-level failures.
var ErrHub = errors.New("hub: error")

// PackRepo archives the .dlv directory under root into a tar.gz stream.
// Level 1 (BestSpeed) emits stored blocks for what deflate cannot shrink, so
// the PAS segment, already compressed by PAS, is copied through while the
// catalog and manifest JSON still compress (DESIGN §9, "Codec").
func PackRepo(root string, w io.Writer) error {
	meta := filepath.Join(root, ".dlv")
	if _, err := os.Stat(meta); err != nil {
		return fmt.Errorf("%w: no repository at %s", ErrHub, root)
	}
	gz, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
	if err != nil {
		return err
	}
	tw := tar.NewWriter(gz)
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
	if err != nil {
		return fmt.Errorf("%w: packing: %v", ErrHub, err)
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// maxUnpackRatio bounds what UnpackRepo extracts to this multiple of
// maxPublishBytes, so an upload that inspect unpacks cannot fill the
// server's disk as a gzip bomb. A JSON-heavy repository packs about 15:1;
// twice that still passes (DESIGN §9, "Codec").
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
