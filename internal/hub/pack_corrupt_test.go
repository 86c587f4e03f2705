package hub

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tarGz builds a tar.gz archive with the given entries in memory.
func tarGz(t testing.TB, entries map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for name, body := range entries {
		hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(len(body)), Typeflag: tar.TypeReg}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A truncated gzip trailer (CRC/length cut off after the tar end marker)
// must surface as an error, not a silently short unpack.
func TestUnpackDetectsTruncatedGzipTrailer(t *testing.T) {
	blob := tarGz(t, map[string]string{".dlv/config": "x"})
	// The gzip trailer is the last 8 bytes (CRC32 + ISIZE). Cut into it.
	truncated := blob[:len(blob)-4]
	err := UnpackRepo(bytes.NewReader(truncated), t.TempDir())
	if err == nil {
		t.Fatal("truncated gzip trailer unpacked cleanly")
	}
	if !errors.Is(err, ErrHub) {
		t.Fatalf("error not wrapped as ErrHub: %v", err)
	}
}

// A flipped byte in the stored CRC must fail the unpack.
func TestUnpackDetectsCorruptGzipCRC(t *testing.T) {
	blob := tarGz(t, map[string]string{".dlv/config": "x"})
	blob[len(blob)-8] ^= 0xff // first CRC byte of the gzip trailer
	err := UnpackRepo(bytes.NewReader(blob), t.TempDir())
	if err == nil {
		t.Fatal("corrupt gzip CRC unpacked cleanly")
	}
	if !errors.Is(err, ErrHub) {
		t.Fatalf("error not wrapped as ErrHub: %v", err)
	}
}

// "..foo" is a legitimate file name, not upward traversal; it must be
// classified as "outside .dlv", not rejected as escaping the root.
func TestUnpackDotDotPrefixNameNotTraversal(t *testing.T) {
	blob := tarGz(t, map[string]string{"..foo": "x"})
	err := UnpackRepo(bytes.NewReader(blob), t.TempDir())
	if err == nil {
		t.Fatal("entry outside .dlv unpacked cleanly")
	}
	if strings.Contains(err.Error(), "escapes root") {
		t.Fatalf("%q misclassified as traversal: %v", "..foo", err)
	}
	if !strings.Contains(err.Error(), "outside .dlv") {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
}

// A dot-dot-prefixed name nested under .dlv is accepted and extracted.
func TestUnpackAcceptsDotDotPrefixedNameInsideDlv(t *testing.T) {
	blob := tarGz(t, map[string]string{".dlv/..cache": "payload"})
	root := t.TempDir()
	if err := UnpackRepo(bytes.NewReader(blob), root); err != nil {
		t.Fatalf("legitimate ..-prefixed name rejected: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(root, ".dlv", "..cache"))
	if err != nil || string(got) != "payload" {
		t.Fatalf("extracted file = %q, %v", got, err)
	}
}

// Real traversal still dies, for every spelling.
func TestUnpackStillRejectsRealTraversal(t *testing.T) {
	for _, name := range []string{"../evil", "..", ".dlv/../../evil", "/abs/evil"} {
		blob := tarGz(t, map[string]string{name: "x"})
		err := UnpackRepo(bytes.NewReader(blob), t.TempDir())
		if err == nil {
			t.Fatalf("%q unpacked cleanly", name)
		}
		if !errors.Is(err, ErrHub) {
			t.Fatalf("%q: error not wrapped as ErrHub: %v", name, err)
		}
	}
}

// Truncation inside a file body (mid-deflate) is also reported.
func TestUnpackDetectsTruncatedBody(t *testing.T) {
	blob := tarGz(t, map[string]string{".dlv/weights": strings.Repeat("w", 1<<16)})
	err := UnpackRepo(bytes.NewReader(blob[:len(blob)/2]), t.TempDir())
	if err == nil {
		t.Fatal("half an archive unpacked cleanly")
	}
	if !errors.Is(err, ErrHub) {
		t.Fatalf("error not wrapped as ErrHub: %v", err)
	}
}
