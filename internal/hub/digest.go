package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
)

// DigestHeader carries the hex SHA-256 of a transferred archive. Publishes
// send it so the server can verify the upload end to end; pulls receive it
// so the client can verify the download and guard resumed Range requests
// (via If-Range on the matching ETag).
const DigestHeader = "X-Content-SHA256"

// digestString renders a finished SHA-256 sum as the lowercase hex form used
// in DigestHeader, ETags, and blob file names.
func digestString(sum []byte) string { return hex.EncodeToString(sum) }

// fileDigest returns the hex SHA-256 of a file on disk: anti-entropy repair
// checks a stored blob against its digest with it.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("%w: hashing %s: %v", ErrHub, path, err)
	}
	return digestString(h.Sum(nil)), nil
}

// etagFor wraps a digest in the strong-ETag quoting http.ServeContent and
// If-Range expect.
func etagFor(digest string) string { return `"` + digest + `"` }
