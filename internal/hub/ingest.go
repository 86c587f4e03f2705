package hub

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"modelhub/internal/dlv"
)

// Ingest is how uploaded bytes become a stored blob. Every entrance — a
// client publish, /api/replicate, the relay of a non-owner node or the
// gateway, repair's re-pull — runs spool → verify → [inspect] → commit, and
// this file is the only place that knows how each step is done.

// ingestError is a rejected upload, carrying the status its HTTP entrance
// answers: 413 beyond maxPublishBytes, 400 for a cut body or a digest
// mismatch. Any other spool failure is the server's own (500).
type ingestError struct {
	status int
	msg    string
}

func (e *ingestError) Error() string { return e.msg }

// ingestFailed answers a failed spool on an HTTP entrance.
func ingestFailed(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ie *ingestError
	if errors.As(err, &ie) {
		status = ie.status
	}
	http.Error(w, err.Error(), status)
}

// spooled is an upload that landed whole in a temp file and matched the
// digest its sender declared. The holder either commits it or discards it.
type spooled struct {
	f      *os.File // nil once committed or discarded
	digest string
	size   int64
}

// spool streams body to a temp file in dir ("" selects os.TempDir), hashing
// as it lands: no whole-archive buffer in memory, and nothing visible to
// search or pull. A non-empty wantDigest must match the streamed bytes.
// Nothing is left behind on failure. The file is not fsynced — a relay reads
// it back and deletes it; commit syncs before the rename that needs it.
func spool(dir string, body io.Reader, wantDigest string) (*spooled, error) {
	f, err := os.CreateTemp(dir, tmpPrefix+"spool-*")
	if err != nil {
		return nil, err
	}
	sp := &spooled{f: f}
	h := sha256.New()
	sp.size, err = io.Copy(io.MultiWriter(f, h), io.LimitReader(body, maxPublishBytes+1))
	sp.digest = digestString(h.Sum(nil))
	var rejected *ingestError
	switch {
	case err != nil:
		// The sender disconnected or the body was malformed mid-upload.
		rejected = &ingestError{http.StatusBadRequest, "upload aborted or unreadable: " + err.Error()}
	case sp.size > maxPublishBytes:
		rejected = &ingestError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("archive exceeds the %d-byte publish limit", maxPublishBytes)}
	case wantDigest != "" && !strings.EqualFold(wantDigest, sp.digest):
		mDigestMismatch.Inc()
		rejected = &ingestError{http.StatusBadRequest,
			fmt.Sprintf("digest mismatch: body is %s, sender declared %s", sp.digest, wantDigest)}
	}
	if rejected != nil {
		sp.discard()
		return nil, rejected
	}
	return sp, nil
}

// discard closes and removes the temp file; a no-op after commit, so every
// holder can defer it.
func (sp *spooled) discard() {
	if sp.f == nil {
		return
	}
	//mhlint:ignore errcheck best-effort cleanup; the holder's outcome is already decided
	_ = sp.f.Close()
	//mhlint:ignore errcheck best-effort cleanup; reconcile sweeps tmpPrefix strays at next startup
	_ = os.Remove(sp.f.Name())
	sp.f = nil
}

// acceptAlways is the commit policy of a client publish: it replaces
// whatever record the name has.
func acceptAlways(RepoInfo, bool) bool { return true }

// commit promotes a spooled, digest-verified upload and its record into the
// store: fsync, then under the per-name lock blob rename, directory fsync,
// index record (appended and fsynced, index.go), superseded-blob unlink last
// — so concurrent publishes of one name serialize, a concurrent pull never
// sees a torn archive, an acknowledged commit survives power loss, and a
// crash at any point is reconciled away at the next startup. accept decides,
// given the current entry, whether the incoming record replaces it; when it
// declines stored is false. Either way commit consumes sp: nothing is left
// to discard.
func (s *Server) commit(sp *spooled, info RepoInfo, accept func(prev RepoInfo, exists bool) bool) (stored bool, err error) {
	defer sp.discard()
	if err := syncClose(sp.f); err != nil {
		return false, err
	}
	unlock := s.lockName(info.Name)
	defer unlock()
	s.mu.RLock()
	prev, exists := s.index[info.Name]
	s.mu.RUnlock()
	if !accept(prev, exists) {
		return false, nil
	}
	if err := os.Rename(sp.f.Name(), s.blobPath(info.Name, info.SHA256)); err != nil {
		return false, err
	}
	sp.f = nil
	// record fsyncs the directory, and so the rename, before it appends. A
	// blob the index never records is swept by reconcile at the next
	// startup, so a failure from here on leaves nothing visible behind.
	if err := s.record(info); err != nil {
		return false, err
	}
	if exists && prev.SHA256 != info.SHA256 {
		// Unlink the superseded blob. In-flight pulls keep their open file
		// handle; new pulls already resolve the new digest.
		//mhlint:ignore errcheck best-effort removal; reconcile sweeps strays at next startup
		_ = os.Remove(s.blobPath(info.Name, prev.SHA256))
	}
	return true, nil
}

// inspectArchive unpacks a spooled archive into a temp dir and lists its
// model names, validating the archive in the process. For repositories with
// an archived version, the first archived snapshot is probed at byte-plane
// prefix 1 through the PAS concurrent engine — a cheap high-plane integrity
// check that rejects archives whose parameter store cannot be read back.
// Only a client publish is inspected: replicate and repair carry the owner's
// record of an archive it already inspected, and verify the digest.
func inspectArchive(ctx context.Context, path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tmp, err := os.MkdirTemp("", "hub-inspect-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if err := UnpackRepo(f, tmp); err != nil {
		return nil, err
	}
	repo, err := dlv.Open(tmp)
	if err != nil {
		return nil, err
	}
	versions, err := repo.List()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var models []string
	probed := false
	for _, v := range versions {
		if !seen[v.Name] {
			seen[v.Name] = true
			models = append(models, v.Name)
		}
		if !probed && v.Archived && len(v.Snapshots) > 0 {
			probed = true
			if _, err := repo.WeightsCtx(ctx, v.ID, v.Snapshots[0], 1); err != nil {
				return nil, fmt.Errorf("%w: archived weights unreadable: %v", ErrHub, err)
			}
		}
	}
	sort.Strings(models)
	return models, nil
}
