package hub

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"modelhub/internal/atomicfile"
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
	//mhlint:ignore errcheck best-effort cleanup; load sweeps tmpPrefix strays at next startup
	_ = os.Remove(sp.f.Name())
	sp.f = nil
}

// commit promotes a spooled, digest-verified upload and its record into the
// store under the per-name lock and one last-writer-wins rule. A record
// without a stamp is a client publish: commit stamps it max(now, previous
// stamp + 1 ns), so it always replaces the current entry. A stamped record
// (a replica push or a repair pull) replaces the entry unless the entry is
// newerThan it; equal records are re-taken on purpose, which is how repair
// overwrites a corrupt blob. When it declines, stored is false.
//
// The order: fsync the spool file; rename it to the blob; write the record
// through atomicfile, whose directory fsync makes the blob's rename durable
// too; update the in-memory index; unlink the superseded record, then its
// blob. A concurrent pull never sees a torn archive, an acknowledged commit
// survives power loss, and a crash at any point leaves files load removes.
// commit consumes sp and returns the record as stored.
func (s *Server) commit(sp *spooled, info RepoInfo) (_ RepoInfo, stored bool, _ error) {
	defer sp.discard()
	if err := syncClose(sp.f); err != nil {
		return info, false, err
	}
	unlock := s.lockName(info.Name)
	defer unlock()
	s.mu.RLock()
	prev, exists := s.index[info.Name]
	s.mu.RUnlock()
	if info.PublishedAt == "" {
		stamp := s.now().UTC()
		if floor := publishedInstant(prev).Add(time.Nanosecond); exists && stamp.Before(floor) {
			stamp = floor
		}
		info.PublishedAt = stamp.Format(time.RFC3339Nano)
	} else if exists && newerThan(prev, info) {
		return info, false, nil
	}
	blob := s.blobPath(info.Name, info.SHA256)
	if err := os.Rename(sp.f.Name(), blob); err != nil {
		return info, false, err
	}
	sp.f = nil
	replaced := exists && prev.SHA256 != info.SHA256
	if err := s.writeRecord(info); err != nil {
		if !exists || replaced {
			// Both files are this commit's own; load removes what stays.
			//mhlint:ignore errcheck best-effort cleanup of an unacknowledged commit
			_ = os.Remove(s.recordPath(info.Name, info.SHA256))
			//mhlint:ignore errcheck best-effort cleanup of an unacknowledged commit
			_ = os.Remove(blob)
		}
		return info, false, err
	}
	s.mu.Lock()
	s.index[info.Name] = info
	s.mu.Unlock()
	if replaced {
		// In-flight pulls keep their open handle on the old blob; new pulls
		// already resolve the new digest. A pair left behind here is the
		// older one, and load removes it.
		//mhlint:ignore errcheck best-effort removal; load sweeps what stays
		_ = os.Remove(s.recordPath(info.Name, prev.SHA256))
		//mhlint:ignore errcheck best-effort removal; load sweeps what stays
		_ = os.Remove(s.blobPath(info.Name, prev.SHA256))
	}
	return info, true, nil
}

// writeRecord writes info as its blob's record: temp file, fsync, rename,
// directory fsync.
func (s *Server) writeRecord(info RepoInfo) error {
	meta, err := json.Marshal(info)
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(s.recordPath(info.Name, info.SHA256), meta)
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
	defer repo.Close() // before RemoveAll, so no handle outlives its unlinked file
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
