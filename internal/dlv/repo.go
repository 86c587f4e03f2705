// Package dlv implements the DLV model versioning system (paper Sec. III):
// a git-like version control system specialized for DNN modeling artifacts.
// A repository stores, per model version: the network definition N, the
// learned weights W, extracted metadata M (hyperparameters, per-iteration
// training measurements), and associated files F (content-addressed, like
// git blobs). N, M, the names of F and the parent that records lineage are
// one catalog record per version (catalog.go).
//
// A version's weights live in exactly one place: a raw file written at
// commit until the version's first `dlv archive`, the PAS archive after it.
// Archive moves them and deletes the raw file once the archive and the
// catalog's archived flag are durable.
package dlv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"modelhub/internal/atomicfile"
	"modelhub/internal/pas"
)

// Directory layout inside a repository root.
const (
	dlvDir      = ".dlv"
	catalogFile = "catalog.json"
	objectsDir  = "objects"
	weightsDir  = "weights"
	pasDir      = "pas"
)

// ErrRepo reports repository-level failures.
var ErrRepo = errors.New("dlv: repository error")

// Repo is an opened DLV repository.
type Repo struct {
	root string
	// mu guards versions, the catalog in id order, and gen, its generation
	// (lock.go). A change saves a new slice and then swaps it in, so records
	// are never modified in place.
	mu       sync.RWMutex
	versions []record
	gen      int64
	// now is the clock, replaceable in tests.
	now func() time.Time

	// pasMu guards pasStore, the memoized opened archive. Keeping one
	// *pas.Store per Repo lets the concurrent retrieval engine's plane LRU
	// persist across Weights/WeightIntervals calls.
	pasMu    sync.Mutex
	pasStore *pas.Store
}

// Init creates a new repository in root (which must exist).
func Init(root string) (*Repo, error) {
	meta := filepath.Join(root, dlvDir)
	if _, err := os.Stat(meta); err == nil {
		return nil, fmt.Errorf("%w: repository already exists at %s", ErrRepo, root)
	}
	for _, d := range []string{meta, filepath.Join(meta, objectsDir), filepath.Join(meta, weightsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRepo, err)
		}
	}
	r := &Repo{root: root, now: time.Now}
	if err := r.saveCatalog([]record{}); err != nil {
		return nil, err
	}
	return r, nil
}

// Open loads an existing repository. The whole catalog is read and checked
// here, so a malformed or inconsistent one fails Open with ErrRepo.
func Open(root string) (*Repo, error) {
	meta := filepath.Join(root, dlvDir)
	if _, err := os.Stat(meta); err != nil {
		return nil, fmt.Errorf("%w: no repository at %s", ErrRepo, root)
	}
	recs, gen, err := loadCatalog(filepath.Join(meta, catalogFile))
	if err != nil {
		return nil, err
	}
	return &Repo{root: root, versions: recs, gen: gen, now: time.Now}, nil
}

// Root returns the repository root directory.
func (r *Repo) Root() string { return r.root }

// putObject stores content in the content-addressed object store and
// returns its hex SHA-256. The object is written durably (atomicfile), and
// an existing file dedups the write only when it holds exactly this
// content: a torn object, left by a crash in a non-atomic write, is
// replaced rather than pointed at.
func (r *Repo) putObject(content []byte) (string, error) {
	sum := sha256.Sum256(content)
	sha := hex.EncodeToString(sum[:])
	path := filepath.Join(r.root, dlvDir, objectsDir, sha)
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, content) {
		return sha, nil // dedup
	}
	if err := atomicfile.WriteFile(path, content); err != nil {
		return "", fmt.Errorf("%w: storing object: %v", ErrRepo, err)
	}
	return sha, nil
}

// GetObject retrieves content by SHA-256, verifying integrity.
func (r *Repo) GetObject(sha string) ([]byte, error) {
	path := filepath.Join(r.root, dlvDir, objectsDir, sha)
	content, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: object %s: %v", ErrRepo, sha, err)
	}
	sum := sha256.Sum256(content)
	if hex.EncodeToString(sum[:]) != sha {
		return nil, fmt.Errorf("%w: object %s is corrupt", ErrRepo, sha)
	}
	return content, nil
}
