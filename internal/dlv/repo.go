// Package dlv implements the DLV model versioning system (paper Sec. III):
// a git-like version control system specialized for DNN modeling artifacts.
// A repository stores, per model version: the network definition N (as
// node/edge relations), the learned weights W, extracted metadata M (hyper-
// parameters, per-iteration training measurements), and associated files F
// (content-addressed, like git blobs). Lineage between versions lives in
// the parent relation.
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
	"modelhub/internal/catalog"
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
	db   *catalog.DB
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
	db, err := catalog.Open(filepath.Join(meta, catalogFile))
	if err != nil {
		return nil, err
	}
	if err := createSchema(db); err != nil {
		return nil, err
	}
	if err := db.Save(); err != nil {
		return nil, err
	}
	return &Repo{root: root, db: db, now: time.Now}, nil
}

// Open loads an existing repository.
func Open(root string) (*Repo, error) {
	meta := filepath.Join(root, dlvDir)
	if _, err := os.Stat(meta); err != nil {
		return nil, fmt.Errorf("%w: no repository at %s", ErrRepo, root)
	}
	db, err := catalog.Open(filepath.Join(meta, catalogFile))
	if err != nil {
		return nil, err
	}
	if !db.HasTable("model_version") {
		return nil, fmt.Errorf("%w: catalog missing model_version table", ErrRepo)
	}
	return &Repo{root: root, db: db, now: time.Now}, nil
}

// Root returns the repository root directory.
func (r *Repo) Root() string { return r.root }

// DB exposes the relational catalog (used by DQL).
func (r *Repo) DB() *catalog.DB { return r.db }

func createSchema(db *catalog.DB) error {
	schemas := []catalog.Schema{
		{Name: "model_version", Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int, Primary: true},
			{Name: "name", Type: catalog.Text, Indexed: true},
			{Name: "netdef", Type: catalog.Text},
			{Name: "msg", Type: catalog.Text},
			{Name: "created", Type: catalog.Text},
			{Name: "accuracy", Type: catalog.Float},
			{Name: "archived", Type: catalog.Bool},
		}},
		{Name: "node", Columns: []catalog.Column{
			{Name: "version_id", Type: catalog.Int, Indexed: true},
			{Name: "name", Type: catalog.Text},
			{Name: "kind", Type: catalog.Text},
			{Name: "attrs", Type: catalog.Text},
		}},
		{Name: "edge", Columns: []catalog.Column{
			{Name: "version_id", Type: catalog.Int, Indexed: true},
			{Name: "efrom", Type: catalog.Text},
			{Name: "eto", Type: catalog.Text},
		}},
		{Name: "parent", Columns: []catalog.Column{
			{Name: "base", Type: catalog.Int},
			{Name: "derived", Type: catalog.Int, Indexed: true},
			{Name: "msg", Type: catalog.Text},
		}},
		{Name: "metadata", Columns: []catalog.Column{
			{Name: "version_id", Type: catalog.Int, Indexed: true},
			{Name: "mkey", Type: catalog.Text},
			{Name: "mvalue", Type: catalog.Text},
		}},
		{Name: "trainlog", Columns: []catalog.Column{
			{Name: "version_id", Type: catalog.Int, Indexed: true},
			{Name: "iter", Type: catalog.Int},
			{Name: "loss", Type: catalog.Float},
			{Name: "acc", Type: catalog.Float},
			{Name: "lr", Type: catalog.Float},
		}},
		{Name: "snapshot", Columns: []catalog.Column{
			{Name: "version_id", Type: catalog.Int, Indexed: true},
			{Name: "snap", Type: catalog.Text},
			{Name: "iter", Type: catalog.Int},
			{Name: "latest", Type: catalog.Bool},
		}},
		{Name: "file", Columns: []catalog.Column{
			{Name: "version_id", Type: catalog.Int, Indexed: true},
			{Name: "path", Type: catalog.Text},
			{Name: "sha", Type: catalog.Text},
		}},
	}
	for _, s := range schemas {
		if err := db.CreateTable(s); err != nil {
			return err
		}
	}
	return nil
}

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
