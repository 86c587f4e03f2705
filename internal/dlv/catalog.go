package dlv

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"modelhub/internal/atomicfile"
	"modelhub/internal/dnn"
)

// The catalog is .dlv/catalog.json: one record per model version, in id
// order, written as one compact JSON document under a generation that each
// save increments (lock.go). Every Commit, Archive and Repack rewrites
// it through atomicfile, so a crash leaves the previous catalog or the new
// one, never a torn file.

// record is one model version as the catalog stores it: the Version view
// plus its training log.
type record struct {
	Version
	Log []dnn.LogEntry
}

// catalogDoc is the catalog file. Generation leads the document, so a
// writer checks it without decoding the versions.
type catalogDoc struct {
	Generation int64    `json:"generation"`
	Versions   []record `json:"versions"`
}

func byID(rec record, id int64) int { return cmp.Compare(rec.ID, id) }

// find returns the record of version id, or nil. The caller holds r.mu.
func (r *Repo) find(id int64) *record {
	i, ok := slices.BinarySearchFunc(r.versions, id, byID)
	if !ok {
		return nil
	}
	return &r.versions[i]
}

// version returns a copy of the record's Version that shares nothing with
// the catalog.
func (rec *record) version() *Version {
	v := rec.Version
	v.NetDef = v.NetDef.Clone()
	v.Hyper = cloneMap(v.Hyper)
	v.Snapshots = slices.Clone(v.Snapshots)
	v.Files = cloneMap(v.Files)
	return &v
}

// cloneMap copies m; unlike maps.Clone it never returns nil.
func cloneMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// saveCatalog makes recs durable as the catalog, one generation on, and
// then the repository's view of it. The caller holds the writer lock and
// r.mu for writing, and does not change recs afterwards.
func (r *Repo) saveCatalog(recs []record) error {
	gen := r.gen + 1
	blob, err := json.Marshal(catalogDoc{Generation: gen, Versions: recs})
	if err != nil {
		return fmt.Errorf("%w: encoding the catalog: %v", ErrRepo, err)
	}
	if err := atomicfile.WriteFile(filepath.Join(r.root, dlvDir, catalogFile), blob); err != nil {
		return fmt.Errorf("%w: saving the catalog: %v", ErrRepo, err)
	}
	r.versions, r.gen = recs, gen
	return nil
}

// touchCatalog saves the catalog unchanged, one generation on, after a
// change to the archive alone: other handles then drop theirs.
func (r *Repo) touchCatalog() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.saveCatalog(r.versions)
}

// loadCatalog reads and checks a catalog file and returns its records and
// generation.
func loadCatalog(path string) ([]record, int64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrRepo, err)
	}
	recs, err := parseCatalog(blob)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: catalog %s: %v", ErrRepo, path, err)
	}
	return recs, catalogGeneration(bytes.NewReader(blob)), nil
}

// parseCatalog decodes a catalog and checks every record.
// The file travels inside pulled repositories, so nothing in it is trusted:
// a record the rest of the package could not use fails here, not later.
func parseCatalog(blob []byte) ([]record, error) {
	var doc catalogDoc
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(blob[dec.InputOffset():])) > 0 {
		return nil, errors.New("data after the document")
	}
	recs := doc.Versions
	if recs == nil {
		return nil, errors.New("the document holds no versions")
	}
	slices.SortFunc(recs, func(a, b record) int { return cmp.Compare(a.ID, b.ID) })
	for i := range recs {
		if err := checkRecord(recs[:i], &recs[i]); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// checkRecord enforces what the package relies on of a version, given the
// versions before it in id order.
func checkRecord(prev []record, rec *record) error {
	v := &rec.Version
	if v.ID <= 0 || len(prev) > 0 && v.ID <= prev[len(prev)-1].ID {
		return fmt.Errorf("version id %d is not positive and unique", v.ID)
	}
	if v.Name == "" {
		return fmt.Errorf("version %d has no name", v.ID)
	}
	if v.NetDef == nil {
		return fmt.Errorf("version %d has no network definition", v.ID)
	}
	if err := v.NetDef.Validate(); err != nil {
		return fmt.Errorf("version %d: %w", v.ID, err)
	}
	if _, ok := slices.BinarySearchFunc(prev, v.ParentID, byID); v.ParentID != 0 && !ok {
		return fmt.Errorf("version %d names parent %d, which is not an earlier version", v.ID, v.ParentID)
	}
	seen := make(map[string]bool, len(v.Snapshots))
	for _, snap := range v.Snapshots {
		if snap == "" || seen[snap] {
			return fmt.Errorf("version %d: snapshot label %q is empty or repeated", v.ID, snap)
		}
		seen[snap] = true
	}
	for path, sha := range v.Files {
		if !isSHA256Hex(sha) {
			return fmt.Errorf("version %d: file %q has object id %q, not 64 lowercase hex digits", v.ID, path, sha)
		}
	}
	return nil
}

// isSHA256Hex reports whether s names an object as putObject does.
func isSHA256Hex(s string) bool {
	sum, err := hex.DecodeString(s)
	return err == nil && len(sum) == sha256.Size && hex.EncodeToString(sum) == s
}
