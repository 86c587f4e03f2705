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
// order, written as one compact JSON document. Every Commit and Archive
// rewrites it through atomicfile, so a crash leaves the previous catalog or
// the new one, never a torn file.

// record is one model version as the catalog stores it: the Version view
// plus its training log.
type record struct {
	Version
	Log []dnn.LogEntry
}

// catalogDoc is the catalog file. Versions is the form this package writes.
// Tables is the relational form that repositories and hub blobs written
// before it hold; Open reads it through fromTables, and the next save
// replaces it.
type catalogDoc struct {
	Versions []record      `json:"versions"`
	Tables   []legacyTable `json:"tables,omitempty"`
}

// legacyTable is one table of the relational form. Columns is not used;
// it is declared so that the strict decoder accepts it.
type legacyTable struct {
	Schema struct {
		Name    string          `json:"name"`
		Columns json.RawMessage `json:"columns"`
	} `json:"schema"`
	Rows []json.RawMessage `json:"rows"`
}

// legacyRow holds a row of any relational table fromTables reads; each
// table fills the columns it has.
type legacyRow struct {
	ID        int64   `json:"id"`
	Name      string  `json:"name"`
	NetDef    string  `json:"netdef"`
	Msg       string  `json:"msg"`
	Created   string  `json:"created"`
	Accuracy  float64 `json:"accuracy"`
	Archived  bool    `json:"archived"`
	VersionID int64   `json:"version_id"`
	Base      int64   `json:"base"`
	Derived   int64   `json:"derived"`
	MKey      string  `json:"mkey"`
	MValue    string  `json:"mvalue"`
	Iter      int     `json:"iter"`
	Loss      float64 `json:"loss"`
	Acc       float64 `json:"acc"`
	LR        float64 `json:"lr"`
	Snap      string  `json:"snap"`
	Latest    bool    `json:"latest"`
	Path      string  `json:"path"`
	SHA       string  `json:"sha"`
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

// saveCatalog makes recs durable as the catalog and then the repository's
// view of it. The caller holds r.mu for writing and does not change recs
// afterwards.
func (r *Repo) saveCatalog(recs []record) error {
	blob, err := json.Marshal(catalogDoc{Versions: recs})
	if err != nil {
		return fmt.Errorf("%w: encoding the catalog: %v", ErrRepo, err)
	}
	if err := atomicfile.WriteFile(filepath.Join(r.root, dlvDir, catalogFile), blob); err != nil {
		return fmt.Errorf("%w: saving the catalog: %v", ErrRepo, err)
	}
	r.versions = recs
	return nil
}

// loadCatalog reads and checks a catalog file.
func loadCatalog(path string) ([]record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRepo, err)
	}
	recs, err := parseCatalog(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: catalog %s: %v", ErrRepo, path, err)
	}
	return recs, nil
}

// parseCatalog decodes a catalog in either form and checks every record.
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
	switch {
	case recs == nil && doc.Tables != nil:
		var err error
		if recs, err = fromTables(doc.Tables); err != nil {
			return nil, err
		}
	case recs == nil || doc.Tables != nil:
		return nil, errors.New("the document holds neither versions nor tables alone")
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

// fromTables turns the relational form into records. It reads the
// model_version, parent, metadata, trainlog, snapshot and file tables and
// skips node and edge, which repeat what netdef holds. Snapshots come out
// by iteration, checkpoints before latest at the same one, and the training
// log by iteration, as the relational queries ordered them.
func fromTables(tables []legacyTable) ([]record, error) {
	rows := map[string][]legacyRow{}
	for _, t := range tables {
		name := t.Schema.Name
		if name == "node" || name == "edge" {
			continue
		}
		for _, raw := range t.Rows {
			var row legacyRow
			if err := json.Unmarshal(raw, &row); err != nil {
				return nil, fmt.Errorf("table %s: %w", name, err)
			}
			rows[name] = append(rows[name], row)
		}
	}
	recs := make([]record, 0, len(rows["model_version"]))
	for _, row := range rows["model_version"] {
		def, err := dnn.NetDefFromJSON([]byte(row.NetDef))
		if err != nil {
			return nil, fmt.Errorf("version %d: %w", row.ID, err)
		}
		recs = append(recs, record{Version: Version{
			ID: row.ID, Name: row.Name, Msg: row.Msg, Created: row.Created,
			Accuracy: row.Accuracy, Archived: row.Archived, NetDef: def,
			Hyper: map[string]string{}, Files: map[string]string{},
		}})
	}
	byVersion := make(map[int64]*record, len(recs))
	for i := range recs {
		byVersion[recs[i].ID] = &recs[i]
	}
	for _, row := range rows["parent"] {
		if rec := byVersion[row.Derived]; rec != nil && rec.ParentID == 0 {
			rec.ParentID = row.Base
		}
	}
	for _, row := range rows["metadata"] {
		if rec := byVersion[row.VersionID]; rec != nil {
			rec.Hyper[row.MKey] = row.MValue
		}
	}
	for _, row := range rows["file"] {
		if rec := byVersion[row.VersionID]; rec != nil {
			rec.Files[row.Path] = row.SHA
		}
	}
	log := rows["trainlog"]
	slices.SortStableFunc(log, func(a, b legacyRow) int { return cmp.Compare(a.Iter, b.Iter) })
	for _, row := range log {
		if rec := byVersion[row.VersionID]; rec != nil {
			rec.Log = append(rec.Log, dnn.LogEntry{Iter: row.Iter, Loss: row.Loss, Accuracy: row.Acc, LR: row.LR})
		}
	}
	snaps := rows["snapshot"]
	slices.SortStableFunc(snaps, func(a, b legacyRow) int {
		if c := cmp.Compare(a.Iter, b.Iter); c != 0 {
			return c
		}
		switch {
		case !a.Latest && b.Latest:
			return -1
		case a.Latest && !b.Latest:
			return 1
		}
		return 0
	})
	for _, row := range snaps {
		if rec := byVersion[row.VersionID]; rec != nil {
			rec.Snapshots = append(rec.Snapshots, row.Snap)
		}
	}
	return recs, nil
}
