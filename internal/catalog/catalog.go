// Package catalog is a small embedded relational engine — the stdlib-only
// stand-in for the sqlite3 backend the paper's prototype uses (Sec. V). It
// stores the structured side of a DLV repository: model versions, network
// nodes and edges, lineage (parent relation), extracted metadata and
// training logs. It supports typed schemas, primary keys, secondary hash
// indexes, predicate scans with LIKE, ordering, limits, and JSON-file
// persistence.
package catalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"

	"modelhub/internal/atomicfile"
)

// ColType enumerates column types.
type ColType int

const (
	// Int is a 64-bit integer column.
	Int ColType = iota
	// Float is a float64 column.
	Float
	// Text is a string column.
	Text
	// Bool is a boolean column.
	Bool
)

// Column describes one table column.
type Column struct {
	Name    string  `json:"name"`
	Type    ColType `json:"type"`
	Primary bool    `json:"primary,omitempty"`
	Indexed bool    `json:"indexed,omitempty"`
}

// Schema describes one table.
type Schema struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
}

// Row is one record. Values must match the schema's column types: int64,
// float64, string, or bool.
type Row map[string]any

// Errors returned by the engine.
var (
	ErrSchema   = errors.New("catalog: schema error")
	ErrNoTable  = errors.New("catalog: no such table")
	ErrConflict = errors.New("catalog: primary key conflict")
	ErrType     = errors.New("catalog: type mismatch")
)

// DB is an embedded relational database. All methods are safe for
// concurrent use.
type DB struct {
	mu     sync.RWMutex
	path   string // persistence file; "" = in-memory only
	tables map[string]*table
}

type table struct {
	schema  Schema
	rows    []Row
	primary map[any]int      // pk value -> row index (single-column pks)
	indexes map[string]index // column -> value -> row indexes
}

type index map[any][]int

// Open loads a database from path, creating an empty one if the file does
// not exist. Pass "" for a purely in-memory database.
func Open(path string) (*DB, error) {
	db := &DB{path: path, tables: make(map[string]*table)}
	if path == "" {
		return db, nil
	}
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return db, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: open: %w", err)
	}
	if err := db.loadJSON(blob); err != nil {
		return nil, err
	}
	return db, nil
}

// persisted is the JSON wire form.
type persisted struct {
	Tables []persistedTable `json:"tables"`
}

type persistedTable struct {
	Schema Schema `json:"schema"`
	Rows   []Row  `json:"rows"`
}

func (db *DB) loadJSON(blob []byte) error {
	// Numbers decode as json.Number, so an Int column gets its exact digits
	// back instead of a float64 rounded to 53 bits.
	var p persisted
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("catalog: corrupt database file: %w", err)
	}
	for _, pt := range p.Tables {
		if err := db.CreateTable(pt.Schema); err != nil {
			return err
		}
		for _, row := range pt.Rows {
			// Insert coerces each json.Number per schema.
			if err := db.Insert(pt.Schema.Name, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// Save writes the database to its backing file (no-op for in-memory)
// durably: a temp file in the same directory, fsync, rename over the file,
// fsync of the directory. A crash or a failed step leaves the previous file
// whole; Save returns nil only once the new one would survive power loss.
func (db *DB) Save() error {
	if db.path == "" {
		return nil
	}
	db.mu.RLock()
	var p persisted
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.tables[name]
		p.Tables = append(p.Tables, persistedTable{Schema: t.schema, Rows: t.rows})
	}
	db.mu.RUnlock()
	blob, err := json.MarshalIndent(&p, "", " ")
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(db.path, blob); err != nil {
		return fmt.Errorf("catalog: save: %w", err)
	}
	return nil
}

// CreateTable registers a new table.
func (db *DB) CreateTable(s Schema) error {
	if s.Name == "" || len(s.Columns) == 0 {
		return fmt.Errorf("%w: empty table name or no columns", ErrSchema)
	}
	seen := map[string]bool{}
	pks := 0
	for _, c := range s.Columns {
		if c.Name == "" || seen[c.Name] {
			return fmt.Errorf("%w: bad column name %q", ErrSchema, c.Name)
		}
		seen[c.Name] = true
		if c.Primary {
			pks++
		}
	}
	if pks > 1 {
		return fmt.Errorf("%w: multiple primary keys", ErrSchema)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[s.Name]; ok {
		return fmt.Errorf("%w: table %q exists", ErrSchema, s.Name)
	}
	t := &table{schema: s, primary: map[any]int{}, indexes: map[string]index{}}
	for _, c := range s.Columns {
		if c.Indexed {
			t.indexes[c.Name] = index{}
		}
	}
	db.tables[s.Name] = t
	return nil
}

// HasTable reports whether a table exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[name]
	return ok
}

func (t *table) pkCol() (string, bool) {
	for _, c := range t.schema.Columns {
		if c.Primary {
			return c.Name, true
		}
	}
	return "", false
}

// checkTypes validates and normalizes a row against the schema.
func coerceRow(s Schema, row Row) (Row, error) {
	out := make(Row, len(s.Columns))
	for _, c := range s.Columns {
		v, ok := row[c.Name]
		if !ok || v == nil {
			continue
		}
		switch c.Type {
		case Int:
			switch x := v.(type) {
			case int64:
				out[c.Name] = x
			case int:
				out[c.Name] = int64(x)
			case json.Number: // a loaded file: exact digits only, in range
				n, err := strconv.ParseInt(string(x), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: column %s wants int, got %s", ErrType, c.Name, x)
				}
				out[c.Name] = n
			default:
				return nil, fmt.Errorf("%w: column %s wants int, got %T", ErrType, c.Name, v)
			}
		case Float:
			var f float64
			switch x := v.(type) {
			case float64:
				f = x
			case json.Number: // a loaded file
				var err error
				if f, err = strconv.ParseFloat(string(x), 64); err != nil {
					return nil, fmt.Errorf("%w: column %s: float %s out of range", ErrType, c.Name, x)
				}
			case int64:
				f = float64(x)
			case int:
				f = float64(x)
			default:
				return nil, fmt.Errorf("%w: column %s wants float, got %T", ErrType, c.Name, v)
			}
			// JSON persistence cannot represent non-finite values; reject
			// them here with a clear error rather than failing at Save.
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("%w: column %s: non-finite float %v", ErrType, c.Name, f)
			}
			out[c.Name] = f
		case Text:
			x, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("%w: column %s wants text, got %T", ErrType, c.Name, v)
			}
			out[c.Name] = x
		case Bool:
			x, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("%w: column %s wants bool, got %T", ErrType, c.Name, v)
			}
			out[c.Name] = x
		}
	}
	for k := range row {
		found := false
		for _, c := range s.Columns {
			if c.Name == k {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: unknown column %q", ErrSchema, k)
		}
	}
	return out, nil
}

// Insert appends a row.
func (db *DB) Insert(tableName string, row Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	coerced, err := coerceRow(t.schema, row)
	if err != nil {
		return err
	}
	if pk, has := t.pkCol(); has {
		v, ok := coerced[pk]
		if !ok {
			return fmt.Errorf("%w: missing primary key %q", ErrSchema, pk)
		}
		if _, dup := t.primary[v]; dup {
			return fmt.Errorf("%w: %s=%v", ErrConflict, pk, v)
		}
		t.primary[v] = len(t.rows)
	}
	for col, idx := range t.indexes {
		if v, ok := coerced[col]; ok {
			idx[v] = append(idx[v], len(t.rows))
		}
	}
	t.rows = append(t.rows, coerced)
	return nil
}

// Get fetches a row by primary key.
func (db *DB) Get(tableName string, pk any) (Row, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	pkv := normalizeKey(pk)
	i, ok := t.primary[pkv]
	if !ok {
		return nil, false, nil
	}
	return cloneRow(t.rows[i]), true, nil
}

func normalizeKey(v any) any {
	if x, ok := v.(int); ok {
		return int64(x)
	}
	return v
}

func cloneRow(r Row) Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}
