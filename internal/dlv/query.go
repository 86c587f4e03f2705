package dlv

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"modelhub/internal/catalog"
	"modelhub/internal/dnn"
)

// Version is the materialized view of one model version.
type Version struct {
	ID       int64
	Name     string
	Msg      string
	Created  string
	Accuracy float64
	Archived bool
	NetDef   *dnn.NetDef
	Hyper    map[string]string
	// Snapshots lists snapshot labels in iteration order (latest last).
	Snapshots []string
	// Files maps path -> object sha.
	Files map[string]string
	// ParentID is 0 for root versions.
	ParentID int64
}

// Version loads one model version by id.
func (r *Repo) Version(id int64) (*Version, error) {
	row, ok, err := r.db.Get("model_version", id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: no version %d", ErrRepo, id)
	}
	return r.versionFromRow(row)
}

// VersionByName returns the newest version with the given name.
func (r *Repo) VersionByName(name string) (*Version, error) {
	rows, err := r.db.Select("model_version", catalog.Query{
		Where:   []catalog.Cond{{Col: "name", Op: catalog.Eq, Val: name}},
		OrderBy: "id", Desc: true, Limit: 1,
	})
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: no version named %q", ErrRepo, name)
	}
	return r.versionFromRow(rows[0])
}

func (r *Repo) versionFromRow(row catalog.Row) (*Version, error) {
	id := row["id"].(int64)
	def, err := dnn.NetDefFromJSON([]byte(row["netdef"].(string)))
	if err != nil {
		return nil, err
	}
	v := &Version{
		ID:       id,
		Name:     row["name"].(string),
		Msg:      stringOr(row["msg"]),
		Created:  stringOr(row["created"]),
		Accuracy: floatOr(row["accuracy"]),
		Archived: boolOr(row["archived"]),
		NetDef:   def,
		Hyper:    map[string]string{},
		Files:    map[string]string{},
	}
	metaRows, err := r.db.Select("metadata", catalog.Query{
		Where: []catalog.Cond{{Col: "version_id", Op: catalog.Eq, Val: id}},
	})
	if err != nil {
		return nil, err
	}
	for _, m := range metaRows {
		v.Hyper[m["mkey"].(string)] = m["mvalue"].(string)
	}
	snapRows, err := r.db.Select("snapshot", catalog.Query{
		Where:   []catalog.Cond{{Col: "version_id", Op: catalog.Eq, Val: id}},
		OrderBy: "iter",
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(snapRows, func(a, b int) bool {
		// Same iteration: checkpoints before latest.
		ia, ib := snapRows[a]["iter"].(int64), snapRows[b]["iter"].(int64)
		if ia != ib {
			return ia < ib
		}
		return !boolOr(snapRows[a]["latest"]) && boolOr(snapRows[b]["latest"])
	})
	for _, s := range snapRows {
		v.Snapshots = append(v.Snapshots, s["snap"].(string))
	}
	fileRows, err := r.db.Select("file", catalog.Query{
		Where: []catalog.Cond{{Col: "version_id", Op: catalog.Eq, Val: id}},
	})
	if err != nil {
		return nil, err
	}
	for _, f := range fileRows {
		v.Files[f["path"].(string)] = f["sha"].(string)
	}
	parentRows, err := r.db.Select("parent", catalog.Query{
		Where: []catalog.Cond{{Col: "derived", Op: catalog.Eq, Val: id}},
	})
	if err != nil {
		return nil, err
	}
	if len(parentRows) > 0 {
		v.ParentID = parentRows[0]["base"].(int64)
	}
	return v, nil
}

// List returns summaries of all versions in id order (dlv list).
func (r *Repo) List() ([]*Version, error) {
	rows, err := r.db.Select("model_version", catalog.Query{OrderBy: "id"})
	if err != nil {
		return nil, err
	}
	out := make([]*Version, 0, len(rows))
	for _, row := range rows {
		v, err := r.versionFromRow(row)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// TrainLog returns the per-iteration measurements of a version (dlv desc).
func (r *Repo) TrainLog(id int64) ([]dnn.LogEntry, error) {
	rows, err := r.db.Select("trainlog", catalog.Query{
		Where:   []catalog.Cond{{Col: "version_id", Op: catalog.Eq, Val: id}},
		OrderBy: "iter",
	})
	if err != nil {
		return nil, err
	}
	out := make([]dnn.LogEntry, 0, len(rows))
	for _, row := range rows {
		out = append(out, dnn.LogEntry{
			Iter:     int(row["iter"].(int64)),
			Loss:     floatOr(row["loss"]),
			Accuracy: floatOr(row["acc"]),
			LR:       floatOr(row["lr"]),
		})
	}
	return out, nil
}

// Lineage returns the chain of ancestor version ids, nearest first.
func (r *Repo) Lineage(id int64) ([]int64, error) {
	var out []int64
	seen := map[int64]bool{id: true}
	cur := id
	for {
		rows, err := r.db.Select("parent", catalog.Query{
			Where: []catalog.Cond{{Col: "derived", Op: catalog.Eq, Val: cur}},
		})
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return out, nil
		}
		base := rows[0]["base"].(int64)
		if seen[base] {
			return nil, fmt.Errorf("%w: lineage cycle at version %d", ErrRepo, base)
		}
		seen[base] = true
		out = append(out, base)
		cur = base
	}
}

// DiffReport is the structural comparison of two versions (dlv diff).
type DiffReport struct {
	A, B          int64
	OnlyInA       []string // layer names
	OnlyInB       []string
	ChangedLayers []string // same name, different spec
	HyperChanged  map[string][2]string
	AccuracyDelta float64
}

// Diff compares two versions side by side via their metadata and network
// definitions.
func (r *Repo) Diff(aID, bID int64) (*DiffReport, error) {
	a, err := r.Version(aID)
	if err != nil {
		return nil, err
	}
	b, err := r.Version(bID)
	if err != nil {
		return nil, err
	}
	rep := &DiffReport{A: aID, B: bID, HyperChanged: map[string][2]string{}}
	aNodes := map[string]dnn.LayerSpec{}
	for _, n := range a.NetDef.Nodes {
		aNodes[n.Name] = n
	}
	bNodes := map[string]dnn.LayerSpec{}
	for _, n := range b.NetDef.Nodes {
		bNodes[n.Name] = n
	}
	for name, an := range aNodes {
		bn, ok := bNodes[name]
		if !ok {
			rep.OnlyInA = append(rep.OnlyInA, name)
			continue
		}
		if an != bn {
			rep.ChangedLayers = append(rep.ChangedLayers, name)
		}
	}
	for name := range bNodes {
		if _, ok := aNodes[name]; !ok {
			rep.OnlyInB = append(rep.OnlyInB, name)
		}
	}
	sort.Strings(rep.OnlyInA)
	sort.Strings(rep.OnlyInB)
	sort.Strings(rep.ChangedLayers)
	keys := map[string]bool{}
	for k := range a.Hyper {
		keys[k] = true
	}
	for k := range b.Hyper {
		keys[k] = true
	}
	for k := range keys {
		if a.Hyper[k] != b.Hyper[k] {
			rep.HyperChanged[k] = [2]string{a.Hyper[k], b.Hyper[k]}
		}
	}
	rep.AccuracyDelta = b.Accuracy - a.Accuracy
	return rep, nil
}

// Describe renders a human-readable description of a version (dlv desc).
func (r *Repo) Describe(id int64) (string, error) {
	v, err := r.Version(id)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "model version %d: %s\n", v.ID, v.Name)
	fmt.Fprintf(&b, "  created:  %s\n", v.Created)
	fmt.Fprintf(&b, "  message:  %s\n", v.Msg)
	fmt.Fprintf(&b, "  accuracy: %.4f\n", v.Accuracy)
	fmt.Fprintf(&b, "  archived: %v\n", v.Archived)
	if v.ParentID != 0 {
		fmt.Fprintf(&b, "  parent:   %d\n", v.ParentID)
	}
	fmt.Fprintf(&b, "  network (%d layers):\n", len(v.NetDef.Nodes))
	chain, err := v.NetDef.Chain()
	if err == nil {
		for _, l := range chain {
			fmt.Fprintf(&b, "    %-10s %s\n", l.Name, l.Kind)
		}
	}
	if len(v.Hyper) > 0 {
		fmt.Fprintf(&b, "  hyperparameters:\n")
		for _, k := range slices.Sorted(maps.Keys(v.Hyper)) {
			fmt.Fprintf(&b, "    %s = %s\n", k, v.Hyper[k])
		}
	}
	fmt.Fprintf(&b, "  snapshots: %s\n", strings.Join(v.Snapshots, ", "))
	return b.String(), nil
}

func stringOr(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

func floatOr(v any) float64 {
	if f, ok := v.(float64); ok {
		return f
	}
	return 0
}

func boolOr(v any) bool {
	if b, ok := v.(bool); ok {
		return b
	}
	return false
}
